package cluster

import (
	"fmt"
	"time"

	"neuralcache"
	"neuralcache/internal/node"
	"neuralcache/plan"
	"neuralcache/serve"
)

// nodeState is a node's lifecycle position.
type nodeState int

const (
	stateLive nodeState = iota
	stateDraining
	stateDown
)

func (st nodeState) String() string {
	switch st {
	case stateLive:
		return "live"
	case stateDraining:
		return "draining"
	}
	return "down"
}

// simNode is one fleet node: the scheduling core serve.Simulate runs,
// plus geometry, pricing, lifecycle state and the fleet's accounting. A
// kill resets the core and bumps its epoch, so the dead incarnation's
// completions and restages pop stale: their requests count as lost and
// no group state is touched.
type simNode struct {
	*node.Node
	spec    NodeSpec
	sys     *neuralcache.System
	backend serve.Backend
	state   nodeState

	routed, served, rejected, lost int
	servedPerModel                 []int
	busy, winBusy                  time.Duration
}

// modelStats is one model's fleet-level admission accounting; its
// dispatch tallies live in the nodes' cores.
type modelStats struct {
	name                            string
	offered, served, rejected, lost int
}

// sim is the state of one cluster.Simulate run.
type sim struct {
	opts   Options
	router Router

	models []*neuralcache.Model
	names  []string
	index  map[string]int
	mix    []int // registry index of each Traffic.Models() name

	nodes []*simNode
	view  []NodeView // one per node; its load fields refresh for every routing decision

	events node.Events
	now    time.Duration

	gen      *node.Gen
	observer *plan.DecayedMix // the offered mix rejoining planned nodes plan for; nil if none can
	tracer   *tracer
	timeline *fleetTimeline

	perModel []*modelStats

	offered, served              int
	rejectedFull, rejectedNoNode int
	lost                         int
	maxDepth                     int
	firstArrival, lastCompletion time.Duration
	latencies                    node.Latencies

	initialMix []plan.Share
	planRate   float64
}

// Simulate runs the fleet against a generated load on a deterministic
// virtual clock: no goroutines, no wall-clock sleeps, service and
// reload times from each node's analytic backend. The same models,
// options and load produce an identical Report — byte-identical JSON —
// on every run and at every functional-engine worker count (analytic
// pricing never executes the engine).
func Simulate(models []*neuralcache.Model, opts Options, load Load) (*Report, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := load.validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("cluster: no models")
	}
	s := &sim{
		opts:   o,
		router: o.Router,
		models: models,
		names:  make([]string, len(models)),
		index:  make(map[string]int, len(models)),
		gen:    load.traffic().Arrivals(),
		view:   make([]NodeView, len(o.Nodes)),
		// At most one latency per arrival.
		latencies: node.NewLatencies(load.Requests, true),
	}
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("cluster: model %d is nil", i)
		}
		if _, dup := s.index[m.Name()]; dup {
			return nil, fmt.Errorf("cluster: model %s registered twice", m.Name())
		}
		s.names[i] = m.Name()
		s.index[m.Name()] = i
		s.perModel = append(s.perModel, &modelStats{name: m.Name()})
	}
	// Resolve the whole mix timeline up front: unknown models fail fast,
	// and arrivals need no lookup.
	for _, name := range load.traffic().Models() {
		mi, err := s.resolve(name)
		if err != nil {
			return nil, err
		}
		s.mix = append(s.mix, mi)
	}
	for i, spec := range o.Nodes {
		sys, err := spec.system()
		if err != nil {
			return nil, err
		}
		n := &simNode{
			spec:           spec,
			sys:            sys,
			backend:        serve.NewAnalyticBackend(sys, models[0], models[1:]...),
			servedPerModel: make([]int, len(models)),
		}
		n.Node = node.New(node.Config{
			ID:        i,
			Name:      "cluster: node " + spec.Name,
			Names:     s.names,
			Pricer:    n.backend,
			Groups:    spec.Replicas,
			GroupSize: spec.GroupSize,
			MaxBatch:  spec.MaxBatch,
			Linger:    spec.MaxLinger,
			Drift:     o.Trace != nil,
		}, &s.events, s)
		s.nodes = append(s.nodes, n)
		s.view[i] = NodeView{Index: i, Name: spec.Name, QueueLimit: spec.QueueDepth, Groups: spec.Replicas}
	}
	// Only a planned node's cold rejoin reads the offered mix.
	for _, ev := range o.Events {
		if ev.Kind == JoinNode && o.Nodes[ev.Node].Plan {
			s.observer = plan.NewDecayedMix(len(models), plan.DefaultHalfLife)
			break
		}
	}
	s.tracer = newTracer(o.Trace)
	s.tracer.begin(o.Nodes)
	if o.TimelineInterval > 0 {
		s.timeline = &fleetTimeline{interval: o.TimelineInterval, next: o.TimelineInterval}
	}
	// The initial planning mix: the load's first epoch, with the rate
	// split evenly across the starting fleet. Per-node controllers take
	// over from here, each chasing the traffic the router sends it.
	s.initialMix = sharesFromMix(load.Mix, s.names[0])
	if len(s.initialMix) == 0 {
		s.initialMix = []plan.Share{{Model: s.names[0], Weight: 1}}
	}
	s.planRate = load.Rate / float64(len(s.nodes))
	for _, n := range s.nodes {
		if n.spec.Plan {
			if err := s.planNode(n, s.initialMix); err != nil {
				return nil, err
			}
		}
	}
	// Lifecycle events enter the heap before the first arrival, so a
	// transition scheduled at an arrival's exact instant fires first.
	for _, ev := range o.Events {
		s.events.Push(node.Event{At: ev.At, Kind: node.Lifecycle, Node: ev.Node, Model: int(ev.Kind)})
	}
	s.arrive()
	for s.events.Len() > 0 {
		e := s.events.Pop()
		s.timeline.advance(e.At, s)
		s.now = e.At
		switch e.Kind {
		case node.Arrival:
			s.onArrival(e)
		case node.Completion:
			err = s.onCompletion(e)
		case node.Restage:
			if n := s.nodes[e.Node]; e.Epoch == n.Epoch() {
				err = n.Finish(s.now, e.Group)
			}
		case node.Lifecycle:
			err = s.onLifecycle(e)
		}
		if err != nil {
			return nil, err
		}
		// Every node that is not down applies its micro-batching policy;
		// draining nodes keep dispatching their queued work.
		for _, n := range s.nodes {
			if n.state != stateDown {
				if err := n.Dispatch(s.now); err != nil {
					return nil, err
				}
			}
		}
	}
	return s.report()
}

// resolve maps a load-mix model name ("" = the default, index 0) to
// its fleet registry index.
func (s *sim) resolve(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	mi, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("cluster: model %q not registered", name)
	}
	return mi, nil
}

// arrive pushes the generator's next arrival, if any.
func (s *sim) arrive() {
	if at, draw, _, ok := s.gen.Next(); ok {
		s.events.Push(node.Event{At: at, Kind: node.Arrival, Model: s.mix[draw]})
	}
}

// planNode computes a residency plan for the node from the given
// shares and adopts it, pre-staging every pinned group. Zero-weight
// shares are floored to a tiny epsilon, and registered models missing
// from the shares are appended at that epsilon, so every registered
// model keeps a warm set (the plan has no overflow pool; an unpinned
// model's requests could never dispatch).
func (s *sim) planNode(n *simNode, shares []plan.Share) error {
	floored := make([]plan.Share, 0, len(s.names))
	present := make(map[string]bool, len(shares))
	for _, sh := range shares {
		if sh.Weight == 0 {
			sh.Weight = 1e-9
		}
		floored = append(floored, sh)
		present[sh.Model] = true
	}
	for _, name := range s.names {
		if !present[name] {
			floored = append(floored, plan.Share{Model: name, Weight: 1e-9})
		}
	}
	p, err := plan.Compute(n.sys, s.models, floored, plan.Options{
		GroupSize:  n.spec.GroupSize,
		MaxBatch:   n.spec.MaxBatch,
		RatePerSec: s.planRate,
	})
	if err != nil {
		return fmt.Errorf("cluster: node %s: %w", n.spec.Name, err)
	}
	var ctrl *plan.Controller
	if n.spec.Replan.Enabled() {
		if ctrl, err = plan.NewController(n.sys, s.models, p, n.spec.Replan); err != nil {
			return fmt.Errorf("cluster: node %s: %w", n.spec.Name, err)
		}
	}
	return n.Adopt(s.now, p, ctrl)
}

// queued is the fleet's admitted, undispatched request count.
func (s *sim) queued() int {
	d := 0
	for _, n := range s.nodes {
		d += n.Depth()
	}
	return d
}

// views refreshes the load fields of the run's one view slice for a
// routing decision; the fixed fields were written once, when the run
// began. The router may read the views only during Pick.
func (s *sim) views() []NodeView {
	for i, n := range s.nodes {
		v := &s.view[i]
		v.Accepting = n.state == stateLive
		v.QueueDepth = n.Depth()
		v.BusyGroups = n.BusyGroups()
	}
	return s.view
}

func (s *sim) onArrival(e *node.Event) {
	mi := e.Model
	st := s.perModel[mi]
	s.offered++
	st.offered++
	if s.offered == 1 {
		s.firstArrival = s.now
	}
	if s.observer != nil {
		s.observer.Add(mi, 1, s.now)
	}
	views := s.views()
	pick := s.router.Pick(s.names[mi], views)
	switch {
	case pick < 0 || pick >= len(s.nodes) || !views[pick].Accepting:
		// No accepting node (or a router bug routed to one that isn't):
		// the front door rejects.
		s.rejectedNoNode++
		st.rejected++
		s.tracer.rejectNoNode(s.names[mi], s.now)
	default:
		n := s.nodes[pick]
		n.routed++
		if n.Depth() >= n.spec.QueueDepth {
			s.rejectedFull++
			n.rejected++
			st.rejected++
			s.tracer.rejectFull(pick, s.names[mi], s.now)
			break
		}
		n.Enqueue(mi, s.now, -1, 0)
		if d := s.queued(); d > s.maxDepth {
			s.maxDepth = d
		}
	}
	s.arrive()
}

func (s *sim) onCompletion(e *node.Event) error {
	n := s.nodes[e.Node]
	st := s.perModel[e.Model]
	k := len(e.Arrivals)
	if e.Epoch != n.Epoch() {
		// The batch was in flight when its node was killed: the node's
		// group state was reset, the requests are lost.
		s.lost += k
		n.lost += k
		st.lost += k
		return nil
	}
	if err := n.Finish(s.now, e.Group); err != nil {
		return err
	}
	s.served += k
	n.served += k
	st.served += k
	n.servedPerModel[e.Model] += k
	if s.now > s.lastCompletion {
		s.lastCompletion = s.now
	}
	for _, at := range e.Arrivals {
		s.latencies.Add(s.now-at, e.Model, e.Node)
	}
	return nil
}

func (s *sim) onLifecycle(e *node.Event) error {
	n := s.nodes[e.Node]
	switch kind := EventKind(e.Model); kind {
	case KillNode:
		if n.state == stateDown {
			return fmt.Errorf("cluster: kill of down node %s at %v", n.spec.Name, s.now)
		}
		s.tracer.lifecycle(e.Node, KillNode, s.now)
		// Queued requests die with the node; in-flight batches are
		// counted lost when their stale-epoch completions pop.
		for mi, st := range s.perModel {
			l := n.QueueLen(mi)
			s.lost += l
			n.lost += l
			st.lost += l
		}
		n.Reset()
		n.state = stateDown
	case DrainNode:
		if n.state != stateLive {
			return fmt.Errorf("cluster: drain of %s node %s at %v", n.state, n.spec.Name, s.now)
		}
		s.tracer.lifecycle(e.Node, DrainNode, s.now)
		n.state = stateDraining
	case JoinNode:
		switch n.state {
		case stateLive:
			return fmt.Errorf("cluster: join of live node %s at %v", n.spec.Name, s.now)
		case stateDraining:
			// Rolling-restart rejoin: the node never lost its weights,
			// it comes back warm.
			n.state = stateLive
		case stateDown:
			// Cold rejoin: a planned node warms up against the traffic
			// the cluster observes right now, not the launch mix.
			n.state = stateLive
			if n.spec.Plan {
				shares := s.observer.Shares(s.models)
				if shares == nil {
					shares = s.initialMix
				}
				if err := s.planNode(n, shares); err != nil {
					return err
				}
			}
		}
		s.tracer.lifecycle(e.Node, JoinNode, s.now)
	}
	return nil
}

// Dispatched schedules a batch's completion and charges the batch to its
// node's occupancy and trace lane (node.Driver).
func (s *sim) Dispatched(nd *node.Node, b node.Batch) {
	occupancy := b.Service + b.Reload
	s.events.Push(node.Event{At: b.At + occupancy, Kind: node.Completion, Node: nd.ID(),
		Epoch: nd.Epoch(), Model: b.Model, Group: b.Group, Arrivals: b.Arrivals})
	n := s.nodes[nd.ID()]
	n.busy += occupancy
	n.winBusy += occupancy
	s.tracer.batch(nd.ID(), b.Group, s.names[b.Model], b.Size, !b.Warm, nd.Batches, b.At, b.Service, b.Reload)
}

// Replanning marks a node controller's re-plan, before its restage
// spans (node.Driver).
func (s *sim) Replanning(nd *node.Node, at time.Duration, drift float64, restages int) {
	s.tracer.replan(nd.ID(), at, nd.Replans+1, drift, restages)
}

// Restaged charges a planner restage to its node (node.Driver).
func (s *sim) Restaged(nd *node.Node, op node.Op, at time.Duration) {
	n := s.nodes[nd.ID()]
	n.busy += op.Cost
	n.winBusy += op.Cost
	from := ""
	if op.From >= 0 {
		from = s.names[op.From]
	}
	s.tracer.restage(nd.ID(), op.Group, s.names[op.Model], from, at, op.Cost)
}

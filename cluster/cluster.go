// Package cluster routes traffic across a fleet of Neural Cache
// serving nodes — the tier that takes the reproduction from "a socket"
// to "a service".
//
// The paper's throughput story (§VI-B) replicates one image per LLC
// slice inside a socket; serve/ generalized that to replica groups and
// plan/ to mix-aware residency within one node. This package composes N
// such nodes (heterogeneous Sockets/Slices/GroupSize allowed) behind a
// single submission front door with a pluggable Router:
//
//   - LeastLoaded spreads instantaneous load, model-blind.
//   - ModelAffinity consistent-hashes on the model name (rendezvous),
//     generalizing the warm-first dispatch insight from slices to
//     nodes: a model's traffic always lands where its weights are
//     already staged, so the fleet pays the §IV-E reload (~12.9ms for
//     Inception) as rarely as possible.
//   - PowerOfTwo samples two nodes and picks the less loaded — the
//     classic O(1) balance result.
//
// Two drivers consume a cluster:
//
//   - Simulate extends the virtual clock to the fleet: diurnal load
//     (Load.RateSchedule), hot-spot model shifts (Load.MixSchedule) and
//     correlated node loss (Options.Events) replay deterministically in
//     seconds, and the serialized Report is byte-identical across runs
//     and functional-engine worker counts. Every node runs the same
//     scheduling core as serve.Simulate (internal/node: admission
//     queues, micro-batching, warm-first and plan-aware group claims,
//     restages), with its own plan.Controller re-planning for the
//     traffic the router sends it — a cluster of one node is a
//     serve.Simulate node. When a scenario rejoins a planned node, a
//     cluster-level mix observer tracks the offered mix so the node
//     warms up against current traffic.
//   - New builds the wall-clock front door over real serve.Servers
//     (cluster.Cluster): SubmitModel routes live requests, Drain/Join
//     rotate nodes out and in.
//
// Node lifecycle inside a scenario: Drain stops a node's admissions
// and lets it finish queued and in-flight work (its warm-set share of
// new traffic redistributes via the router); Kill drops the node
// mid-flight — queued and in-flight requests are lost, counted — and
// the survivors' planners re-apportion warm sets as their observed
// mixes shift; Join brings a down node back cold, warmed by planner
// restages computed from the observer's current mix. Report aggregates
// the per-node accounting into fleet percentiles, per-node utilization,
// cross-node warm/cold/reload counts and rejects by cause, with an
// optional obs.Trace (one process lane per node) and timeline.
package cluster

import (
	"fmt"
	"time"

	"neuralcache"
	"neuralcache/obs"
	"neuralcache/plan"
	"neuralcache/serve"
)

// NodeSpec describes one simulated node: its cache geometry and its
// single-node serving options. The zero value of every field defaults
// exactly like the corresponding neuralcache.Config / serve.Options
// field, so NodeSpec{} is the stock two-socket, 14-slice, k=1 node.
type NodeSpec struct {
	// Name uniquely identifies the node in reports, traces and
	// rendezvous hashing; "" defaults to "node<i>". Renaming a node
	// changes which models the affinity router homes on it.
	Name string
	// Sockets and Slices set the node's cache geometry (defaults 2 and
	// 14, the paper's Xeon E5 pair).
	Sockets int
	Slices  int
	// GroupSize is the slices per replica group (default 1, §VI-B
	// one-image-per-slice; must divide Slices).
	GroupSize int
	// Replicas is the number of replica groups scheduled on (0 = all).
	// Planned nodes must schedule on all groups.
	Replicas int
	// Workers bounds the node's functional-engine goroutines. The
	// analytic pricing the simulator uses is worker-independent — the
	// field exists so determinism across worker counts is testable at
	// the cluster tier too.
	Workers int
	// QueueDepth, MaxBatch and MaxLinger are the node's admission and
	// batching options, defaulted like serve.Options (1024, 16, 2ms;
	// negative MaxLinger dispatches immediately).
	QueueDepth int
	MaxBatch   int
	MaxLinger  time.Duration
	// Plan pre-stages mix-aware warm sets on the node at startup
	// (plan.Compute over the load's initial mix, rate split evenly
	// across the starting fleet) and schedules plan-aware thereafter. A
	// node joining from down re-plans against the cluster mix
	// observer's current mix instead.
	Plan bool
	// Replan attaches the node's own plan.Controller: it observes the
	// traffic the router actually sends this node and re-plans when
	// that node-local mix drifts. Requires Plan.
	Replan plan.ControllerConfig
}

// withDefaults fills zero fields and validates the spec.
func (ns NodeSpec) withDefaults(i int) (NodeSpec, error) {
	if ns.Name == "" {
		ns.Name = fmt.Sprintf("node%d", i)
	}
	if ns.Sockets == 0 {
		ns.Sockets = 2
	}
	if ns.Slices == 0 {
		ns.Slices = 14
	}
	if ns.GroupSize == 0 {
		ns.GroupSize = 1
	}
	if ns.QueueDepth == 0 {
		ns.QueueDepth = 1024
	}
	if ns.MaxBatch == 0 {
		ns.MaxBatch = 16
	}
	switch {
	case ns.MaxLinger == 0:
		ns.MaxLinger = 2 * time.Millisecond
	case ns.MaxLinger < 0:
		ns.MaxLinger = 0
	}
	switch {
	case ns.Sockets < 1 || ns.Slices < 1:
		return ns, fmt.Errorf("cluster: node %s has %d sockets × %d slices", ns.Name, ns.Sockets, ns.Slices)
	case ns.GroupSize < 1 || ns.Slices%ns.GroupSize != 0:
		return ns, fmt.Errorf("cluster: node %s replica group of %d slices does not divide its %d-slice cache",
			ns.Name, ns.GroupSize, ns.Slices)
	case ns.Workers < 0:
		return ns, fmt.Errorf("cluster: node %s worker count %d", ns.Name, ns.Workers)
	case ns.QueueDepth < ns.MaxBatch || ns.MaxBatch < 1:
		return ns, fmt.Errorf("cluster: node %s queue depth %d below max batch %d", ns.Name, ns.QueueDepth, ns.MaxBatch)
	case ns.Replan.Enabled() && !ns.Plan:
		return ns, fmt.Errorf("cluster: node %s replan controller needs Plan", ns.Name)
	}
	total := ns.Slices * ns.Sockets / ns.GroupSize
	switch {
	case ns.Replicas < 0 || ns.Replicas > total:
		return ns, fmt.Errorf("cluster: node %s schedules %d replica groups of %d", ns.Name, ns.Replicas, total)
	case ns.Replicas == 0:
		ns.Replicas = total
	case ns.Plan && ns.Replicas != total:
		return ns, fmt.Errorf("cluster: node %s plans over all %d groups but schedules %d", ns.Name, total, ns.Replicas)
	}
	return ns, nil
}

// system builds the node's neuralcache.System.
func (ns NodeSpec) system() (*neuralcache.System, error) {
	cfg := neuralcache.DefaultConfig()
	cfg.Sockets = ns.Sockets
	cfg.Slices = ns.Slices
	cfg.Workers = ns.Workers
	if ns.GroupSize > 1 {
		cfg.GroupSize = ns.GroupSize
	}
	return neuralcache.New(cfg)
}

// EventKind is a scheduled node-lifecycle transition.
type EventKind int

const (
	// KillNode drops the node instantly: queued and in-flight requests
	// are lost (counted in Report.Lost), its staged weights are gone,
	// and the router stops seeing it. The cluster-level counterpart of
	// RunWithFaults' intra-node faults.
	KillNode EventKind = iota + 1
	// DrainNode stops the node's admissions; queued and in-flight work
	// finishes normally and new traffic redistributes via the router.
	DrainNode
	// JoinNode brings a drained node back accepting (warm — its staged
	// weights survived), or a killed node back cold: a planned node
	// recomputes its plan from the cluster mix observer's current mix
	// and warms via planner restages.
	JoinNode
)

// String names the kind for reports and traces.
func (k EventKind) String() string {
	switch k {
	case KillNode:
		return "kill"
	case DrainNode:
		return "drain"
	case JoinNode:
		return "join"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalText serializes the kind by name, keeping Report JSON
// self-describing.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// NodeEvent schedules one lifecycle transition of one node at a
// load-relative virtual time. Invalid transitions at fire time (kill
// or drain of a down node, drain of a draining node, join of a live
// node) fail the run with an error rather than silently skipping: a
// fault scenario that doesn't mean what it says should not produce a
// report.
type NodeEvent struct {
	At   time.Duration `json:"at_ns"`
	Node int           `json:"node"`
	Kind EventKind     `json:"kind"`
}

// Options configures a cluster simulation.
type Options struct {
	// Nodes lists the fleet; at least one. Names must be unique
	// (defaulted names are).
	Nodes []NodeSpec
	// Router picks each arrival's node; nil defaults to LeastLoaded.
	Router Router
	// Events is the lifecycle scenario (kills, drains, joins), fired in
	// time order; same-instant events fire in list order.
	Events []NodeEvent
	// Trace, when non-nil, records the run as Chrome trace events with
	// one process lane per node (pid i+1; pid 0 is the cluster front
	// door) — batch and restage spans per replica group, lifecycle and
	// rejection instants. Byte-identical across runs on the virtual
	// clock.
	Trace *obs.Trace
	// TimelineInterval, when positive, samples the fleet time series
	// every interval into Report.Timeline: total queue depth and busy
	// groups, windowed offered/served/rejected and warm/cold counts,
	// and per-node utilization in GroupUtil (one entry per node). 0
	// disables.
	TimelineInterval time.Duration
}

// withDefaults fills and validates the options.
func (o Options) withDefaults() (Options, error) {
	if len(o.Nodes) == 0 {
		return o, fmt.Errorf("cluster: no nodes")
	}
	nodes := make([]NodeSpec, len(o.Nodes))
	seen := make(map[string]bool, len(o.Nodes))
	for i, ns := range o.Nodes {
		spec, err := ns.withDefaults(i)
		if err != nil {
			return o, err
		}
		if seen[spec.Name] {
			return o, fmt.Errorf("cluster: node name %q appears twice", spec.Name)
		}
		seen[spec.Name] = true
		nodes[i] = spec
	}
	o.Nodes = nodes
	if o.Router == nil {
		o.Router = LeastLoaded{}
	}
	if o.TimelineInterval < 0 {
		return o, fmt.Errorf("cluster: timeline interval %v", o.TimelineInterval)
	}
	for i, ev := range o.Events {
		if ev.Node < 0 || ev.Node >= len(o.Nodes) {
			return o, fmt.Errorf("cluster: event %d targets node %d of %d", i, ev.Node, len(o.Nodes))
		}
		if ev.At < 0 {
			return o, fmt.Errorf("cluster: event %d at %v", i, ev.At)
		}
		switch ev.Kind {
		case KillNode, DrainNode, JoinNode:
		default:
			return o, fmt.Errorf("cluster: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return o, nil
}

// sharesFromMix converts a load mix into planner shares, resolving ""
// to the default model's name.
func sharesFromMix(mix []serve.ModelShare, defaultModel string) []plan.Share {
	out := make([]plan.Share, len(mix))
	for i, ms := range mix {
		name := ms.Model
		if name == "" {
			name = defaultModel
		}
		out[i] = plan.Share{Model: name, Weight: ms.Weight}
	}
	return out
}

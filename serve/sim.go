package serve

import (
	"fmt"
	"math"
	"time"

	"neuralcache/internal/node"
	"neuralcache/plan"
)

// ModelShare is one model's weight in a generated traffic mix; see
// node.ModelShare.
type ModelShare = node.ModelShare

// MixShift is one scheduled traffic-mix change: from At onward,
// arrivals draw their model from Mix instead of the previous mix. The
// drift controller (plan.Controller via Options.Replan) exists to chase
// exactly these shifts.
type MixShift = node.MixShift

// Load describes a generated arrival process. The default (Concurrency
// 0) is open-loop: requests arrive on their own schedule regardless of
// service progress, the regime the paper's throughput evaluation implies
// and the one that exposes queueing and rejection. Concurrency > 0
// switches to closed-loop: a fixed population of users each keeps
// exactly one request in flight, submitting the next one a think time
// after the previous completes — the regime that exposes latency under
// admission control rather than saturation.
type Load struct {
	// Rate is the mean arrival rate in requests per second (open-loop).
	// In closed-loop runs it is the per-user think rate: each user waits
	// a mean 1/Rate between completing one request and submitting the
	// next; 0 means no think time (users resubmit immediately).
	Rate float64
	// Requests is the number of arrivals to generate. When 0, arrivals
	// are generated for Duration instead.
	Requests int
	// Duration is the arrival window used when Requests is 0.
	Duration time.Duration
	// Seed seeds the Poisson process and the model-mix draw. The same
	// seed reproduces the same arrival schedule and model assignment
	// exactly.
	Seed int64
	// Poisson draws exponential interarrival times (a Poisson process)
	// instead of uniform spacing; in closed-loop runs it draws
	// exponential think times instead of constant 1/Rate.
	Poisson bool
	// Concurrency, when positive, makes the load closed-loop with that
	// many users. All users issue their first request at t = 0 (after an
	// initial think when Rate > 0). Must not exceed Options.QueueDepth,
	// so a user's submission can never be rejected.
	Concurrency int
	// Mix assigns each arrival a model, drawn independently with the
	// given weights from the seeded generator. Weights are relative —
	// normalized over their sum, so they need not sum to 1 — and are
	// validated: negative, NaN or infinite weights, and mixes summing
	// to zero, are rejected; individual zero weights are allowed and
	// draw nothing. Empty means every arrival targets the backend's
	// default model.
	Mix []ModelShare
	// MixSchedule shifts the traffic mix mid-run: each entry replaces
	// the active mix from its At onward (strictly ascending, At > 0).
	// Arrivals before the first shift draw from Mix. The schedule is
	// deterministic under Seed like everything else, making planned-
	// versus-reactive comparisons under mix drift reproducible.
	MixSchedule []MixShift
	// Reuse makes generated traffic repeat inputs: each arrival draws a
	// reuse key — which input it asks for — Zipf-distributed over a
	// finite universe, from the seeded generator, so repeat traffic is
	// replayable. The zero value keeps every arrival distinct. This is
	// the knob that exercises Options.Cache: the front-cache's hit rate
	// is the mass of the Zipf head that fits in its capacity.
	Reuse Reuse
}

// Reuse describes the input-repetition distribution of a generated
// load: arrivals ask for input k with the Zipf(s) probability over a
// universe of Universe distinct inputs (k = 0 is the most popular).
// Both fields must be set together: Universe must be positive and ZipfS
// must exceed 1 (the math/rand Zipf sampler's domain); NaN, infinite
// and negative skews are rejected.
type Reuse struct {
	// ZipfS is the Zipf skew s > 1. Production traces are commonly fit
	// near s ≈ 1.1; larger s concentrates more mass on the head.
	ZipfS float64
	// Universe is the number of distinct inputs N; keys are drawn in
	// [0, N).
	Universe int
}

// Enabled reports whether the load repeats inputs.
func (r Reuse) Enabled() bool { return r != (Reuse{}) }

// validate applies the reuse rules, like the mix rules: fail fast with
// a clear error rather than misdraw.
func (r Reuse) validate() error {
	if !r.Enabled() {
		return nil
	}
	if math.IsNaN(r.ZipfS) || math.IsInf(r.ZipfS, 0) || r.ZipfS < 0 {
		return fmt.Errorf("serve: reuse Zipf skew %v", r.ZipfS)
	}
	if r.ZipfS <= 1 {
		return fmt.Errorf("serve: reuse Zipf skew %v (must exceed 1)", r.ZipfS)
	}
	if r.Universe <= 0 {
		return fmt.Errorf("serve: reuse universe %d (must be positive)", r.Universe)
	}
	return nil
}

// closed reports whether the load is closed-loop.
func (l Load) closed() bool { return l.Concurrency > 0 }

// traffic is the load's arrival process in the shared generator's
// terms.
func (l Load) traffic() node.Traffic {
	return node.Traffic{
		Rate:        l.Rate,
		Requests:    l.Requests,
		Duration:    l.Duration,
		Seed:        l.Seed,
		Poisson:     l.Poisson,
		Mix:         l.Mix,
		MixSchedule: l.MixSchedule,
		ZipfS:       l.Reuse.ZipfS,
		Universe:    l.Reuse.Universe,
	}
}

func (l Load) validate() error {
	if l.Concurrency < 0 {
		return fmt.Errorf("serve: closed-loop concurrency %d", l.Concurrency)
	}
	if math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) {
		return fmt.Errorf("serve: arrival rate %v", l.Rate)
	}
	if l.closed() {
		if l.Rate < 0 {
			return fmt.Errorf("serve: closed-loop think rate %v", l.Rate)
		}
	} else if l.Rate <= 0 {
		return fmt.Errorf("serve: arrival rate %v", l.Rate)
	}
	if err := l.Reuse.validate(); err != nil {
		return err
	}
	if err := l.traffic().Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// simModel is one registered model's admission accounting inside a
// run; its queue and dispatch tallies live in the node core.
type simModel struct {
	name                      string
	offered, served, rejected int
}

// sim is the state of one Simulate run: the node core's admission
// queues, micro-batching and replica-group scheduling — the policy the
// real Server applies — driven by events on a virtual clock, with the
// front-cache, closed-loop users and the run's accounting around it.
type sim struct {
	backend Backend
	opts    Options
	closed  bool // closed-loop load (Load.Concurrency users)

	events node.Events
	node   *node.Node
	now    time.Duration

	models []*simModel
	mix    []int // registry index of each Traffic.Models() name

	tracer   *Tracer      // nil when tracing is off (emits are no-ops)
	timeline *simTimeline // nil when timeline sampling is off

	gen *node.Gen

	// cache is the memoizing front-cache (nil when Options.Cache is
	// off): arrivals probe it by reuse key before admission, hits
	// complete cacheHitLatency later without touching a replica group,
	// and misses fill it at batch completion.
	cache     *Cache
	cacheHits int

	offered, served, rejected int
	latencies                 node.Latencies
	firstArrival              time.Duration
	lastCompletion            time.Duration
	shardUse                  []ShardUsage

	depthInt   float64 // ∫ queue-depth dt, duration units
	lastDepthT time.Duration
}

// Simulate runs the serving policy against a generated load on a
// deterministic virtual clock. No goroutines, no wall-clock sleeps:
// service times come from Backend.ServiceTime (the analytic
// replica-group estimate) plus Backend.ReloadTime on cold dispatches, so
// hundreds of thousands of Inception-scale requests simulate in a few
// real seconds. The same backend, options and load produce an identical
// LoadReport on every run.
func Simulate(backend Backend, opts Options, load Load) (*LoadReport, error) {
	o, err := opts.withDefaults(backend.System())
	if err != nil {
		return nil, err
	}
	if err := load.validate(); err != nil {
		return nil, err
	}
	if load.closed() && load.Concurrency > o.QueueDepth {
		return nil, fmt.Errorf("serve: closed-loop concurrency %d exceeds queue depth %d",
			load.Concurrency, o.QueueDepth)
	}
	registered := backend.Models()
	names := make([]string, len(registered))
	s := &sim{
		backend:  backend,
		opts:     o,
		closed:   load.closed(),
		gen:      load.traffic().Arrivals(),
		shardUse: make([]ShardUsage, o.Replicas),
		// At most one latency per arrival.
		latencies: node.NewLatencies(load.Requests, false),
	}
	if o.Cache.Enabled() {
		if s.cache, err = NewCache(o.Cache); err != nil {
			return nil, err
		}
	}
	index := make(map[string]int, len(registered))
	for i, m := range registered {
		names[i] = m.Name()
		s.models = append(s.models, &simModel{name: m.Name()})
		index[m.Name()] = i
	}
	// Resolve the mix — including every scheduled shift — against the
	// registry up front, so unknown models fail fast rather than mid-run
	// and arrivals need no lookup.
	for _, name := range load.traffic().Models() {
		m, err := backend.Lookup(name)
		if err != nil {
			return nil, err
		}
		mi, ok := index[m.Name()]
		if !ok {
			return nil, fmt.Errorf("serve: model %q not in backend registry", m.Name())
		}
		s.mix = append(s.mix, mi)
	}
	slices := backend.System().Config().Slices
	for i := range s.shardUse {
		s.shardUse[i].Shard = shardFor(i, slices, o.GroupSize)
	}
	// Observability must attach before plan adoption: the startup
	// pre-stages below are part of the recorded run.
	if o.Trace != nil {
		shards := make([]Shard, o.Replicas)
		for i := range shards {
			shards[i] = s.shardUse[i].Shard
		}
		o.Trace.begin("virtual", names, shards, o.Cache.Enabled())
		s.tracer = o.Trace
	}
	if o.TimelineInterval > 0 {
		s.timeline = newSimTimeline(o.TimelineInterval, o.Replicas)
	}
	s.node = node.New(node.Config{
		Name:      "serve",
		Names:     names,
		Pricer:    backend,
		Groups:    o.Replicas,
		GroupSize: o.GroupSize,
		MaxBatch:  o.MaxBatch,
		Linger:    o.MaxLinger,
		Users:     s.closed,
		Keys:      s.cache != nil,
		Drift:     s.tracer != nil,
	}, &s.events, s)
	if o.Plan != nil {
		var ctrl *plan.Controller
		if o.Replan.Enabled() {
			if ctrl, err = plan.NewController(backend.System(), registered, o.Plan, o.Replan); err != nil {
				return nil, err
			}
		}
		if err := s.node.Adopt(0, o.Plan, ctrl); err != nil {
			return nil, err
		}
	}
	if s.closed {
		// Seed the user population: every user issues its first request
		// from t = 0 (after an initial think when Rate > 0).
		for u := 0; u < load.Concurrency; u++ {
			s.arrive(u, 0)
		}
	} else {
		s.arrive(-1, 0)
	}
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
			err = s.node.Finish(s.now, e.Group)
		}
		if err == nil {
			err = s.node.Dispatch(s.now)
		}
		if err != nil {
			return nil, err
		}
	}
	return s.report(backend, load)
}

// arrive pushes the next generated arrival: the open-loop schedule's
// next one for user -1, else the closed-loop user's next request, a
// think time after from. A spent budget pushes nothing (retiring the
// user).
func (s *sim) arrive(user int, from time.Duration) {
	var at time.Duration
	var draw int
	var key uint64
	var ok bool
	if user < 0 {
		at, draw, key, ok = s.gen.Next()
	} else {
		at, draw, key, ok = s.gen.NextClosed(from)
	}
	if ok {
		s.events.Push(node.Event{At: at, Kind: node.Arrival, Model: s.mix[draw], User: user, Key: key})
	}
}

// syncDepth integrates the queue depth up to the current virtual time;
// call with the depth before every change.
func (s *sim) syncDepth(depth int) {
	s.depthInt += float64(depth) * float64(s.now-s.lastDepthT)
	s.lastDepthT = s.now
}

func (s *sim) onArrival(e *node.Event) {
	m := s.models[e.Model]
	s.offered++
	m.offered++
	if s.offered == 1 {
		s.firstArrival = s.now
	}
	switch {
	case s.cache != nil && s.cache.LookupKey(m.name, e.Key):
		// Front-cache hit: the request completes cacheHitLatency later
		// without entering the queue — it can neither be rejected nor
		// occupy a replica group. The probe cost also keeps a think-free
		// closed loop from resubmitting forever at a frozen instant.
		done := s.now + cacheHitLatency
		s.cacheHits++
		s.served++
		m.served++
		s.latencies.Add(cacheHitLatency, e.Model, 0)
		if done > s.lastCompletion {
			s.lastCompletion = done
		}
		s.tracer.cacheHit(m.name, s.now)
		if s.closed {
			s.arrive(e.User, done)
		}
	case s.node.Depth() >= s.opts.QueueDepth:
		// Unreachable closed-loop: concurrency is validated against the
		// queue depth, so the population can never overfill it.
		s.rejected++
		m.rejected++
		s.tracer.reject(m.name, s.now)
	default:
		s.syncDepth(s.node.Depth())
		s.node.Enqueue(e.Model, s.now, e.User, e.Key)
	}
	if !s.closed {
		s.arrive(-1, 0) // closed-loop arrivals chain off completions
	}
}

func (s *sim) onCompletion(e *node.Event) error {
	if err := s.node.Finish(s.now, e.Group); err != nil {
		return err
	}
	m := s.models[e.Model]
	s.served += len(e.Arrivals)
	m.served += len(e.Arrivals)
	if s.now > s.lastCompletion {
		s.lastCompletion = s.now
	}
	for _, at := range e.Arrivals {
		s.latencies.Add(s.now-at, e.Model, 0)
	}
	// Misses fill the cache on completion, in batch order.
	for _, k := range e.Keys {
		s.cache.InsertKey(m.name, k)
	}
	// Each finished user thinks, then submits its next request.
	for _, u := range e.Users {
		s.arrive(u, s.now)
	}
	return nil
}

// Dispatched schedules a batch's completion and charges the batch to
// its group's usage, trace lanes and timeline (node.Driver).
func (s *sim) Dispatched(n *node.Node, b node.Batch) {
	occupancy := b.Service + b.Reload
	s.events.Push(node.Event{At: b.At + occupancy, Kind: node.Completion, Model: b.Model, Group: b.Group,
		Arrivals: b.Arrivals, Users: b.Users, Keys: b.Keys})
	s.syncDepth(n.Depth() + b.Size)
	u := &s.shardUse[b.Group]
	u.Batches++
	u.Requests += b.Size
	u.Busy += occupancy
	if !b.Warm {
		u.Reloads++
	}
	if s.tracer != nil {
		name := s.models[b.Model].name
		for _, at := range b.Arrivals {
			s.tracer.queued(name, at, b.At, n.Batches)
		}
		s.tracer.batch(b.Group, name, b.Size, !b.Warm, n.Batches, b.At, b.Service, b.Reload)
	}
	s.timeline.charge(b.Group, b.At, occupancy)
}

// Replanning marks a controller re-plan on the control lane, before its
// restage spans (node.Driver).
func (s *sim) Replanning(n *node.Node, at time.Duration, drift float64, restages int) {
	s.tracer.replan(at, n.Replans+1, drift, restages)
}

// Restaged charges a planner restage to its group (node.Driver).
func (s *sim) Restaged(_ *node.Node, op node.Op, at time.Duration) {
	u := &s.shardUse[op.Group]
	u.Restages++
	u.Busy += op.Cost
	from := ""
	if op.From >= 0 {
		from = s.models[op.From].name
	}
	s.tracer.restage(op.Group, s.models[op.Model].name, from, at, op.Cost)
	s.timeline.charge(op.Group, at, op.Cost)
}

func (s *sim) report(backend Backend, load Load) (*LoadReport, error) {
	n := s.node
	r := &LoadReport{
		Backend:     backend.Name(),
		Model:       modelList(backend),
		Replicas:    s.opts.Replicas,
		MaxBatch:    s.opts.MaxBatch,
		MaxLinger:   s.opts.MaxLinger,
		QueueDepth:  s.opts.QueueDepth,
		Concurrency: load.Concurrency,
		Virtual:     true,
		Offered:     s.offered,
		Served:      s.served,
		Rejected:    s.rejected,
		Batches:     n.Batches,

		WarmDispatches: n.Warm,
		ColdDispatches: n.Cold,

		MaxQueueDepth: n.MaxDepth(),
		PerShard:      s.shardUse,

		Plan:     n.Plan(),
		Restages: n.Restages,
		Replans:  n.Replans,
	}
	if s.opts.GroupSize > 1 {
		r.GroupSize = s.opts.GroupSize
	}
	if n.Batches > 0 {
		r.MeanBatch = float64(n.Batched) / float64(n.Batches)
	}
	var cacheStats map[string]CacheStats
	if s.cache != nil {
		cs := s.cache.Stats()
		r.CacheHits = cs.Hits
		r.CacheMisses = cs.Misses
		r.CacheInserts = cs.Inserts
		r.CacheEvictions = cs.Evictions
		if probes := cs.Hits + cs.Misses; probes > 0 {
			r.CacheHitRate = float64(cs.Hits) / float64(probes)
		}
		cacheStats = s.cache.ModelStats()
	}
	lat, _ := s.latencies.Split(len(s.models), 0)
	perModelLat := make(map[string][]time.Duration, len(s.models))
	for mi, m := range s.models {
		t := n.Models[mi]
		mu := ModelUsage{
			Model:       m.name,
			Offered:     m.offered,
			Served:      m.served,
			Rejected:    m.rejected,
			Batches:     t.Warm + t.Cold,
			WarmBatches: t.Warm,
			ColdBatches: t.Cold,
		}
		if cs, ok := cacheStats[m.name]; ok {
			mu.CacheHits = cs.Hits
			mu.CacheMisses = cs.Misses
			if probes := cs.Hits + cs.Misses; probes > 0 {
				mu.CacheHitRate = float64(cs.Hits) / float64(probes)
			}
		}
		r.PerModel = append(r.PerModel, mu)
		perModelLat[m.name] = lat[mi]
	}
	if s.timeline != nil {
		// s.now is the final event's time (≥ last completion: trailing
		// restages included), so the closing sample catches every
		// counter increment and windowed sums equal the run totals.
		r.Timeline = s.timeline.finish(s.now, s)
	}
	makespan := s.lastCompletion - s.firstArrival
	r.Makespan = makespan
	if makespan > 0 {
		r.ThroughputPerSec = float64(s.served) / makespan.Seconds()
		r.MeanQueueDepth = s.depthInt / float64(makespan)
	}
	if err := r.finish(backend, s.latencies.All, perModelLat, makespan); err != nil {
		return nil, err
	}
	return r, nil
}

// modelList joins the backend's registered model names for the report
// header.
func modelList(backend Backend) string {
	return joinModelNames(backend.Models(), ",")
}

package serve

import (
	"fmt"
	"io"
	"time"

	"neuralcache/obs"
)

// Trace lane layout: the control lane (re-plan instants) is tid 0,
// per-model admission-queue lanes follow in registration order, then
// one lane per replica group in ordinal order.
const (
	traceControlTid   = 0
	traceQueueBaseTid = 1
)

// Tracer records one load run's full request lifecycle as Chrome trace
// events: per-request queue spans (admission → dispatch) on one lane
// per model, per-batch service spans — warm or cold, with a reload
// sub-span followed by a service sub-span on cold dispatches — on one
// lane per replica group, restage spans for planner-driven weight
// stagings, and instants for queue-full rejections and controller
// re-plans.
//
// Attach one with Options.Trace, then write it out with WriteJSON and
// load the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Simulate stamps the virtual clock, so the same backend, options and
// load serialize a byte-identical trace on every run and at every
// worker count; Server/LoadTest stamp wall-clock offsets from the
// server's start. A Tracer records a single run — do not share one
// across runs (lane metadata would duplicate). A nil *Tracer is a
// valid no-op, so instrumented code paths need no guards.
type Tracer struct {
	trace obs.Trace

	// Lane tables, built by begin before any event is emitted and
	// read-only afterwards (the server's executor goroutines read them
	// concurrently).
	queueTid  map[string]int
	groupBase int
	// cacheTid is the front-cache lane (hit instants), after the group
	// lanes; 0 when the run has no cache.
	cacheTid int
}

// NewTracer returns an empty single-run tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.trace.Len()
}

// Events returns a copy of the recorded events in emission order.
func (t *Tracer) Events() []obs.Event {
	if t == nil {
		return nil
	}
	return t.trace.Events()
}

// WriteJSON writes the recorded run in the Chrome trace-event JSON
// format, viewable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("serve: WriteJSON on a nil Tracer")
	}
	return t.trace.WriteJSON(w)
}

// begin declares the run's lanes: process metadata, the control lane,
// one queue lane per registered model, one lane per replica group and —
// when the run has a front-cache — a cache lane for hit instants.
// Called once by the driver before any event is emitted.
func (t *Tracer) begin(clock string, models []string, shards []Shard, cached bool) {
	if t == nil {
		return
	}
	lane := func(tid int, name string) {
		t.trace.Emit(obs.Event{Name: "thread_name", Phase: obs.PhaseMetadata,
			Tid: tid, Args: &obs.Args{Name: name}})
	}
	t.trace.Emit(obs.Event{Name: "process_name", Phase: obs.PhaseMetadata,
		Args: &obs.Args{Name: "neuralcache/serve (" + clock + " clock)"}})
	lane(traceControlTid, "control")
	t.queueTid = make(map[string]int, len(models))
	for i, m := range models {
		t.queueTid[m] = traceQueueBaseTid + i
		lane(traceQueueBaseTid+i, "queue "+m)
	}
	t.groupBase = traceQueueBaseTid + len(models)
	for g, sh := range shards {
		lane(t.groupBase+g, "group "+sh.String())
	}
	if cached {
		t.cacheTid = t.groupBase + len(shards)
		lane(t.cacheTid, "front-cache")
	}
}

// cacheHit records a front-cache hit at admission: an instant on the
// model's queue lane (where the absorbed request would have queued) and
// on the cache lane.
func (t *Tracer) cacheHit(model string, at time.Duration) {
	if t == nil {
		return
	}
	t.trace.Emit(obs.Event{Name: "cache hit", Cat: "cache", Phase: obs.PhaseInstant,
		Ts: obs.Micros(at), Tid: t.queueTid[model], Scope: "t", Cname: "good"})
	t.trace.Emit(obs.Event{Name: model, Cat: "cache", Phase: obs.PhaseInstant,
		Ts: obs.Micros(at), Tid: t.cacheTid, Scope: "t", Cname: "good",
		Args: &obs.Args{Model: model}})
}

// reject records a queue-full rejection on the model's queue lane.
func (t *Tracer) reject(model string, at time.Duration) {
	if t == nil {
		return
	}
	t.trace.Emit(obs.Event{Name: "reject", Cat: "admission", Phase: obs.PhaseInstant,
		Ts: obs.Micros(at), Tid: t.queueTid[model], Scope: "t", Cname: "terrible"})
}

// cancel records a request dropped at dispatch because its context
// expired while queued (wall-clock servers only).
func (t *Tracer) cancel(model string, at time.Duration) {
	if t == nil {
		return
	}
	t.trace.Emit(obs.Event{Name: "canceled", Cat: "admission", Phase: obs.PhaseInstant,
		Ts: obs.Micros(at), Tid: t.queueTid[model], Scope: "t"})
}

// queued records one request's admission→dispatch wait on its model's
// queue lane, tagged with the batch ordinal it dispatched into.
func (t *Tracer) queued(model string, arrival, dispatch time.Duration, batchSeq int) {
	if t == nil {
		return
	}
	t.trace.Emit(obs.Event{Name: "queued", Cat: "queue", Phase: obs.PhaseComplete,
		Ts: obs.Micros(arrival), Dur: obs.Micros(dispatch - arrival),
		Tid: t.queueTid[model], Args: &obs.Args{Seq: batchSeq}})
}

// batch records a dispatched batch's span on its group's lane: the
// whole occupancy (reload + service) as one span, with cold dispatches
// carrying a reload sub-span followed by a service sub-span.
func (t *Tracer) batch(group int, model string, n int, cold bool, seq int, start, service, reload time.Duration) {
	if t == nil {
		return
	}
	cname := "good"
	if cold {
		cname = "bad"
	}
	t.trace.Emit(obs.Event{Name: fmt.Sprintf("%s ×%d", model, n),
		Cat: "batch", Phase: obs.PhaseComplete,
		Ts: obs.Micros(start), Dur: obs.Micros(reload + service),
		Tid: t.groupBase + group, Cname: cname,
		Args: &obs.Args{Model: model, Batch: n, Seq: seq, Cold: cold}})
	if cold && reload > 0 {
		t.trace.Emit(obs.Event{Name: "reload", Cat: "reload", Phase: obs.PhaseComplete,
			Ts: obs.Micros(start), Dur: obs.Micros(reload),
			Tid: t.groupBase + group, Cname: "terrible", Args: &obs.Args{Model: model}})
		t.trace.Emit(obs.Event{Name: "service", Cat: "service", Phase: obs.PhaseComplete,
			Ts: obs.Micros(start + reload), Dur: obs.Micros(service),
			Tid: t.groupBase + group})
	}
}

// restage records a planner-driven weight staging on the group's lane.
// from is the model the staging evicted ("" when the group held none).
func (t *Tracer) restage(group int, model, from string, start, dur time.Duration) {
	if t == nil {
		return
	}
	t.trace.Emit(obs.Event{Name: "restage " + model, Cat: "restage", Phase: obs.PhaseComplete,
		Ts: obs.Micros(start), Dur: obs.Micros(dur),
		Tid: t.groupBase + group, Cname: "terrible",
		Args: &obs.Args{Model: model, From: from}})
}

// replan records an applied controller re-plan on the control lane.
// drift is the total-variation distance that triggered it, restages
// how many group restages the re-plan ordered.
func (t *Tracer) replan(at time.Duration, nth int, drift float64, restages int) {
	if t == nil {
		return
	}
	t.trace.Emit(obs.Event{Name: "replan", Cat: "control", Phase: obs.PhaseInstant,
		Ts: obs.Micros(at), Tid: traceControlTid, Scope: "t", Cname: "bad",
		Args: &obs.Args{Seq: nth, Drift: drift, Restages: restages}})
}

// simTimeline samples a Simulate run's time series on the virtual
// clock. The simulator calls advance with each event's time before
// processing it, so a boundary is sampled against the piecewise-
// constant state just before the first event after it — a boundary
// coinciding exactly with an event samples after that event's effects
// (the right-limit), which is what lets finish close the books: it
// samples every remaining boundary through the run's final event and
// adds a shorter final window when the run ends off-boundary, so every
// windowed counter sums to the run's total. All arithmetic is integer
// or exact-division float64, so the sampled timeline is
// byte-deterministic like the rest of the simulator. A nil
// *simTimeline is a valid no-op.
type simTimeline struct {
	interval time.Duration
	next     time.Duration // next boundary to sample
	samples  []obs.TimelinePoint

	// Counter snapshot at the previous sample, for windowed deltas.
	offered, served, rejected int
	warm, cold                int
	restages, replans         int
	cacheHits                 int

	// Per-group busy accounting. Each claim charges its whole busy
	// interval up front (the simulator knows both endpoints at claim
	// time): cumBusy accumulates charged lengths, busyUntil holds the
	// current interval's end. The busy time realized by time t is
	// cumBusy − max(0, busyUntil−t); realized keeps its value at the
	// previous boundary so a window's busy time is the difference.
	cumBusy   []time.Duration
	busyUntil []time.Duration
	realized  []time.Duration
}

func newSimTimeline(interval time.Duration, groups int) *simTimeline {
	return &simTimeline{
		interval:  interval,
		next:      interval,
		samples:   []obs.TimelinePoint{},
		cumBusy:   make([]time.Duration, groups),
		busyUntil: make([]time.Duration, groups),
		realized:  make([]time.Duration, groups),
	}
}

// charge records a group's busy interval [start, start+dur): a batch's
// reload+service occupancy or a planner restage. Intervals on one
// group never overlap — the group is claimed for their whole length.
func (tl *simTimeline) charge(group int, start, dur time.Duration) {
	if tl == nil {
		return
	}
	tl.cumBusy[group] += dur
	tl.busyUntil[group] = start + dur
}

// advance samples every boundary strictly before now (a boundary equal
// to now waits for now's events to apply first).
func (tl *simTimeline) advance(now time.Duration, s *sim) {
	if tl == nil {
		return
	}
	for tl.next < now {
		tl.sample(tl.next, tl.interval, s)
		tl.next += tl.interval
	}
}

// finish samples through end — the run's final event time, inclusive,
// so that event's counters are captured — closing with a shorter final
// window when the run does not end on a boundary.
func (tl *simTimeline) finish(end time.Duration, s *sim) *obs.Timeline {
	for tl.next <= end {
		tl.sample(tl.next, tl.interval, s)
		tl.next += tl.interval
	}
	if prev := tl.next - tl.interval; end > prev {
		tl.sample(end, end-prev, s)
	}
	return &obs.Timeline{Interval: tl.interval, Samples: tl.samples}
}

func (tl *simTimeline) sample(at, width time.Duration, s *sim) {
	n := s.node
	p := obs.TimelinePoint{
		T:              at,
		QueueDepth:     n.Depth(),
		Offered:        s.offered - tl.offered,
		Served:         s.served - tl.served,
		Rejected:       s.rejected - tl.rejected,
		WarmDispatches: n.Warm - tl.warm,
		ColdDispatches: n.Cold - tl.cold,
		Restages:       n.Restages - tl.restages,
		Replans:        n.Replans - tl.replans,
		CacheHits:      s.cacheHits - tl.cacheHits,
		GroupUtil:      make([]float64, len(tl.cumBusy)),
	}
	for g := range tl.cumBusy {
		if tl.busyUntil[g] > at {
			p.BusyGroups++
		}
		realized := tl.cumBusy[g]
		if over := tl.busyUntil[g] - at; over > 0 {
			realized -= over
		}
		p.GroupUtil[g] = float64(realized-tl.realized[g]) / float64(width)
		tl.realized[g] = realized
	}
	if ctrl := n.Controller(); ctrl != nil {
		p.MixDrift = ctrl.Drift()
	}
	tl.offered, tl.served, tl.rejected = s.offered, s.served, s.rejected
	tl.warm, tl.cold = n.Warm, n.Cold
	tl.restages, tl.replans = n.Restages, n.Replans
	tl.cacheHits = s.cacheHits
	tl.samples = append(tl.samples, p)
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"neuralcache"
	"neuralcache/cluster"
	"neuralcache/obs"
	"neuralcache/serve"
)

// Process lanes of the trace file, one per workload plus one for the
// direct layer probes.
const (
	pidBitExact = 1 + iota
	pidSimNode
	pidSimFleet
	pidProbes
)

// recorder keeps the benchmark's own spans: every call into a layer
// that the traced run times becomes a Chrome trace event stamped with
// its wall-clock offset from the recorder's start. Spans stay in memory
// until the run ends. A nil *recorder records nothing, so the untraced
// run pays no more than a nil check.
type recorder struct {
	trace obs.Trace
	start time.Time
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// process names a process lane.
func (r *recorder) process(pid int, name string) {
	if r != nil {
		r.trace.Emit(obs.Event{Name: "process_name", Phase: obs.PhaseMetadata,
			Pid: pid, Args: &obs.Args{Name: name}})
	}
}

// thread names one lane of a process.
func (r *recorder) thread(pid, tid int, name string) {
	if r != nil {
		r.trace.Emit(obs.Event{Name: "thread_name", Phase: obs.PhaseMetadata,
			Pid: pid, Tid: tid, Args: &obs.Args{Name: name}})
	}
}

// span records [from, from+d) on a lane.
func (r *recorder) span(pid, tid int, name string, from time.Time, d time.Duration, args *obs.Args) {
	if r != nil {
		r.trace.Emit(obs.Event{Name: name, Cat: "bench", Phase: obs.PhaseComplete,
			Ts: obs.Micros(from.Sub(r.start)), Dur: obs.Micros(d), Pid: pid, Tid: tid, Args: args})
	}
}

// writeFile serializes the spans for Perfetto (ui.perfetto.dev).
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.trace.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleEvery is the sampling period of high-rate calls: one call in
// sampleEvery is timed, so calls that cost tens of nanoseconds are not
// swamped by the clock reads that measure them.
const sampleEvery = 16

// sampledTimer counts calls and times every sampleEvery-th one.
type sampledTimer struct {
	calls, sampled, ns atomic.Int64
}

// begin counts one call and reports whether to time it.
func (s *sampledTimer) begin() bool { return s.calls.Add(1)%sampleEvery == 0 }

// done records the timed call that started at t0.
func (s *sampledTimer) done(t0 time.Time) {
	s.ns.Add(int64(time.Since(t0)))
	s.sampled.Add(1)
}

// meanNs is the mean duration of the timed calls.
func (s *sampledTimer) meanNs() float64 {
	if n := s.sampled.Load(); n > 0 {
		return float64(s.ns.Load()) / float64(n)
	}
	return 0
}

func (s *sampledTimer) reset() {
	s.calls.Store(0)
	s.sampled.Store(0)
	s.ns.Store(0)
}

// tracedBackend measures the serve layer from outside a serve.Backend:
// it counts and sample-times the ServiceTime and ReloadTime pricing
// that Simulate consults on every dispatch, and times every Execute
// batch (the bit-exact engine's work) as a span. lane, when set, maps
// an input tensor to the trace lane and request id that submitted it,
// so a request's span and its batch's execute span share the id.
type tracedBackend struct {
	serve.Backend
	rec     *recorder
	pricing sampledTimer

	execNs, execReqs, batches atomic.Int64
	lane                      func(in *neuralcache.Tensor) (tid, id int, ok bool)
}

// ServiceTime implements serve.Backend.
func (b *tracedBackend) ServiceTime(model string, n, groupSize int) (time.Duration, error) {
	if !b.pricing.begin() {
		return b.Backend.ServiceTime(model, n, groupSize)
	}
	t0 := time.Now()
	d, err := b.Backend.ServiceTime(model, n, groupSize)
	b.pricing.done(t0)
	return d, err
}

// ReloadTime implements serve.Backend.
func (b *tracedBackend) ReloadTime(model string, groupSize int) (time.Duration, error) {
	if !b.pricing.begin() {
		return b.Backend.ReloadTime(model, groupSize)
	}
	t0 := time.Now()
	d, err := b.Backend.ReloadTime(model, groupSize)
	b.pricing.done(t0)
	return d, err
}

// Execute implements serve.Backend.
func (b *tracedBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	t0 := time.Now()
	out, err := b.Backend.Execute(ctx, model, inputs, cold, groupSize)
	d := time.Since(t0)
	b.execNs.Add(int64(d))
	b.execReqs.Add(int64(len(inputs)))
	seq := int(b.batches.Add(1))
	b.rec.span(pidBitExact, 0, "execute "+model, t0, d,
		&obs.Args{Model: model, Batch: len(inputs), Seq: seq, Cold: cold})
	if b.lane != nil {
		for _, in := range inputs {
			if tid, id, ok := b.lane(in); ok {
				b.rec.span(pidBitExact, tid, "execute", t0, d, &obs.Args{Model: model, Seq: id})
			}
		}
	}
	return out, err
}

// tracedRouter measures cluster routing from outside a cluster.Router:
// it counts Pick calls and sample-times them.
type tracedRouter struct {
	cluster.Router
	picks sampledTimer
}

// Pick implements cluster.Router.
func (r *tracedRouter) Pick(model string, views []cluster.NodeView) int {
	if !r.picks.begin() {
		return r.Router.Pick(model, views)
	}
	t0 := time.Now()
	i := r.Router.Pick(model, views)
	r.picks.done(t0)
	return i
}

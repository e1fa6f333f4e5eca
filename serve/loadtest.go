package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"neuralcache"
	"neuralcache/obs"
)

// wallTimeline samples a running Server's time series on a wall-clock
// ticker — the LoadTest counterpart of the simulator's virtual-clock
// simTimeline. Counter fields are windowed by differencing Stats
// snapshots; depth and occupancy are read live. Unlike the virtual
// sampler it cannot integrate busy time exactly: a group's busy is
// charged when its batch completes, so a window's GroupUtil can exceed
// 1 when a long batch lands in it (the Timeline docs call this out).
type wallTimeline struct {
	srv      *Server
	interval time.Duration
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	samples  []obs.TimelinePoint
	prev     Stats
	lastT    time.Duration
}

// startWallTimeline snapshots the server and starts the sampling
// goroutine; finish stops it and returns the series.
func startWallTimeline(srv *Server, interval time.Duration) *wallTimeline {
	tl := &wallTimeline{
		srv:      srv,
		interval: interval,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		prev:     srv.Stats(),
	}
	go tl.run()
	return tl
}

func (tl *wallTimeline) run() {
	defer close(tl.done)
	ticker := time.NewTicker(tl.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			tl.sample(time.Since(tl.start))
		case <-tl.stop:
			// Close with the partial window so windowed counters sum to
			// the run's totals, like the simulator's final sample.
			if t := time.Since(tl.start); t > tl.lastT {
				tl.sample(t)
			}
			return
		}
	}
}

func (tl *wallTimeline) sample(at time.Duration) {
	cur := tl.srv.Stats()
	width := at - tl.lastT
	p := obs.TimelinePoint{
		T:              at,
		QueueDepth:     tl.srv.QueueDepth(),
		BusyGroups:     tl.srv.BusyGroups(),
		Offered:        int(cur.Submitted-tl.prev.Submitted) + int(cur.Rejected-tl.prev.Rejected),
		Served:         int(cur.Served - tl.prev.Served),
		Rejected:       int(cur.Rejected - tl.prev.Rejected),
		WarmDispatches: int(cur.WarmBatches - tl.prev.WarmBatches),
		ColdDispatches: int(cur.ColdBatches - tl.prev.ColdBatches),
		Restages:       int(cur.Restages - tl.prev.Restages),
		Replans:        int(cur.Replans - tl.prev.Replans),
		CacheHits:      int(cur.CacheHits - tl.prev.CacheHits),
		GroupUtil:      make([]float64, len(cur.PerShard)),
	}
	if width > 0 {
		for g := range cur.PerShard {
			busy := cur.PerShard[g].Busy
			if g < len(tl.prev.PerShard) {
				busy -= tl.prev.PerShard[g].Busy
			}
			p.GroupUtil[g] = float64(busy) / float64(width)
		}
	}
	if ctrl := tl.srv.Controller(); ctrl != nil {
		p.MixDrift = ctrl.Drift()
	}
	tl.prev = cur
	tl.lastT = at
	tl.samples = append(tl.samples, p)
}

func (tl *wallTimeline) finish() *obs.Timeline {
	close(tl.stop)
	<-tl.done
	return &obs.Timeline{Interval: tl.interval, Samples: tl.samples}
}

// loadResults is the wall-clock accounting both LoadTest drivers (open-
// and closed-loop) fill: arrival and completion tallies, latency samples
// and the makespan endpoints, all guarded by mu.
type loadResults struct {
	mu           sync.Mutex
	latencies    []time.Duration
	perModelLat  map[string][]time.Duration
	perModel     map[string]*ModelUsage
	offered      int
	rejected     int
	firstArrival time.Time
	lastDone     time.Time
}

func newLoadResults() *loadResults {
	return &loadResults{
		perModelLat: make(map[string][]time.Duration),
		perModel:    make(map[string]*ModelUsage),
	}
}

// usage returns the (lazily created) per-model row; callers hold mu.
func (lr *loadResults) usage(model string) *ModelUsage {
	u := lr.perModel[model]
	if u == nil {
		u = &ModelUsage{Model: model}
		lr.perModel[model] = u
	}
	return u
}

// arrival records one offered request of the model at time now.
func (lr *loadResults) arrival(model string, now time.Time) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.firstArrival.IsZero() {
		lr.firstArrival = now
	}
	lr.offered++
	lr.usage(model).Offered++
}

// reject records one queue-full rejection of the model (open-loop only).
func (lr *loadResults) reject(model string) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.rejected++
	lr.usage(model).Rejected++
}

// done records a completed response's latency sample (failures carry no
// sample, matching the simulator's served accounting).
func (lr *loadResults) done(r *Response) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if r.Err != nil {
		return
	}
	lr.latencies = append(lr.latencies, r.Latency)
	lr.perModelLat[r.Model] = append(lr.perModelLat[r.Model], r.Latency)
	if done := time.Now(); done.After(lr.lastDone) {
		lr.lastDone = done
	}
}

// LoadTest drives a freshly started Server with the arrival process
// described by load, in wall-clock time.
//
// Open-loop (the default): arrivals follow their own schedule; ones that
// find the admission queue full are rejected and counted, exactly like
// Simulate's. Closed-loop (Load.Concurrency > 0): that many user
// goroutines each keep one request in flight, blocking in Submit and
// thinking a mean 1/Rate between completion and resubmission (0 = no
// think), so nothing is ever rejected — the regime that measures latency
// under admission control rather than saturation.
//
// Each arrival targets the model drawn from load.Mix ("" or an empty mix
// = the backend's default). inputs, when non-nil, supplies the tensor
// for the i-th arrival (0-based) of the named model — required for a
// bit-exact backend; nil submits input-less requests, which the analytic
// backend serves on modeled time (and which a front-cache, keyed on
// input bytes, cannot absorb). Under Load.Reuse, i is the arrival's
// Zipf-drawn reuse key instead of its ordinal, so repeated keys
// resubmit the identical tensor and Options.Cache sees genuine repeat
// traffic. LoadTest waits for every admitted request to complete and
// leaves the server running.
func LoadTest(srv *Server, load Load, inputs func(i int, model string) *neuralcache.Tensor) (*LoadReport, error) {
	if err := load.validate(); err != nil {
		return nil, err
	}
	// Resolve every mix entry — including scheduled shifts — to its
	// registered name up front, so unknown models fail fast and arrivals
	// need no lookup. "" becomes the default model's name, so per-model
	// accounting lines up with Response.Model.
	models := load.traffic().Models()
	for i, name := range models {
		m, err := srv.backend.Lookup(name)
		if err != nil {
			return nil, err
		}
		models[i] = m.Name()
	}
	o := srv.Options()
	if load.closed() && load.Concurrency > o.QueueDepth {
		return nil, fmt.Errorf("serve: closed-loop concurrency %d exceeds queue depth %d",
			load.Concurrency, o.QueueDepth)
	}
	before := srv.Stats()
	var sampler *wallTimeline
	if o.TimelineInterval > 0 {
		sampler = startWallTimeline(srv, o.TimelineInterval)
	}
	results := newLoadResults()
	var err error
	if load.closed() {
		err = closedLoop(srv, load, models, inputs, results)
	} else {
		err = openLoop(srv, load, models, inputs, results)
	}
	var timeline *obs.Timeline
	if sampler != nil {
		timeline = sampler.finish()
	}
	if err != nil {
		return nil, err
	}

	after := srv.Stats()
	rep := &LoadReport{
		Backend:     srv.backend.Name(),
		Model:       modelList(srv.backend),
		Replicas:    o.Replicas,
		MaxBatch:    o.MaxBatch,
		MaxLinger:   o.MaxLinger,
		QueueDepth:  o.QueueDepth,
		Concurrency: load.Concurrency,
		Offered:     results.offered,
		Served:      len(results.latencies),
		Rejected:    results.rejected,
		Batches:     int(after.Batches - before.Batches),

		WarmDispatches: int(after.WarmBatches - before.WarmBatches),
		ColdDispatches: int(after.ColdBatches - before.ColdBatches),

		CacheHits:      int(after.CacheHits - before.CacheHits),
		CacheMisses:    int(after.CacheMisses - before.CacheMisses),
		CacheInserts:   int(after.CacheInserts - before.CacheInserts),
		CacheEvictions: int(after.CacheEvictions - before.CacheEvictions),

		// MaxQueueDepth is the server-lifetime high-water (a max cannot
		// be windowed); the mean is differenced to this run's admissions.
		MaxQueueDepth: after.QueueHighWater,

		Plan:     srv.Plan(),
		Restages: int(after.Restages - before.Restages),
		Replans:  int(after.Replans - before.Replans),
		Timeline: timeline,
	}
	if o.GroupSize > 1 {
		rep.GroupSize = o.GroupSize
	}
	if n := after.DepthSamples - before.DepthSamples; n > 0 {
		rep.MeanQueueDepth = float64(after.DepthSum-before.DepthSum) / float64(n)
	}
	if rep.Batches > 0 {
		// Cache hits never ride a batch, so the mean batch size covers
		// the dispatched (miss) traffic only.
		rep.MeanBatch = float64(rep.Served-rep.CacheHits) / float64(rep.Batches)
	}
	if n := rep.CacheHits + rep.CacheMisses; n > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(n)
	}
	if !results.lastDone.IsZero() {
		rep.Makespan = results.lastDone.Sub(results.firstArrival)
	}
	if rep.Makespan > 0 {
		rep.ThroughputPerSec = float64(rep.Served) / rep.Makespan.Seconds()
	}
	// One per-model row per registered model in registration order,
	// zero-traffic residents included — the same inclusion rule as
	// Simulate, so JSON consumers can index rows identically.
	for _, m := range srv.backend.Models() {
		u := results.perModel[m.Name()]
		if u == nil {
			u = &ModelUsage{Model: m.Name()}
		}
		u.Served = len(results.perModelLat[m.Name()])
		bc, ac := before.PerModel[m.Name()], after.PerModel[m.Name()]
		u.Batches = int(ac.Batches - bc.Batches)
		u.WarmBatches = int(ac.WarmBatches - bc.WarmBatches)
		u.ColdBatches = int(ac.ColdBatches - bc.ColdBatches)
		u.CacheHits = int(ac.CacheHits - bc.CacheHits)
		u.CacheMisses = int(ac.CacheMisses - bc.CacheMisses)
		if n := u.CacheHits + u.CacheMisses; n > 0 {
			u.CacheHitRate = float64(u.CacheHits) / float64(n)
		}
		rep.PerModel = append(rep.PerModel, *u)
	}
	rep.PerShard = diffShards(before.PerShard, after.PerShard)
	if err := rep.finish(srv.backend, results.latencies, results.perModelLat, rep.Makespan); err != nil {
		return nil, err
	}
	return rep, nil
}

// openLoop replays the open-loop schedule against the server in wall
// clock: sleep to each generated arrival offset, TrySubmit (full queue =
// counted rejection), collect completions asynchronously. models holds
// the registered name of each Traffic.Models() entry.
func openLoop(srv *Server, load Load, models []string, inputs func(i int, model string) *neuralcache.Tensor, results *loadResults) error {
	gen := load.traffic().Arrivals()
	start := time.Now()
	ctx := context.Background()
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; ; i++ {
		at, draw, key, ok := gen.Next()
		if !ok {
			return nil
		}
		name := models[draw]
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		var in *neuralcache.Tensor
		if inputs != nil {
			if load.Reuse.Enabled() {
				in = inputs(int(key), name)
			} else {
				in = inputs(i, name)
			}
		}
		results.arrival(name, time.Now())
		ch, err := srv.TrySubmitModel(ctx, name, in)
		if err == ErrQueueFull {
			results.reject(name)
			continue
		}
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results.done(<-ch)
		}()
	}
}

// closedLoop runs Load.Concurrency user goroutines against the server,
// each keeping exactly one request in flight: draw its next arrival from
// the load's generator as Simulate does (NextClosed: a think time after
// the user's last completion, the model and the reuse key), sleep to
// it, Submit (blocking — admission control is the population cap, so
// nothing is rejected), wait for completion, repeat. The generator
// meters the Requests budget and the Duration window, and users draw
// from it under a mutex in completion order, so the wall-clock run is
// as reproducible as real sleeps allow. models is as for openLoop.
func closedLoop(srv *Server, load Load, models []string, inputs func(i int, model string) *neuralcache.Tensor, results *loadResults) error {
	gen := load.traffic().Arrivals()
	var genMu sync.Mutex
	start := time.Now()
	var failed atomic.Bool
	errs := make(chan error, load.Concurrency)
	var wg sync.WaitGroup
	ctx := context.Background()
	for u := 0; u < load.Concurrency; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One user's failure ends the whole run (matching the
			// open-loop driver's first-error abort) instead of the
			// surviving users burning the remaining budget.
			for !failed.Load() {
				genMu.Lock()
				at, draw, key, ok := gen.NextClosed(time.Since(start))
				genMu.Unlock()
				if !ok {
					return
				}
				time.Sleep(time.Until(start.Add(at)))
				name := models[draw]
				var in *neuralcache.Tensor
				if inputs != nil {
					i := int(key) - 1 // without reuse, the key is the 1-based arrival ordinal
					if load.Reuse.Enabled() {
						i = int(key)
					}
					in = inputs(i, name)
				}
				results.arrival(name, time.Now())
				r, err := srv.SubmitModel(ctx, name, in)
				if r == nil {
					// Admission-level failure (closed server, bad input);
					// a served response with a batch error still counts
					// as this user's turn.
					failed.Store(true)
					errs <- err
					return
				}
				results.done(r)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// diffShards subtracts a prior occupancy snapshot so a LoadTest on a
// reused server reports only its own traffic.
func diffShards(before, after []ShardUsage) []ShardUsage {
	out := append([]ShardUsage(nil), after...)
	for i := range out {
		if i < len(before) {
			out[i].Batches -= before[i].Batches
			out[i].Requests -= before[i].Requests
			out[i].Busy -= before[i].Busy
			out[i].Reloads -= before[i].Reloads
			out[i].Restages -= before[i].Restages
		}
		out[i].Utilization = 0
	}
	return out
}

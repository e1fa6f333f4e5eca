package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"neuralcache"
	"neuralcache/obs"
	"neuralcache/serve"
)

// serve-bitexact drives a serve.Server running the bit-exact backend in
// a closed loop: one load goroutine keeps bxWindow requests outstanding
// and submits the next one the moment a response returns. With one
// replica group and bxWindow = 2·bxMaxBatch, one batch executes while
// the next waits in the queue, so batches form from the queue rather
// than from linger timers, and each request's latency spans several
// executions, which steadies its tail.
const (
	bxWindow   = 8 // outstanding requests
	bxMaxBatch = 4
	bxGroups   = 1 // replica groups scheduled: a constant below nproc, so GC and the load goroutine keep a core
	bxPool     = 8 // pooled inputs per model
)

// bxModels is the request mix, skewed toward SmallCNN: each block of 20
// requests holds exactly these counts in a seeded order, so every run
// and every seed serves the same proportions. The weights are fixed:
// they belong to the program, not to its inputs.
var bxModels = []struct {
	name   string
	build  func() *neuralcache.Model
	weight int64
	count  int
}{
	{"small", neuralcache.SmallCNN, 7, 12},
	{"int4", neuralcache.Int4CNN, 11, 5},
	{"wide", neuralcache.WideCNN, 13, 3},
}

// bitExact holds the seeded input pool and its reference outputs,
// computed by Model.RunReference before any timed construction.
type bitExact struct {
	seed  int64
	t     *tally
	names []string                         // model names, in bxModels order
	pool  [][]*neuralcache.Tensor          // per model
	refs  [][]*neuralcache.InferenceResult // per model, parallel to pool
}

func newBitExact(seed int64, t *tally) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &bitExact{seed: seed, t: t}
	for _, bm := range bxModels {
		m := bm.build()
		m.InitWeights(bm.weight)
		h, wd, c := m.InputShape()
		var pool []*neuralcache.Tensor
		var refs []*neuralcache.InferenceResult
		for i := 0; i < bxPool; i++ {
			in := neuralcache.NewTensor(h, wd, c, 1.0/255)
			for j := range in.Data {
				in.Data[j] = uint8(rng.Intn(256))
			}
			ref, err := m.RunReference(in)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", m.Name(), err)
			}
			pool = append(pool, in)
			refs = append(refs, ref)
		}
		w.names = append(w.names, m.Name())
		w.pool = append(w.pool, pool)
		w.refs = append(w.refs, refs)
	}
	return w, nil
}

// matches reports whether a served result equals the reference output
// bit for bit: output shape, bytes and logits.
func matches(got, want *neuralcache.InferenceResult) bool {
	if got == nil || got.Output == nil {
		return false
	}
	g, r := got.Output, want.Output
	return g.H == r.H && g.W == r.W && g.C == r.C &&
		bytes.Equal(g.Data, r.Data) && slices.Equal(got.Logits, want.Logits)
}

// bxRequest is one drawn request: a model and an input of its pool.
type bxRequest struct{ model, input int }

// requests returns the seeded request sequence generator.
func (w *bitExact) requests() func() bxRequest {
	rng := rand.New(rand.NewSource(w.seed ^ 0x627865)) // independent of the pool draw
	var block []bxRequest
	return func() bxRequest {
		if len(block) == 0 {
			for mi, bm := range bxModels {
				for k := 0; k < bm.count; k++ {
					block = append(block, bxRequest{mi, rng.Intn(bxPool)})
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		r := block[0]
		block = block[1:]
		return r
	}
}

// bxInstance is one built server plus the load loop's state.
type bxInstance struct {
	w       *bitExact
	srv     *serve.Server
	backend *tracedBackend // nil when untraced
	rec     *recorder
	next    func() bxRequest

	// slots are the window's input tensors: each request copies its
	// pooled tensor's header (not its data) into its slot, so the traced
	// backend can tell which request an input belongs to. slotReq and
	// slotOf are only used when traced.
	slots   [bxWindow]neuralcache.Tensor
	slotReq [bxWindow]int
	slotOf  map[*neuralcache.Tensor]int
	reqs    int

	queued, service []time.Duration // per response, traced runs only
}

// build constructs the System, the models and their weights, the
// backend and the server, then serves one request of each model as the
// warm-up op.
func (w *bitExact) build(rec *recorder) (instance, error) {
	cfg := neuralcache.DefaultConfig() // 2 sockets × 14 slices: the full 35 MB LLC
	cfg.Workers = 1
	sys, err := neuralcache.New(cfg)
	if err != nil {
		return nil, err
	}
	var models []*neuralcache.Model
	for _, bm := range bxModels {
		m := bm.build()
		m.InitWeights(bm.weight)
		models = append(models, m)
	}
	x := &bxInstance{w: w, rec: rec, next: w.requests()}
	var backend serve.Backend = serve.NewBitExactBackend(sys, models[0], models[1:]...)
	if rec != nil {
		x.slotOf = make(map[*neuralcache.Tensor]int, bxWindow)
		for i := range x.slots {
			x.slotOf[&x.slots[i]] = i
			rec.thread(pidBitExact, 1+i, fmt.Sprintf("window slot %d", i))
		}
		rec.thread(pidBitExact, 0, "execute batches")
		x.backend = &tracedBackend{Backend: backend, rec: rec, lane: x.lane}
		backend = x.backend
	}
	x.srv, err = serve.NewServer(backend, serve.Options{
		MaxBatch:  bxMaxBatch,
		MaxLinger: serve.NoLinger,
		Replicas:  bxGroups,
	})
	if err != nil {
		return nil, err
	}
	for mi, name := range w.names {
		resp, err := x.srv.SubmitModel(context.Background(), name, w.pool[mi][0])
		w.t.check(err == nil && matches(resp.Result, w.refs[mi][0]))
	}
	return x, nil
}

// lane maps a slot tensor to its trace lane and current request id.
func (x *bxInstance) lane(in *neuralcache.Tensor) (int, int, bool) {
	i, ok := x.slotOf[in]
	return 1 + i, x.slotReq[i], ok
}

// run keeps the window full until the deadline, then drains it. Every
// response is checked against the reference of its pooled input.
func (x *bxInstance) run(until time.Time, p *phase) error {
	ctx := context.Background()
	cases := make([]reflect.SelectCase, bxWindow)
	picks := make([]bxRequest, bxWindow)
	sent := make([]time.Time, bxWindow)
	submit := func(s int) error {
		r := x.next()
		x.slots[s] = *x.w.pool[r.model][r.input]
		x.reqs++
		x.slotReq[s] = x.reqs
		picks[s] = r
		sent[s] = time.Now()
		ch, err := x.srv.TrySubmitModel(ctx, x.w.names[r.model], &x.slots[s])
		if err != nil {
			return err
		}
		cases[s] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
		return nil
	}
	for s := range cases {
		if err := submit(s); err != nil {
			return err
		}
	}
	for open := bxWindow; open > 0; {
		s, v, _ := reflect.Select(cases)
		done := time.Now()
		resp := v.Interface().(*serve.Response)
		r := picks[s]
		x.w.t.check(resp.Err == nil && matches(resp.Result, x.w.refs[r.model][r.input]))
		p.done(sent[s], done, 1)
		if x.rec != nil {
			x.queued = append(x.queued, resp.Queued)
			x.service = append(x.service, resp.Latency-resp.Queued)
			x.rec.span(pidBitExact, 1+s, "request "+resp.Model, sent[s], done.Sub(sent[s]),
				&obs.Args{Model: resp.Model, Batch: resp.BatchSize, Seq: x.slotReq[s], Cold: resp.Cold})
		}
		if done.Before(until) {
			if err := submit(s); err != nil {
				return err
			}
		} else {
			cases[s].Chan = reflect.Value{}
			open--
		}
	}
	return nil
}

// layers reports the serve layer as seen from the responses, the
// Execute wrapper and Server.Stats.
func (x *bxInstance) layers(m map[string]float64) {
	st := x.srv.Stats()
	m["serve.queue_p50_ms"] = percentile(x.queued, 0.50)
	m["serve.queue_p99_ms"] = percentile(x.queued, 0.99)
	m["serve.service_p50_ms"] = percentile(x.service, 0.50)
	if n := x.backend.execReqs.Load(); n > 0 {
		m["serve.execute_ms_per_req"] = float64(x.backend.execNs.Load()) / 1e6 / float64(n)
	}
	m["serve.batch_mean"] = st.MeanBatch
	if st.Batches > 0 {
		m["serve.warm_share"] = float64(st.WarmBatches) / float64(st.Batches)
	}
}

func (x *bxInstance) close() { x.srv.Close() }

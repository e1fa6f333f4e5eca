package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"neuralcache"
	"neuralcache/internal/node"
	"neuralcache/plan"
)

// Response is the outcome of one served request.
type Response struct {
	// ID is the server-assigned admission ordinal (1-based).
	ID uint64
	// Model is the registered model the request was served on.
	Model string
	// Result is the bit-accurate inference result; nil for the analytic
	// backend, which models time rather than values.
	Result *neuralcache.InferenceResult
	// Err is the failure, if any. A batch-level execution failure fails
	// every request of the batch.
	Err error
	// Shard is the replica group that served the request. A request
	// canceled before dispatch never reached a group: its Shard is
	// NoShard and its BatchSize is 0.
	Shard Shard
	// BatchSize is the size of the micro-batch the request rode in; 0
	// for requests canceled before dispatch.
	BatchSize int
	// Cold reports that the batch paid the §IV-E weight-reload cost: its
	// replica's staged model changed (or it was the replica's first
	// dispatch).
	Cold bool
	// CacheHit reports that the front-cache served the request at
	// admission: it never queued, never rode a batch and never touched
	// a replica group (Shard is NoShard, BatchSize 0). Result is the
	// memoized output — treat it as read-only, it is shared with the
	// cache entry.
	CacheHit bool
	// Queued is the time from admission to dispatch — or, for a request
	// canceled while queued, from admission to the drop. Latency is the
	// time from admission to completion (zero when canceled).
	Queued  time.Duration
	Latency time.Duration
}

// request is one admitted unit of work.
type request struct {
	id    uint64
	input *neuralcache.Tensor
	ctx   context.Context
	resp  chan *Response // buffered, capacity 1
}

// Server is the asynchronous inference service: a bounded admission
// queue in front of the node core (package internal/node) — the
// micro-batcher and replica-group scheduler Simulate drives on its
// virtual clock — run here on the wall clock under one mutex. A batch
// forms when a replica group is claimed for it, so under backlog it
// takes every request of its model queued by then, up to MaxBatch.
// Create with NewServer, stop with Close.
type Server struct {
	backend Backend
	opts    Options
	slices  int // slices per socket, for shard naming

	// names and index map registry indices to model names and back;
	// each request resolves its model once, at submission.
	names []string
	index map[string]int

	// cache is the memoizing front-cache (nil when Options.Cache is
	// off): submissions with an input tensor probe it before admission,
	// hits complete immediately, and misses fill it when their batch
	// completes successfully.
	cache *Cache

	// tracer records the request lifecycle on the wall clock (offsets
	// from started); nil when tracing is off — every emit is a no-op.
	tracer *Tracer

	nextID  atomic.Uint64
	started time.Time

	// mu guards everything below. cond is broadcast after every
	// scheduling pass and on Close and caller cancellation: Submits
	// blocked on a full queue and Close wait on it.
	mu     sync.Mutex
	cond   *sync.Cond
	node   *node.Node
	events node.Events
	// fifo holds each model's admitted, undispatched requests in the
	// node's queue order: a dispatch of k takes the first k.
	fifo   [][]*request
	closed bool
	// timer runs schedule at timerAt, the earliest pending event, while
	// armed; an armed timer counts in execWG until it fires or stops.
	timer   *time.Timer
	timerAt time.Duration
	armed   bool
	execWG  sync.WaitGroup // executors and the armed timer

	submitted, rejected, served, failed, canceled uint64
	depthSum, depthSamples                        int64
	models                                        []ModelCounters // by registry index; batch counts live in the node
	perShard                                      []ShardUsage
}

// NewServer starts a server on the backend. The returned server is
// accepting requests; call Close to drain and stop it. Every registered
// model is priced once here, at batch 1 and for a reload, and an error
// is returned when one cannot be: the node core prices each batch after
// taking it from the queue, where a failure would strand it.
func NewServer(backend Backend, opts Options) (*Server, error) {
	sys := backend.System()
	o, err := opts.withDefaults(sys)
	if err != nil {
		return nil, err
	}
	s := &Server{
		backend: backend,
		opts:    o,
		slices:  sys.Config().Slices,
		started: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	if o.Cache.Enabled() {
		if s.cache, err = NewCache(o.Cache); err != nil {
			return nil, err
		}
	}
	registered := backend.Models()
	s.names = make([]string, len(registered))
	s.index = make(map[string]int, len(registered))
	for i, m := range registered {
		if _, err := backend.ServiceTime(m.Name(), 1, o.GroupSize); err != nil {
			return nil, err
		}
		if _, err := backend.ReloadTime(m.Name(), o.GroupSize); err != nil {
			return nil, err
		}
		s.names[i] = m.Name()
		s.index[m.Name()] = i
	}
	s.models = make([]ModelCounters, len(registered))
	s.fifo = make([][]*request, len(registered))
	s.perShard = make([]ShardUsage, o.Replicas)
	for i := range s.perShard {
		s.perShard[i].Shard = shardFor(i, s.slices, o.GroupSize)
	}
	// The tracer must attach before plan adoption: startup pre-stages
	// are part of the recorded lifecycle.
	if o.Trace != nil {
		shards := make([]Shard, o.Replicas)
		for i := range shards {
			shards[i] = s.perShard[i].Shard
		}
		o.Trace.begin("wall", s.names, shards, o.Cache.Enabled())
		s.tracer = o.Trace
	}
	s.node = node.New(node.Config{
		Name:      "serve",
		Names:     s.names,
		Pricer:    backend,
		Groups:    o.Replicas,
		GroupSize: o.GroupSize,
		MaxBatch:  o.MaxBatch,
		Linger:    o.MaxLinger,
		Drift:     s.tracer != nil,
	}, &s.events, (*driver)(s))
	if o.Plan != nil {
		var ctrl *plan.Controller
		if o.Replan.Enabled() {
			if ctrl, err = plan.NewController(sys, registered, o.Plan, o.Replan); err != nil {
				return nil, err
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.node.Adopt(s.now(), o.Plan, ctrl); err != nil {
			return nil, err
		}
		s.schedule() // time the pre-stages
	}
	return s, nil
}

// now is the wall clock the node runs on: the time since the server
// started.
func (s *Server) now() time.Duration { return time.Since(s.started) }

// schedule brings the node up to the wall clock: restages that are due
// end, the node dispatches whatever is ready, and the timer is re-armed
// for the earliest pending event. The heap holds only Linger and
// Restage events, and a due Linger needs only the dispatch: batches
// complete when their executor reports, not at a priced time. Callers
// hold mu.
//
// The node's errors are dropped. Pricing cannot fail once NewServer has
// priced every model, and a re-plan the node refuses keeps the old pins
// after the batch that triggered it went out; the next completion runs
// another pass.
func (s *Server) schedule() {
	now := s.now()
	for s.events.Len() > 0 && s.events.Next() <= now {
		if e := s.events.Pop(); e.Kind == node.Restage {
			_ = s.node.Finish(now, e.Group)
		}
	}
	_ = s.node.Dispatch(now)
	s.cond.Broadcast()
	s.arm()
}

// arm makes the timer fire at the earliest pending event. An idle node
// — nothing queued, no group busy — needs no wakeup. Callers hold mu.
func (s *Server) arm() {
	if s.events.Len() == 0 || s.node.Depth() == 0 && s.node.BusyGroups() == 0 {
		return
	}
	at := s.events.Next()
	if s.armed {
		// A timer due first re-arms when it fires, and so does one that
		// has already fired and waits for mu in tick.
		if s.timerAt <= at || !s.timer.Stop() {
			return
		}
		s.execWG.Done()
	}
	s.armed, s.timerAt = true, at
	s.execWG.Add(1)
	s.timer = time.AfterFunc(at-s.now(), s.tick)
}

// tick is the timer's scheduling pass.
func (s *Server) tick() {
	defer s.execWG.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	s.schedule()
}

// driver is the Server as its node's node.Driver, which keeps the
// callbacks off the Server's exported method set.
type driver Server

// Dispatched hands a batch the node formed to an executor goroutine,
// with the requests at the head of its model's FIFO: the batch's
// Arrivals are their admission times, in the same order.
func (d *driver) Dispatched(n *node.Node, b node.Batch) {
	s := (*Server)(d)
	q := s.fifo[b.Model]
	reqs := slices.Clone(q[:b.Size])
	s.fifo[b.Model] = slices.Delete(q, 0, b.Size)
	s.execWG.Add(1)
	go s.execute(b, n.Batches, reqs)
}

// Replanning marks a controller re-plan on the control lane, before its
// restage spans.
func (d *driver) Replanning(n *node.Node, at time.Duration, drift float64, restages int) {
	d.tracer.replan(at, n.Replans+1, drift, restages)
}

// Restaged charges a planner restage's reload to its group — the
// accounting the simulator applies, so planned utilization reads the
// same on both drivers — and traces the staging span.
func (d *driver) Restaged(_ *node.Node, op node.Op, at time.Duration) {
	s := (*Server)(d)
	u := &s.perShard[op.Group]
	u.Restages++
	u.Busy += op.Cost
	from := ""
	if op.From >= 0 {
		from = s.names[op.From]
	}
	s.tracer.restage(op.Group, s.names[op.Model], from, at, op.Cost)
}

// execute runs one dispatched batch, the seq-th, on its claimed group.
// It drops the requests canceled while queued and executes the rest;
// then it counts the outcome and frees the group through the node, and
// only then answers, so a caller holding its response sees the batch
// in Stats and its group free.
func (s *Server) execute(b node.Batch, seq int, reqs []*request) {
	defer s.execWG.Done()
	model := s.names[b.Model]
	resps := make([]*Response, len(reqs))
	var inputs []*neuralcache.Tensor
	for i, r := range reqs {
		if r.ctx != nil && r.ctx.Err() != nil {
			now := s.now()
			resps[i] = &Response{ID: r.id, Model: model, Err: r.ctx.Err(), Shard: NoShard, Queued: now - b.Arrivals[i]}
			s.tracer.cancel(model, now)
			continue
		}
		inputs = append(inputs, r.input)
	}
	n := len(inputs)
	var results []*neuralcache.InferenceResult
	var err error
	switch {
	case n > 0:
		// The batch runs under the server's lifetime, not any one
		// request's ctx: a replica group shares one staged weight set, so
		// a single submitter's cancellation must not fail its batchmates.
		results, err = s.backend.Execute(context.Background(), model, inputs, !b.Warm, s.opts.GroupSize)
	case !b.Warm:
		// Every request was canceled, but the claim staged the model on
		// the group: hold it through the reload, so a later warm claim
		// of the model is truthful.
		time.Sleep(b.Reload)
	}
	done := s.now()
	s.mu.Lock()
	u := &s.perShard[b.Group]
	u.Batches++
	u.Requests += n
	u.Busy += done - b.At
	if !b.Warm {
		u.Reloads++
	}
	mc := &s.models[b.Model]
	dropped := uint64(len(reqs) - n)
	s.canceled += dropped
	mc.Canceled += dropped
	if err != nil {
		s.failed += uint64(n)
		mc.Failed += uint64(n)
	} else {
		s.served += uint64(n)
		mc.Served += uint64(n)
	}
	_ = s.node.Finish(done, b.Group) // see schedule
	s.schedule()
	s.mu.Unlock()
	if s.tracer != nil {
		for i := range reqs {
			if resps[i] == nil {
				s.tracer.queued(model, b.Arrivals[i], b.At, seq)
			}
		}
		// The wall clock cannot split the measured span into reload and
		// service; charge the modeled §IV-E reload on cold dispatches,
		// clamped to what actually elapsed.
		span := done - b.At
		var reload time.Duration
		if !b.Warm {
			reload = min(b.Reload, span)
		}
		s.tracer.batch(b.Group, model, n, !b.Warm, seq, b.At, span-reload, reload)
	}
	j := 0
	for i, r := range reqs {
		if resps[i] == nil {
			resps[i] = &Response{
				ID:        r.id,
				Model:     model,
				Shard:     shardFor(b.Group, s.slices, s.opts.GroupSize),
				BatchSize: n,
				Cold:      !b.Warm,
				Queued:    b.At - b.Arrivals[i],
				Latency:   done - b.Arrivals[i],
				Err:       err,
			}
			if err == nil && results != nil {
				resps[i].Result = results[j]
			}
			j++
			if err == nil && s.cache != nil && r.input != nil {
				// Miss fill: memoize the served output under its input so
				// the next identical submission hits at admission. Failed
				// batches fill nothing — a hit must always replay a result
				// that was actually served.
				s.cache.Insert(model, r.input, resps[i].Result)
			}
		}
		r.resp <- resps[i]
	}
}

// Options returns the server's effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// Plan returns the residency plan currently applied (the last
// controller re-plan, or Options.Plan), nil for reactive servers.
func (s *Server) Plan() *plan.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.Plan()
}

// QueueDepth returns the current admitted-minus-dispatched request
// count — the live value behind Stats' high-water mark, cheap enough
// for debug endpoints and samplers to poll.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.Depth()
}

// BusyGroups returns how many replica groups are currently claimed
// (serving a batch or restaging weights).
func (s *Server) BusyGroups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.BusyGroups()
}

// Controller returns the drift controller of a planned server with
// Options.Replan enabled, nil otherwise. Its read-only methods
// (Drift, Observed) feed debug endpoints and timeline samplers.
func (s *Server) Controller() *plan.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.Controller()
}

// Submit admits one request for the backend's default model and blocks
// until it is served or ctx is done. When the admission queue is full,
// Submit waits for space (backpressure); cancel ctx — or Close the
// server — to give up. A ctx that expires after admission abandons the
// wait but lets the request complete.
func (s *Server) Submit(ctx context.Context, in *neuralcache.Tensor) (*Response, error) {
	return s.SubmitModel(ctx, "", in)
}

// SubmitModel is Submit for a named registered model ("" = default).
func (s *Server) SubmitModel(ctx context.Context, model string, in *neuralcache.Tensor) (*Response, error) {
	ch, err := s.submit(ctx, model, in, true)
	if err != nil {
		return nil, err
	}
	select {
	case r := <-ch:
		return r, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TrySubmit admits one request for the backend's default model without
// blocking: when the admission queue is full it returns ErrQueueFull
// immediately (the open-loop rejection path). On success the response
// arrives on the returned channel. ctx is checked again when the batch
// executes: a request whose ctx expired while queued is dropped with
// its ctx error.
func (s *Server) TrySubmit(ctx context.Context, in *neuralcache.Tensor) (<-chan *Response, error) {
	return s.submit(ctx, "", in, false)
}

// TrySubmitModel is TrySubmit for a named registered model ("" = default).
func (s *Server) TrySubmitModel(ctx context.Context, model string, in *neuralcache.Tensor) (<-chan *Response, error) {
	return s.submit(ctx, model, in, false)
}

func (s *Server) submit(ctx context.Context, model string, in *neuralcache.Tensor, wait bool) (chan *Response, error) {
	m, err := s.backend.Lookup(model)
	if err != nil {
		return nil, err
	}
	name := m.Name()
	if in == nil {
		if s.backend.RequiresInput() {
			return nil, fmt.Errorf("serve: %s backend requires an input tensor", s.backend.Name())
		}
	} else if h, w, c := m.InputShape(); in.H != h || in.W != w || in.C != c {
		return nil, fmt.Errorf("serve: input %dx%dx%d, model %s expects %dx%dx%d",
			in.H, in.W, in.C, name, h, w, c)
	}
	mi := s.index[name]
	// Probe the front-cache before admission: a hit completes here — it
	// cannot be rejected by a full queue, never rides a batch and never
	// claims a replica group. Backends without input tensors have
	// nothing to key on and skip the cache entirely.
	probed := s.cache != nil && in != nil
	if probed {
		if ch, err := s.probe(mi, in); ch != nil || err != nil {
			return ch, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if probed {
		s.models[mi].CacheMisses++
	}
	// Admission is bounded by the node's depth of admitted, undispatched
	// requests — Simulate's rule. Without wait a full queue rejects;
	// with wait the caller blocks until a dispatch frees a slot, ctx is
	// done, or the server closes.
	var stop func() bool
	for {
		if s.closed {
			return nil, ErrClosed
		}
		if s.node.Depth() < s.opts.QueueDepth {
			break
		}
		if !wait {
			s.rejected++
			s.models[mi].Rejected++
			s.tracer.reject(name, s.now())
			return nil, ErrQueueFull
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if stop == nil {
			stop = context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			defer stop()
		}
		s.cond.Wait()
	}
	req := &request{id: s.nextID.Add(1), input: in, ctx: ctx, resp: make(chan *Response, 1)}
	s.node.Enqueue(mi, s.now(), -1, 0)
	s.fifo[mi] = append(s.fifo[mi], req)
	s.submitted++
	s.depthSum += int64(s.node.Depth())
	s.depthSamples++
	s.schedule()
	return req.resp, nil
}

// probe looks the input up in the front-cache, returning the answered
// response on a hit and nil on a miss, or ErrClosed.
func (s *Server) probe(mi int, in *neuralcache.Tensor) (chan *Response, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	name := s.names[mi]
	start := time.Now()
	result, ok := s.cache.Lookup(name, in)
	if !ok {
		return nil, nil
	}
	resp := &Response{
		ID:       s.nextID.Add(1),
		Model:    name,
		Result:   result,
		Shard:    NoShard,
		CacheHit: true,
		Latency:  time.Since(start),
	}
	s.mu.Lock()
	s.submitted++
	s.served++
	s.models[mi].Served++
	s.models[mi].CacheHits++
	s.mu.Unlock()
	s.tracer.cacheHit(name, s.now())
	ch := make(chan *Response, 1)
	ch <- resp
	return ch, nil
}

// Close stops admission and wakes Submits blocked on a full queue (they
// return ErrClosed). It then waits until every admitted request has
// been dispatched and every replica group is free — lingering requests
// dispatch at their linger deadline, so Close can wait up to MaxLinger
// past the last completion — and returns once every executor has
// answered. No goroutine of the server outlives it. Closing twice
// returns ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.cond.Broadcast()
	for s.node.Depth() > 0 || s.node.BusyGroups() > 0 {
		s.cond.Wait()
	}
	if s.armed && s.timer.Stop() {
		s.armed = false
		s.execWG.Done()
	}
	s.mu.Unlock()
	s.execWG.Wait()
	return nil
}

// ModelCounters aggregates one registered model's admission and dispatch
// accounting on a Server.
type ModelCounters struct {
	Served, Failed, Canceled uint64
	Rejected                 uint64
	// Batches, WarmBatches and ColdBatches count the model's dispatches,
	// batches still executing included.
	Batches                  uint64
	WarmBatches, ColdBatches uint64
	// CacheHits were served from the front-cache at admission (also
	// counted in Served); CacheMisses probed and went on through the
	// normal path. Both stay zero when Options.Cache is off.
	CacheHits, CacheMisses uint64
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Submitted, Rejected uint64
	Served, Failed      uint64
	Canceled            uint64
	// Batches counts dispatches, as the node core does: batches still
	// executing are included, and so is a batch whose requests were all
	// canceled while queued (a dispatch of zero requests, which still
	// holds its group through a cold claim's reload). MeanBatch is the
	// dispatched requests per batch, canceled ones included.
	Batches   uint64
	MeanBatch float64
	// WarmBatches and ColdBatches split dispatches by whether the
	// replica already staged the batch's model; cold ones paid the
	// §IV-E weight reload.
	WarmBatches, ColdBatches uint64
	// Restages counts planner-driven weight stagings (startup
	// pre-stages plus controller rebalances); Replans counts applied
	// controller re-plans. Both stay zero on reactive servers.
	Restages, Replans uint64
	// Front-cache counters (Options.Cache; all zero when off).
	// CacheHits completed at admission without touching a replica
	// group, CacheMisses probed and continued, CacheInserts filled on
	// miss completion and CacheEvictions are LRU victims beyond
	// capacity.
	CacheHits, CacheMisses uint64
	CacheInserts           uint64
	CacheEvictions         uint64
	// QueueHighWater is the maximum admitted-minus-dispatched depth,
	// counted at every admission exactly as Simulate counts it; it never
	// exceeds QueueDepth, and MeanQueueDepth is the mean of the depth
	// sampled at each admission, so QueueHighWater ≥ ⌈MeanQueueDepth⌉
	// always.
	QueueHighWater int
	MeanQueueDepth float64
	// DepthSum and DepthSamples are the raw accumulators behind
	// MeanQueueDepth (Σ depth sampled at each admission, and the sample
	// count), exposed so windowed consumers like LoadTest can difference
	// two snapshots. QueueHighWater has no windowed form: a max cannot
	// be differenced, so on a reused server it spans the whole lifetime.
	DepthSum     int64
	DepthSamples int64
	Uptime       time.Duration
	// Utilization is the mean busy fraction across replicas since the
	// server started.
	Utilization float64
	PerShard    []ShardUsage
	// PerModel maps registered model names to their counters; only
	// models that saw traffic appear.
	PerModel map[string]ModelCounters
}

// Stats snapshots the server's occupancy and admission counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := s.now()
	n := s.node
	out := Stats{
		Submitted:      s.submitted,
		Rejected:       s.rejected,
		Served:         s.served,
		Failed:         s.failed,
		Canceled:       s.canceled,
		Batches:        uint64(n.Batches),
		WarmBatches:    uint64(n.Warm),
		ColdBatches:    uint64(n.Cold),
		Restages:       uint64(n.Restages),
		Replans:        uint64(n.Replans),
		QueueHighWater: n.MaxDepth(),
		DepthSum:       s.depthSum,
		DepthSamples:   s.depthSamples,
		Uptime:         up,
		PerShard:       append([]ShardUsage(nil), s.perShard...),
		PerModel:       make(map[string]ModelCounters, len(s.models)),
	}
	if out.DepthSamples > 0 {
		out.MeanQueueDepth = float64(out.DepthSum) / float64(out.DepthSamples)
	}
	for mi, c := range s.models {
		t := n.Models[mi]
		c.WarmBatches, c.ColdBatches = uint64(t.Warm), uint64(t.Cold)
		c.Batches = c.WarmBatches + c.ColdBatches
		if c != (ModelCounters{}) {
			out.PerModel[s.names[mi]] = c
		}
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		out.CacheHits = uint64(cs.Hits)
		out.CacheMisses = uint64(cs.Misses)
		out.CacheInserts = uint64(cs.Inserts)
		out.CacheEvictions = uint64(cs.Evictions)
	}
	if n.Batches > 0 {
		out.MeanBatch = float64(n.Batched) / float64(n.Batches)
	}
	var busy time.Duration
	for i := range out.PerShard {
		busy += out.PerShard[i].Busy
		if up > 0 {
			out.PerShard[i].Utilization = float64(out.PerShard[i].Busy) / float64(up)
		}
	}
	if up > 0 && len(out.PerShard) > 0 {
		out.Utilization = float64(busy) / float64(up*time.Duration(len(out.PerShard)))
	}
	return out
}

package serve

import (
	"context"
	"fmt"
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
	id       uint64
	model    int // registry index
	input    *neuralcache.Tensor
	ctx      context.Context
	enqueued time.Time
	resp     chan *Response // buffered, capacity 1
}

// shardPool guards the server's replica-group table (node.Groups, the
// simulators' table) with a mutex: acquisition is warm-first, or
// plan-aware under a residency plan. Only the batcher acquires (single
// consumer); executor goroutines release.
type shardPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	t    node.Groups
	// freed wakes the batcher's eligibility wait (planned servers only;
	// capacity-1, lossy — a pending token already guarantees a wakeup).
	freed chan struct{}
}

func newShardPool(n int) *shardPool {
	p := &shardPool{t: node.NewGroups(n), freed: make(chan struct{}, 1)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// wake nudges the batcher's eligibility wait without blocking.
func (p *shardPool) wake() {
	select {
	case p.freed <- struct{}{}:
	default:
	}
}

// acquire blocks until an eligible replica group is free and claims the
// best one for model mi, reporting whether the claim was warm; a cold
// claim restages the group to the model.
func (p *shardPool) acquire(mi int) (id int, warm bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if id, warm = p.t.Claim(mi); id >= 0 {
			return id, warm
		}
		p.cond.Wait()
	}
}

// hasEligible reports whether some free group may serve model mi right
// now — used by the planned batcher to skip models whose pools are busy
// instead of head-of-line-blocking in acquire.
func (p *shardPool) hasEligible(mi int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.t.Eligible(mi)
}

// release frees the group after its batch or restage — unless a
// controller restage is pending on it, in which case the group stays
// claimed, the new model's weights are staged, and the caller must pay
// op.Cost before releasing it again.
func (p *shardPool) release(id int) (op node.Op, restage bool) {
	p.mu.Lock()
	op, restage = p.t.Release(id)
	p.mu.Unlock()
	if !restage {
		p.cond.Signal()
		p.wake()
	}
	return op, restage
}

// Server is the asynchronous inference service: a bounded admission
// queue feeding a dynamic micro-batcher that forms per-model batches and
// dispatches them to free replica groups, warm-first. Create with
// NewServer, stop with Close.
type Server struct {
	backend   Backend
	opts      Options
	slices    int // slices per socket, for shard naming
	groupSize int // slices per replica group

	queue chan *request
	pool  *shardPool
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

	// ctrl is the drift controller of a planned server (nil otherwise);
	// activePlan tracks the plan currently applied, swapped on replan.
	ctrl       *plan.Controller
	planMu     sync.Mutex
	activePlan *plan.Plan

	mu         sync.RWMutex // guards closed against concurrent Submit/Close
	closed     bool
	closing    chan struct{}  // closed by Close; wakes Submits blocked on a full queue
	submitters sync.WaitGroup // in-flight submit calls past the closed check

	batcherDone chan struct{}
	execWG      sync.WaitGroup

	nextID  atomic.Uint64
	started time.Time

	// depth is the admitted-minus-dispatched request count — requests in
	// the queue channel or parked in the batcher's per-model pending
	// lists. It is the authoritative admission bound: admit reserves a
	// slot (depth < QueueDepth, the simulator's rule) before the queue
	// send and dispatchFrom releases it, so concurrent submitters cannot
	// under-report the high-water mark and backlog memory stays bounded.
	depth        atomic.Int64
	highWater    atomic.Int64
	depthSum     atomic.Int64  // Σ depth sampled at each admission
	depthSamples atomic.Int64  //
	space        chan struct{} // freed-slot wakeup for Submits blocked in admit

	stats serverStats
}

// serverStats is the mutex-guarded counter block of a Server.
type serverStats struct {
	sync.Mutex
	submitted, rejected, served, failed, canceled uint64
	batches, batched                              uint64
	warmBatches, coldBatches                      uint64
	restages, replans                             uint64
	perModel                                      map[string]*ModelCounters
	perShard                                      []ShardUsage
}

// model returns the (lazily created) counters for a registered model;
// callers hold the stats mutex.
func (st *serverStats) model(name string) *ModelCounters {
	c := st.perModel[name]
	if c == nil {
		c = &ModelCounters{}
		st.perModel[name] = c
	}
	return c
}

// NewServer starts a server on the backend. The returned server is
// accepting requests; call Close to drain and stop it.
func NewServer(backend Backend, opts Options) (*Server, error) {
	sys := backend.System()
	o, err := opts.withDefaults(sys)
	if err != nil {
		return nil, err
	}
	s := &Server{
		backend:     backend,
		opts:        o,
		slices:      sys.Config().Slices,
		groupSize:   o.GroupSize,
		queue:       make(chan *request, o.QueueDepth),
		pool:        newShardPool(o.Replicas),
		closing:     make(chan struct{}),
		space:       make(chan struct{}, 1),
		batcherDone: make(chan struct{}),
		started:     time.Now(),
	}
	if o.Cache.Enabled() {
		if s.cache, err = NewCache(o.Cache); err != nil {
			return nil, err
		}
	}
	registered := backend.Models()
	s.names = make([]string, len(registered))
	s.index = make(map[string]int, len(registered))
	for i, m := range registered {
		s.names[i] = m.Name()
		s.index[m.Name()] = i
	}
	s.stats.perModel = make(map[string]*ModelCounters)
	s.stats.perShard = make([]ShardUsage, o.Replicas)
	for i := 0; i < o.Replicas; i++ {
		s.stats.perShard[i].Shard = shardFor(i, s.slices, s.groupSize)
	}
	// The tracer must attach before plan adoption: startup pre-stages
	// are part of the recorded lifecycle.
	if o.Trace != nil {
		shards := make([]Shard, o.Replicas)
		for i := range shards {
			shards[i] = s.stats.perShard[i].Shard
		}
		o.Trace.begin("wall", s.names, shards, o.Cache.Enabled())
		s.tracer = o.Trace
	}
	if o.Plan != nil {
		if err := s.adoptPlan(o.Plan, o.Replan); err != nil {
			return nil, err
		}
	}
	go s.batcher()
	return s, nil
}

// adoptPlan installs the residency plan on a fresh server: the pins go
// live, every pinned group pre-stages its model's weights (busy for the
// reload time, counted as a restage), and the drift controller attaches
// when configured. Runs before the batcher starts.
func (s *Server) adoptPlan(p *plan.Plan, replan plan.ControllerConfig) error {
	pin, err := node.Pins(p, s.opts.Replicas, s.names)
	if err == nil {
		err = node.Servable(pin, s.names)
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.activePlan = p
	s.pool.mu.Lock()
	ops := s.pool.t.Adopt(pin)
	s.pool.mu.Unlock()
	for _, op := range ops {
		rel, err := s.backend.ReloadTime(s.names[op.Model], s.groupSize)
		if err != nil {
			return err
		}
		s.noteRestage(op.Group, s.names[op.Model], "", rel)
		s.execWG.Add(1)
		go func(g int, rel time.Duration) {
			defer s.execWG.Done()
			s.runRestage(g, rel)
		}(op.Group, rel)
	}
	if replan.Enabled() {
		if s.ctrl, err = plan.NewController(s.backend.System(), s.backend.Models(), p, replan); err != nil {
			return err
		}
	}
	return nil
}

// Plan returns the residency plan currently applied (the last
// controller re-plan, or Options.Plan), nil for reactive servers.
func (s *Server) Plan() *plan.Plan {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	return s.activePlan
}

// applyReplan swaps in a controller re-plan from the batcher goroutine:
// the pool repins, free groups restage immediately on their own
// goroutines, busy ones when their batch completes. at is the
// server-relative time the re-plan fired, drift the controller's mix
// TV-distance that triggered it — both only feed the tracer.
func (s *Server) applyReplan(next *plan.Plan, restages []plan.Restage, at time.Duration, drift float64) {
	// The controller's rebalance keeps every model servable and names
	// only registered ones; on a breach of that invariant, keep serving
	// on the old pins rather than strand a model's requests.
	pin, err := node.Pins(next, s.opts.Replicas, s.names)
	if err != nil || node.Servable(pin, s.names) != nil {
		return
	}
	s.planMu.Lock()
	s.activePlan = next
	s.planMu.Unlock()
	s.stats.Lock()
	s.stats.replans++
	nth := int(s.stats.replans)
	s.stats.Unlock()
	s.tracer.replan(at, nth, drift, len(restages))
	s.pool.mu.Lock()
	ops, err := s.pool.t.Replan(pin, restages, s.names)
	s.pool.mu.Unlock()
	s.pool.wake()
	if err != nil {
		return
	}
	for _, op := range ops {
		s.noteRestage(op.Group, s.names[op.Model], "", op.Cost)
		s.execWG.Add(1)
		go func(op node.Op) {
			defer s.execWG.Done()
			s.runRestage(op.Group, op.Cost)
		}(op)
	}
}

// runRestage holds a claimed group through its reload, then frees it —
// chaining into any newer rebalance that queued on the group while it
// was restaging.
func (s *Server) runRestage(id int, cost time.Duration) {
	for {
		time.Sleep(cost)
		op, again := s.pool.release(id)
		if !again {
			return
		}
		s.noteRestage(id, s.names[op.Model], s.names[op.From], op.Cost)
		cost = op.Cost
	}
}

// noteRestage counts one planner restage on a group, charging its
// reload into the group's busy time — the same accounting the
// simulator applies, so planned utilization reads identically on both
// drivers — and traces the staging span. model is what the restage
// stages, from what it evicts ("" when the group held nothing or the
// caller does not track it).
func (s *Server) noteRestage(id int, model, from string, cost time.Duration) {
	s.stats.Lock()
	if id >= 0 && id < len(s.stats.perShard) {
		s.stats.perShard[id].Restages++
		s.stats.perShard[id].Busy += cost
	}
	s.stats.restages++
	s.stats.Unlock()
	s.tracer.restage(id, model, from, time.Since(s.started), cost)
}

// Options returns the server's effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// QueueDepth returns the current admitted-minus-dispatched request
// count — the live value behind Stats' high-water mark, cheap enough
// for debug endpoints and samplers to poll.
func (s *Server) QueueDepth() int { return int(s.depth.Load()) }

// BusyGroups returns how many replica groups are currently claimed
// (serving a batch or restaging weights).
func (s *Server) BusyGroups() int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return s.pool.t.Busy()
}

// Controller returns the drift controller of a planned server with
// Options.Replan enabled, nil otherwise. Its read-only methods
// (Drift, Observed) feed debug endpoints and timeline samplers.
func (s *Server) Controller() *plan.Controller { return s.ctrl }

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
// arrives on the returned channel. ctx is checked again at dispatch
// time: a request whose ctx expired while queued is dropped with its
// ctx error.
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
	// Register as an in-flight submitter under the read lock, then drop
	// the lock before the (possibly waiting) admission: Close must not
	// stall behind back-pressured submitters, and the queue send must
	// still never race close(s.queue) — Close waits for submitters to
	// drain after waking them via s.closing.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	s.submitters.Add(1)
	s.mu.RUnlock()
	defer s.submitters.Done()
	// Probe the front-cache before admission: a hit completes here — it
	// cannot be rejected by a full queue, never rides a batch and never
	// claims a replica group. Backends without input tensors have
	// nothing to key on and skip the cache entirely.
	if s.cache != nil && in != nil {
		enqueued := time.Now()
		if result, ok := s.cache.Lookup(name, in); ok {
			resp := &Response{
				ID:       s.nextID.Add(1),
				Model:    name,
				Result:   result,
				Shard:    NoShard,
				CacheHit: true,
				Latency:  time.Since(enqueued),
			}
			s.stats.Lock()
			s.stats.submitted++
			s.stats.served++
			mc := s.stats.model(name)
			mc.Served++
			mc.CacheHits++
			s.stats.Unlock()
			s.tracer.cacheHit(name, time.Since(s.started))
			if s.ctrl != nil {
				s.ctrl.ObserveCacheHit(name, time.Since(s.started))
			}
			ch := make(chan *Response, 1)
			ch <- resp
			return ch, nil
		}
		s.stats.Lock()
		s.stats.model(name).CacheMisses++
		s.stats.Unlock()
	}
	if err := s.admit(ctx, wait, name); err != nil {
		return nil, err
	}
	req := &request{
		id:       s.nextID.Add(1),
		model:    s.index[name],
		input:    in,
		ctx:      ctx,
		enqueued: time.Now(),
		resp:     make(chan *Response, 1),
	}
	// The send cannot block: channel occupancy never exceeds the depth
	// counter, which admit just bounded by QueueDepth, the channel's
	// capacity.
	s.queue <- req
	s.stats.Lock()
	s.stats.submitted++
	s.stats.Unlock()
	return req.resp, nil
}

// admit reserves one slot of the bounded admission depth — the same
// depth >= QueueDepth rule the simulator applies — incrementing the
// counter before the queue send so concurrent submitters can never
// under-report the high-water mark. Without wait a full queue rejects
// with ErrQueueFull; with wait the caller blocks until a dispatch frees
// a slot, ctx is done, or the server closes.
func (s *Server) admit(ctx context.Context, wait bool, model string) error {
	for {
		d := s.depth.Load()
		if d < int64(s.opts.QueueDepth) {
			if !s.depth.CompareAndSwap(d, d+1) {
				continue
			}
			d++
			for {
				hw := s.highWater.Load()
				if d <= hw || s.highWater.CompareAndSwap(hw, d) {
					break
				}
			}
			s.depthSum.Add(d)
			s.depthSamples.Add(1)
			if d < int64(s.opts.QueueDepth) {
				// Cascade the wakeup: one freed-slot token wakes one
				// waiter, so pass it on while slots remain.
				select {
				case s.space <- struct{}{}:
				default:
				}
			}
			return nil
		}
		if !wait {
			s.stats.Lock()
			s.stats.rejected++
			s.stats.model(model).Rejected++
			s.stats.Unlock()
			s.tracer.reject(model, time.Since(s.started))
			return ErrQueueFull
		}
		select {
		case <-s.space:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.closing:
			return ErrClosed
		}
	}
}

// batcher is the single goroutine forming per-model micro-batches: it
// collects admitted requests into one FIFO per model and dispatches a
// model's batch when it is full (MaxBatch) or its oldest request has
// lingered MaxLinger. When several models are ready, the one with the
// oldest head dispatches first.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	planned := s.opts.Plan != nil
	var eligible func(int) bool
	if planned {
		eligible = s.pool.hasEligible
	}
	pending := make(map[int][]*request)
	total := 0
	add := func(r *request) {
		pending[r.model] = append(pending[r.model], r)
		total++
	}
	// drain moves every immediately available request into pending
	// before any dispatch decision, so a backlog forms full batches
	// instead of lingered singletons; it reports false once the queue is
	// closed and empty.
	drain := func() bool {
		for {
			select {
			case r, ok := <-s.queue:
				if !ok {
					return false
				}
				add(r)
			default:
				return true
			}
		}
	}
	for {
		if total == 0 {
			r, ok := <-s.queue
			if !ok {
				return
			}
			add(r)
		} else {
			// Wait for the next admission or the earliest future
			// linger deadline. A past-due head here means a ready model
			// waiting for an eligible group (only possible planned), so
			// it is excluded from the timer — a freed group wakes the
			// batcher for it — while other models' future deadlines
			// still get their timer.
			var deadline time.Time
			now := time.Now()
			for _, q := range pending {
				d := q[0].enqueued.Add(s.opts.MaxLinger)
				if planned && !d.After(now) {
					continue
				}
				if deadline.IsZero() || d.Before(deadline) {
					deadline = d
				}
			}
			var timer *time.Timer
			var timerC <-chan time.Time
			var freedC <-chan struct{}
			if !deadline.IsZero() {
				timer = time.NewTimer(time.Until(deadline))
				timerC = timer.C
			}
			if planned {
				freedC = s.pool.freed
			}
			select {
			case r, ok := <-s.queue:
				if timer != nil {
					timer.Stop()
				}
				if !ok {
					s.flush(pending)
					return
				}
				add(r)
			case <-timerC:
			case <-freedC:
			}
		}
		for {
			if !drain() {
				s.flush(pending)
				return
			}
			mi, ok := nextReady(pending, time.Now(), s.opts, eligible)
			if !ok {
				break
			}
			// dispatchFrom can block a while claiming a replica, so
			// re-drain (and re-take the clock) every iteration.
			total -= s.dispatchFrom(pending, mi)
		}
	}
}

// nextReady picks the dispatchable model with the oldest head request: a
// model is ready when it holds a full batch or its head has lingered
// MaxLinger. Ties break on admission ordinal. A non-nil eligible filter
// (planned servers) additionally requires a free group the model may
// claim, so a busy pinned pool cannot head-of-line-block the others.
func nextReady(pending map[int][]*request, now time.Time, opts Options, eligible func(int) bool) (int, bool) {
	best, bestID := -1, uint64(0)
	for mi, q := range pending {
		head := q[0]
		if len(q) < opts.MaxBatch && now.Before(head.enqueued.Add(opts.MaxLinger)) {
			continue
		}
		if eligible != nil && !eligible(mi) {
			continue
		}
		if best < 0 || head.id < bestID {
			best, bestID = mi, head.id
		}
	}
	return best, best >= 0
}

// dispatchFrom pops one batch of model mi from pending and dispatches
// it, returning how many requests it consumed. The queue-depth counter
// drops here — not at the channel receive — so requests parked in
// pending still count as queued, matching the simulator's accounting.
func (s *Server) dispatchFrom(pending map[int][]*request, mi int) int {
	q := pending[mi]
	n := min(len(q), s.opts.MaxBatch)
	batch := append([]*request(nil), q[:n]...)
	if n == len(q) {
		delete(pending, mi)
	} else {
		pending[mi] = q[n:]
	}
	s.depth.Add(-int64(n))
	select {
	case s.space <- struct{}{}: // wake one Submit blocked in admit
	default:
	}
	s.dispatch(mi, batch)
	return n
}

// flush dispatches everything still pending when the queue closes, in
// oldest-head-first order, so Close drains instead of dropping: under a
// zero batch cap every pending model is ready.
func (s *Server) flush(pending map[int][]*request) {
	for len(pending) > 0 {
		mi, _ := nextReady(pending, time.Time{}, Options{}, nil)
		s.dispatchFrom(pending, mi)
	}
}

// dispatch drops canceled requests, claims the best free replica group
// for the model (blocking the batcher while all groups are busy — the
// queue buffer keeps admitting meanwhile) and executes the batch on its
// own goroutine, charging the backend's reload cost when the group was
// not already staging this model.
func (s *Server) dispatch(mi int, batch []*request) {
	model := s.names[mi]
	live := batch[:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			r.resp <- &Response{
				ID:     r.id,
				Model:  model,
				Err:    r.ctx.Err(),
				Shard:  NoShard,
				Queued: time.Since(r.enqueued),
			}
			s.stats.Lock()
			s.stats.canceled++
			s.stats.model(model).Canceled++
			s.stats.Unlock()
			s.tracer.cancel(model, time.Since(s.started))
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if s.ctrl != nil {
		// Feed the drift controller the served mix and apply any
		// re-plan before claiming a group, so the new pinned set
		// steers this very dispatch.
		now := time.Since(s.started)
		s.ctrl.Observe(model, len(live), now)
		// Drift must be read before MaybeReplan: an applied re-plan
		// rebases the controller's reference mix, zeroing it.
		var drift float64
		if s.tracer != nil {
			drift = s.ctrl.Drift()
		}
		if next, ops, ok := s.ctrl.MaybeReplan(now); ok {
			s.applyReplan(next, ops, now, drift)
		}
	}
	id, warm := s.pool.acquire(mi)
	dispatched := time.Now()
	s.execWG.Add(1)
	go func() {
		defer s.execWG.Done()
		inputs := make([]*neuralcache.Tensor, len(live))
		for i, r := range live {
			inputs[i] = r.input
		}
		// The batch runs under the server's lifetime, not any one
		// request's ctx: a replica group shares one staged weight set, so
		// a single submitter's cancellation must not fail its batchmates.
		results, err := s.backend.Execute(context.Background(), model, inputs, !warm, s.groupSize)
		done := time.Now()
		// Update counters before delivering responses: a caller that has
		// drained its response channels must see this batch in Stats().
		s.stats.Lock()
		s.stats.batches++
		seq := int(s.stats.batches)
		s.stats.batched += uint64(len(live))
		mc := s.stats.model(model)
		mc.Batches++
		if warm {
			s.stats.warmBatches++
			mc.WarmBatches++
		} else {
			s.stats.coldBatches++
			mc.ColdBatches++
		}
		if err != nil {
			s.stats.failed += uint64(len(live))
			mc.Failed += uint64(len(live))
		} else {
			s.stats.served += uint64(len(live))
			mc.Served += uint64(len(live))
		}
		u := &s.stats.perShard[id]
		u.Batches++
		u.Requests += len(live)
		u.Busy += done.Sub(dispatched)
		if !warm {
			u.Reloads++
		}
		s.stats.Unlock()
		if s.tracer != nil {
			start := dispatched.Sub(s.started)
			for _, r := range live {
				s.tracer.queued(model, r.enqueued.Sub(s.started), start, seq)
			}
			// The wall clock cannot split the measured span into reload
			// and service; charge the modeled §IV-E reload on cold
			// dispatches, clamped to what actually elapsed.
			span := done.Sub(dispatched)
			var reload time.Duration
			if !warm {
				if rel, err := s.backend.ReloadTime(model, s.groupSize); err == nil {
					reload = min(rel, span)
				}
			}
			s.tracer.batch(id, model, len(live), !warm, seq, start, span-reload, reload)
		}
		for i, r := range live {
			resp := &Response{
				ID:        r.id,
				Model:     model,
				Shard:     shardFor(id, s.slices, s.groupSize),
				BatchSize: len(live),
				Cold:      !warm,
				Queued:    dispatched.Sub(r.enqueued),
				Latency:   done.Sub(r.enqueued),
				Err:       err,
			}
			if err == nil && results != nil {
				resp.Result = results[i]
			}
			if err == nil && s.cache != nil && r.input != nil {
				// Miss fill: memoize the served output under its input so
				// the next identical submission hits at admission. Failed
				// batches fill nothing — a hit must always replay a result
				// that was actually served.
				s.cache.Insert(model, r.input, resp.Result)
			}
			r.resp <- resp
		}
		if op, restage := s.pool.release(id); restage {
			// A controller rebalance was waiting for this group: hold
			// it through the new model's §IV-E reload before freeing,
			// evicting this batch's model.
			s.noteRestage(id, s.names[op.Model], model, op.Cost)
			s.runRestage(id, op.Cost)
		}
	}()
}

// Close stops admission, wakes Submits blocked on a full queue (they
// return ErrClosed), drains the queue, waits for in-flight batches and
// returns. Closing twice returns ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.closing)
	s.mu.Unlock()
	// Wait out submitters that passed the closed check before closing
	// the queue channel: they either complete their send or bail on
	// s.closing, so close(s.queue) can never race a send.
	s.submitters.Wait()
	close(s.queue)
	<-s.batcherDone
	s.execWG.Wait()
	return nil
}

// ModelCounters aggregates one registered model's admission and dispatch
// accounting on a Server.
type ModelCounters struct {
	Served, Failed, Canceled uint64
	Rejected                 uint64
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
	Batches             uint64
	MeanBatch           float64
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
	// QueueHighWater is the maximum admitted-minus-dispatched depth
	// (queued in the channel plus parked in the batcher), tracked
	// atomically at every admission; it never exceeds QueueDepth, and
	// MeanQueueDepth is the mean of the depth sampled at each admission,
	// so QueueHighWater ≥ ⌈MeanQueueDepth⌉ always.
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
	up := time.Since(s.started)
	s.stats.Lock()
	defer s.stats.Unlock()
	out := Stats{
		Submitted:      s.stats.submitted,
		Rejected:       s.stats.rejected,
		Served:         s.stats.served,
		Failed:         s.stats.failed,
		Canceled:       s.stats.canceled,
		Batches:        s.stats.batches,
		WarmBatches:    s.stats.warmBatches,
		ColdBatches:    s.stats.coldBatches,
		Restages:       s.stats.restages,
		Replans:        s.stats.replans,
		QueueHighWater: int(s.highWater.Load()),
		Uptime:         up,
		PerShard:       append([]ShardUsage(nil), s.stats.perShard...),
		PerModel:       make(map[string]ModelCounters, len(s.stats.perModel)),
	}
	out.DepthSum = s.depthSum.Load()
	out.DepthSamples = s.depthSamples.Load()
	if out.DepthSamples > 0 {
		out.MeanQueueDepth = float64(out.DepthSum) / float64(out.DepthSamples)
	}
	for name, c := range s.stats.perModel {
		out.PerModel[name] = *c
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		out.CacheHits = uint64(cs.Hits)
		out.CacheMisses = uint64(cs.Misses)
		out.CacheInserts = uint64(cs.Inserts)
		out.CacheEvictions = uint64(cs.Evictions)
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(s.stats.batched) / float64(out.Batches)
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

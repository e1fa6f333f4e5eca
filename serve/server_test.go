package serve

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/internal/node"
	"neuralcache/plan"
)

// scriptBackend is an analytic-priced backend whose every Execute
// announces what it runs on started and then waits until the test
// closes its release channel, or stop.
type scriptBackend struct {
	*AnalyticBackend
	started chan *scriptCall
	stop    chan struct{}
}

type scriptCall struct {
	model   string
	size    int
	cold    bool
	release chan struct{}
}

func (b *scriptBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	c := &scriptCall{model: model, size: len(inputs), cold: cold, release: make(chan struct{})}
	b.started <- c
	select {
	case <-c.release:
	case <-b.stop:
	}
	return make([]*neuralcache.InferenceResult, len(inputs)), nil
}

// dispatchLog is a node.Driver that records each dispatch.
type dispatchLog struct{ batches []node.Batch }

func (l *dispatchLog) Dispatched(_ *node.Node, b node.Batch)              { l.batches = append(l.batches, b) }
func (l *dispatchLog) Replanning(*node.Node, time.Duration, float64, int) {}
func (l *dispatchLog) Restaged(*node.Node, node.Op, time.Duration)        {}

// within returns what ch delivers, failing the test after 10 s.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s after 10s", what)
		panic("unreachable")
	}
}

// TestServerDispatchesAsTheNode is the driver differential: one script
// of admissions and batch completions drives a Server on the wall clock
// and a bare node.Node on a virtual one, and both must dispatch the
// same batches — model, size, group and warmth — and agree after every
// step on the warm and cold dispatch counts, the queue depth and the
// busy groups. Under NoLinger every decision follows from the order of
// admissions and completions, so the Server is deterministic here: each
// step dispatches at most one batch, decided before TrySubmit returns
// or before the released batch answers.
func TestServerDispatchesAsTheNode(t *testing.T) {
	sys := newSystem(t, 1)
	backend := &scriptBackend{
		AnalyticBackend: NewAnalyticBackend(sys, neuralcache.SmallCNN(), neuralcache.SmallResNet()),
		started:         make(chan *scriptCall, 16),
		stop:            make(chan struct{}),
	}
	srv, err := NewServer(backend, Options{MaxBatch: 3, MaxLinger: NoLinger, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(backend.stop) // a failed step must not leave Close waiting on a batch
	o := srv.Options()
	names := srv.names
	var log dispatchLog
	var ev node.Events
	n := node.New(node.Config{Name: "serve", Names: names, Pricer: backend, Groups: o.Replicas,
		GroupSize: o.GroupSize, MaxBatch: o.MaxBatch, Linger: o.MaxLinger}, &ev, &log)

	// A step admits a request of model (≥ 0) or completes the batch-th
	// dispatch (model -1). The script makes both groups busy, queues
	// both models behind them, then evicts, refills and finally reuses
	// warm groups, with one full batch of MaxBatch.
	type step struct{ model, batch int }
	admit := func(mi int) step { return step{model: mi} }
	done := func(b int) step { return step{model: -1, batch: b} }
	const a, b = 0, 1
	script := []step{
		admit(a), admit(a), admit(b), admit(b), admit(a), admit(a),
		done(0), done(1),
		admit(b), admit(a), admit(b),
		done(3), done(2),
		admit(b), admit(b), admit(b), admit(b),
		done(4), done(6), done(5), done(7),
		admit(a), admit(b),
		done(8), done(9),
	}
	var calls []*scriptCall
	queued := make([][]<-chan *Response, len(names)) // by model, admission order
	var riders [][]<-chan *Response                  // by dispatch
	for i, st := range script {
		now := time.Duration(i+1) * time.Millisecond
		before := len(log.batches)
		if st.model >= 0 {
			ch, err := srv.TrySubmitModel(context.Background(), names[st.model], nil)
			if err != nil {
				t.Fatal(err)
			}
			queued[st.model] = append(queued[st.model], ch)
			n.Enqueue(st.model, now, -1, 0)
		} else {
			want := log.batches[st.batch]
			close(calls[st.batch].release)
			for _, ch := range riders[st.batch] {
				r := within(t, ch, "response")
				if sh := shardFor(want.Group, sys.Config().Slices, o.GroupSize); r.Shard != sh || r.BatchSize != want.Size || r.Cold == want.Warm {
					t.Fatalf("step %d: batch %d answered on %v size %d cold %v, node ran it on %v size %d warm %v",
						i, st.batch, r.Shard, r.BatchSize, r.Cold, sh, want.Size, want.Warm)
				}
			}
			if err := n.Finish(now, want.Group); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Dispatch(now); err != nil {
			t.Fatal(err)
		}
		for _, want := range log.batches[before:] {
			c := within(t, backend.started, "execution")
			if mi := slices.Index(names, c.model); mi != want.Model || c.size != want.Size || c.cold == want.Warm {
				t.Fatalf("step %d: server dispatched %s×%d cold %v, node %s×%d warm %v",
					i, c.model, c.size, c.cold, names[want.Model], want.Size, want.Warm)
			}
			calls = append(calls, c)
			riders = append(riders, queued[want.Model][:want.Size])
			queued[want.Model] = queued[want.Model][want.Size:]
		}
		st := srv.Stats()
		if int(st.Batches) != n.Batches || int(st.WarmBatches) != n.Warm || int(st.ColdBatches) != n.Cold ||
			srv.QueueDepth() != n.Depth() || srv.BusyGroups() != n.BusyGroups() {
			t.Fatalf("step %d: server %d batches (%d warm, %d cold), depth %d, %d busy; node %d (%d warm, %d cold), depth %d, %d busy",
				i, st.Batches, st.WarmBatches, st.ColdBatches, srv.QueueDepth(), srv.BusyGroups(),
				n.Batches, n.Warm, n.Cold, n.Depth(), n.BusyGroups())
		}
	}
	if n.Batches != 10 || n.Warm == 0 || n.Cold == 0 {
		t.Fatalf("script ran %d batches, %d warm, %d cold: it no longer covers both claims", n.Batches, n.Warm, n.Cold)
	}
}

// hourBackend prices every batch at an hour, far past the test's end.
type hourBackend struct{ *scriptBackend }

func (hourBackend) ServiceTime(string, int, int) (time.Duration, error) { return time.Hour, nil }

// TestServerArmsNoTimerPerBatch: a batch completes when its executor
// reports, so a NoLinger, unplanned Server schedules nothing for it —
// while the batch runs, the event heap is empty and no timer is armed.
func TestServerArmsNoTimerPerBatch(t *testing.T) {
	backend := &scriptBackend{
		AnalyticBackend: NewAnalyticBackend(newSystem(t, 1), neuralcache.SmallCNN()),
		started:         make(chan *scriptCall, 1),
		stop:            make(chan struct{}),
	}
	srv, err := NewServer(hourBackend{backend}, Options{MaxBatch: 2, MaxLinger: NoLinger, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(backend.stop)
	ch, err := srv.TrySubmit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	call := within(t, backend.started, "execution")
	srv.mu.Lock()
	pending, armed := srv.events.Len(), srv.armed
	srv.mu.Unlock()
	if pending != 0 || armed {
		t.Fatalf("%d events pending, timer armed %v while the batch runs; want none", pending, armed)
	}
	close(call.release)
	if r := within(t, ch, "response"); r.Err != nil || r.BatchSize != 1 {
		t.Fatalf("response %+v", r)
	}
}

// settleGoroutines fails the test unless the goroutine count falls back
// to base within 1 s.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1s after Close, %d before NewServer:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerCloseLeavesNoGoroutines: after Close and every response,
// no goroutine the server started is left — not under overload with
// rejections, with requests canceled while queued, with a Submit
// blocked on a full queue (woken by Close, or by its own deadline), or
// with re-plan restages in flight.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	drain := func(t *testing.T, chans []<-chan *Response) {
		t.Helper()
		for _, ch := range chans {
			within(t, ch, "response")
		}
	}
	t.Run("overload", func(t *testing.T) {
		base := runtime.NumGoroutine()
		backend := newGateBackend(t)
		srv, err := NewServer(backend, Options{MaxBatch: 2, MaxLinger: NoLinger, QueueDepth: 4, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var chans []<-chan *Response
		for rejected := 0; rejected < 3; {
			ch, err := srv.TrySubmit(context.Background(), nil)
			switch err {
			case nil:
				chans = append(chans, ch)
			case ErrQueueFull:
				rejected++
			default:
				t.Fatal(err)
			}
		}
		close(backend.gate)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		drain(t, chans)
		settleGoroutines(t, base)
	})
	t.Run("canceled", func(t *testing.T) {
		base := runtime.NumGoroutine()
		backend := newGateBackend(t)
		srv, err := NewServer(backend, Options{MaxBatch: 1, MaxLinger: NoLinger, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		first, err := srv.TrySubmit(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		<-backend.started
		ctx, cancel := context.WithCancel(context.Background())
		chans := []<-chan *Response{first}
		for i := 0; i < 3; i++ {
			ch, err := srv.TrySubmit(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		cancel()
		close(backend.gate)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		drain(t, chans)
		settleGoroutines(t, base)
	})
	t.Run("blocked submit", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// Inception holds the one group ~34 ms per request, so the queue
		// stays full while Submit blocks and Close wakes it.
		srv, err := NewServer(NewAnalyticBackend(newSystem(t, 1), neuralcache.InceptionV3()),
			Options{MaxBatch: 1, MaxLinger: NoLinger, QueueDepth: 1, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		var chans []<-chan *Response
		for {
			ch, err := srv.TrySubmit(context.Background(), nil)
			if err == ErrQueueFull {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		submitErr := make(chan error, 1)
		go func() {
			_, err := srv.Submit(context.Background(), nil)
			submitErr <- err
		}()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		// A slow host may free the queue before Submit blocks; then the
		// request is served instead.
		if err := within(t, submitErr, "Submit return"); err != nil && err != ErrClosed {
			t.Fatalf("blocked Submit returned %v, want ErrClosed", err)
		}
		drain(t, chans)
		settleGoroutines(t, base)
	})
	t.Run("deadline while blocked", func(t *testing.T) {
		base := runtime.NumGoroutine()
		backend := newGateBackend(t)
		srv, err := NewServer(backend, Options{MaxBatch: 1, MaxLinger: NoLinger, QueueDepth: 1, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		first, err := srv.TrySubmit(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		<-backend.started
		chans := []<-chan *Response{first}
		for {
			ch, err := srv.TrySubmit(context.Background(), nil)
			if err == ErrQueueFull {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		// Nothing can dispatch while the gate is held, so only the
		// deadline can end this Submit's wait.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		submitErr := make(chan error, 1)
		go func() {
			_, err := srv.Submit(ctx, nil)
			submitErr <- err
		}()
		if err := within(t, submitErr, "Submit return"); err != context.DeadlineExceeded {
			t.Fatalf("blocked Submit returned %v, want its deadline", err)
		}
		close(backend.gate)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		drain(t, chans)
		settleGoroutines(t, base)
	})
	t.Run("replan restages", func(t *testing.T) {
		base := runtime.NumGoroutine()
		sys, models, backend := planBackend(t)
		p, err := plan.Compute(sys, models, planShares(0.8, 0.2), plan.Options{GroupSize: 7, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(backend, Options{
			MaxBatch: 4, MaxLinger: NoLinger, QueueDepth: 64, Plan: p,
			Replan: plan.ControllerConfig{
				Threshold: 0.3, HalfLife: 100 * time.Millisecond,
				MinInterval: 200 * time.Millisecond, MinObservations: 8,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var chans []<-chan *Response
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Replans == 0 && time.Now().Before(deadline) {
			switch ch, err := srv.TrySubmitModel(context.Background(), "resnet_18", nil); err {
			case nil:
				chans = append(chans, ch)
			case ErrQueueFull:
			default:
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		if srv.Stats().Replans == 0 {
			t.Fatal("the controller never re-planned")
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		drain(t, chans)
		settleGoroutines(t, base)
	})
}

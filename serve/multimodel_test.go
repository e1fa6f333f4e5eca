package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"neuralcache"
)

// twoModelBackend builds an analytic backend with Inception (default)
// and ResNet-18 resident.
func twoModelBackend(t testing.TB, workers int) *AnalyticBackend {
	t.Helper()
	return NewAnalyticBackend(newSystem(t, workers), neuralcache.InceptionV3(), neuralcache.ResNet18())
}

// TestSimulateTwoModelDeterministic: a mixed two-model load produces a
// byte-identical LoadReport on every run and for every worker count.
func TestSimulateTwoModelDeterministic(t *testing.T) {
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond, QueueDepth: 4096}
	load := Load{Rate: 4000, Requests: 20_000, Seed: 7, Poisson: true,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 0.7}, {Model: "resnet_18", Weight: 0.3}}}

	var reports []*LoadReport
	for i := 0; i < 3; i++ {
		rep, err := Simulate(twoModelBackend(t, 0), opts, load)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("run %d differs from run 0:\n%v\nvs\n%v", i, reports[i], reports[0])
		}
	}
	for _, workers := range []int{1, 8} {
		rep, err := Simulate(twoModelBackend(t, workers), opts, load)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports[0], rep) {
			t.Fatalf("workers=%d changed the simulated two-model schedule", workers)
		}
	}
	// Both models saw traffic, split roughly by the mix weights.
	if len(reports[0].PerModel) != 2 {
		t.Fatalf("per-model rows: %d, want 2", len(reports[0].PerModel))
	}
	inc, res := reports[0].PerModel[0], reports[0].PerModel[1]
	if inc.Model != "inception_v3" || res.Model != "resnet_18" {
		t.Fatalf("per-model order %q, %q", inc.Model, res.Model)
	}
	if inc.Offered == 0 || res.Offered == 0 {
		t.Fatalf("mix starved a model: %+v / %+v", inc, res)
	}
	if ratio := float64(inc.Offered) / float64(inc.Offered+res.Offered); ratio < 0.6 || ratio > 0.8 {
		t.Fatalf("inception share %.3f, mix says 0.7", ratio)
	}
	if got := inc.Offered + res.Offered; got != reports[0].Offered {
		t.Fatalf("per-model offered %d != total %d", got, reports[0].Offered)
	}
}

// TestSimulateWarmTrafficMatchesSingleModelBound: with two models
// resident but 100% of traffic on one, every dispatch after each
// replica's first is warm, so saturated throughput still converges to
// the single-model replica bound within 5%.
func TestSimulateWarmTrafficMatchesSingleModelBound(t *testing.T) {
	backend := twoModelBackend(t, 0)
	opts := Options{MaxBatch: 16, MaxLinger: time.Millisecond, QueueDepth: 1 << 20}
	st, err := backend.ServiceTime("inception_v3", opts.MaxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	replicas := backend.System().Replicas()
	bound := float64(replicas*opts.MaxBatch) / st.Seconds()
	rep, err := Simulate(backend, opts, Load{
		Rate: 2 * bound, Requests: 50_000, Seed: 42, Poisson: true,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := (rep.ThroughputPerSec - bound) / bound; rel > 0.01 || rel < -0.05 {
		t.Fatalf("100%%-warm throughput %.1f/s vs single-model bound %.1f/s: off by %.2f%%",
			rep.ThroughputPerSec, bound, rel*100)
	}
	// Reload is charged only on model switches: with one model in the
	// mix, the only cold dispatches are each replica's very first.
	if rep.ColdDispatches > replicas {
		t.Fatalf("%d cold dispatches exceed the %d replica cold starts", rep.ColdDispatches, replicas)
	}
	if rep.WarmDispatches+rep.ColdDispatches != rep.Batches {
		t.Fatalf("warm %d + cold %d != batches %d", rep.WarmDispatches, rep.ColdDispatches, rep.Batches)
	}
	// The idle resident model carried nothing.
	if res := rep.PerModel[1]; res.Model != "resnet_18" || res.Offered != 0 || res.Batches != 0 {
		t.Fatalf("idle resident model saw traffic: %+v", res)
	}
	if rep.MaxQueueDepth < int(math.Ceil(rep.MeanQueueDepth)) {
		t.Fatalf("max queue depth %d below mean %.1f", rep.MaxQueueDepth, rep.MeanQueueDepth)
	}
}

// TestSimulateModelChurnPaysReload: adversarial alternating traffic on a
// single replica forces staged-model switches; every switch is charged
// exactly one reload, and throughput lands measurably under the warm
// capacity bound.
func TestSimulateModelChurnPaysReload(t *testing.T) {
	backend := twoModelBackend(t, 0)
	opts := Options{MaxBatch: 1, MaxLinger: NoLinger, QueueDepth: 1 << 16, Replicas: 1}
	st, err := backend.ServiceTime("inception_v3", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(backend, opts, Load{
		Rate: 4 / st.Seconds(), Requests: 4_000, Seed: 3, Poisson: true,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A 50/50 alternating mix on one replica switches models roughly
	// half the time.
	if rep.ColdDispatches < rep.Batches/4 {
		t.Fatalf("only %d of %d dispatches cold under alternating traffic", rep.ColdDispatches, rep.Batches)
	}
	// Reload is charged exactly once per cold dispatch: total replica
	// busy time decomposes into per-model service plus per-cold reload.
	var wantBusy time.Duration
	for _, mu := range rep.PerModel {
		svc, err := backend.ServiceTime(mu.Model, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := backend.ReloadTime(mu.Model, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantBusy += time.Duration(mu.Batches)*svc + time.Duration(mu.ColdBatches)*rel
	}
	var busy time.Duration
	for _, u := range rep.PerShard {
		busy += u.Busy
	}
	if busy != wantBusy {
		t.Fatalf("replica busy %v, service+reload decomposition %v", busy, wantBusy)
	}
	// The churn tax is visible: saturated throughput stays well under
	// the warm capacity bound (the single-model saturation test reaches
	// ≥95% of its bound).
	if rep.ThroughputPerSec > 0.9*rep.CapacityPerSec {
		t.Fatalf("churn throughput %.1f/s within 90%% of warm capacity %.1f/s — reload not charged?",
			rep.ThroughputPerSec, rep.CapacityPerSec)
	}
}

// TestSimulateWarmFirstAffinity: with enough replicas and unsaturated
// traffic, each model stages its own replica once and every later
// dispatch finds it warm — cold dispatches equal the number of models.
func TestSimulateWarmFirstAffinity(t *testing.T) {
	backend := twoModelBackend(t, 0)
	opts := Options{MaxBatch: 1, MaxLinger: NoLinger, QueueDepth: 1 << 16}
	st, err := backend.ServiceTime("inception_v3", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Strictly serial traffic: uniform spacing with the interarrival gap
	// well above the worst service-plus-reload time, so every dispatch
	// finds all replicas free and lands on its model's warm one.
	rep, err := Simulate(backend, opts, Load{
		Rate: 0.2 / st.Seconds(), Requests: 500, Seed: 9,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdDispatches != 2 {
		t.Fatalf("%d cold dispatches, want exactly 2 (one staging per model)", rep.ColdDispatches)
	}
	if rep.WarmDispatches != rep.Batches-2 {
		t.Fatalf("warm %d, want %d", rep.WarmDispatches, rep.Batches-2)
	}
	// The two stagings live on different replicas.
	reloads := 0
	for _, u := range rep.PerShard {
		reloads += u.Reloads
		if u.Reloads > 1 {
			t.Fatalf("shard %s restaged %d times under affinity", u.Shard, u.Reloads)
		}
	}
	if reloads != 2 {
		t.Fatalf("%d shard reloads, want 2", reloads)
	}
}

// TestServerBitExactMultiModel: interleaved requests across two
// registered models, served through per-model micro-batches, stay
// byte-identical to direct System.Run on each model.
func TestServerBitExactMultiModel(t *testing.T) {
	const n = 12
	small := neuralcache.SmallCNN()
	small.InitWeights(7)
	res := neuralcache.SmallResNet()
	res.InitWeights(8)
	models := []*neuralcache.Model{small, res}

	ref := newSystem(t, 0)
	want := make([]*neuralcache.InferenceResult, n)
	for i := range want {
		m := models[i%2]
		out, err := ref.Run(m, randomInput(m, 99, i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	sys := newSystem(t, 4)
	srv, err := NewServer(NewBitExactBackend(sys, small, res),
		Options{MaxBatch: 4, MaxLinger: 5 * time.Millisecond, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan *Response, n)
	for i := 0; i < n; i++ {
		m := models[i%2]
		ch, err := srv.TrySubmitModel(context.Background(), m.Name(), randomInput(m, 99, i))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Model != models[i%2].Name() {
			t.Fatalf("request %d served as %q, want %q", i, r.Model, models[i%2].Name())
		}
		if !bytes.Equal(r.Result.Output.Data, want[i].Output.Data) {
			t.Fatalf("request %d (%s): served output differs from direct Run", i, r.Model)
		}
		if !reflect.DeepEqual(r.Result.Logits, want[i].Logits) {
			t.Fatalf("request %d (%s): served logits diverge", i, r.Model)
		}
	}
	st := srv.Stats()
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
	if st.PerModel[small.Name()].Served+st.PerModel[res.Name()].Served != n {
		t.Fatalf("per-model served %+v does not sum to %d", st.PerModel, n)
	}
	if st.ColdBatches == 0 || st.ColdBatches+st.WarmBatches != st.Batches {
		t.Fatalf("warm/cold accounting: %d warm, %d cold, %d batches",
			st.WarmBatches, st.ColdBatches, st.Batches)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerUnknownModelRejected: naming an unregistered model fails at
// admission.
func TestServerUnknownModelRejected(t *testing.T) {
	sys := newSystem(t, 1)
	srv, err := NewServer(NewAnalyticBackend(sys, neuralcache.InceptionV3()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.SubmitModel(context.Background(), "resnet_18", nil); err == nil {
		t.Fatal("unregistered model admitted")
	}
	if _, err := srv.TrySubmitModel(context.Background(), "nope", nil); err == nil {
		t.Fatal("unknown model TrySubmitted")
	}
	if _, err := Simulate(NewAnalyticBackend(sys, neuralcache.InceptionV3()), Options{},
		Load{Rate: 1, Requests: 1, Mix: []ModelShare{{Model: "nope", Weight: 1}}}); err == nil {
		t.Fatal("Simulate accepted a mix naming an unregistered model")
	}
}

// TestBitExactServerSurvivesWeightlessModel: a request for a resident
// model that never got InitWeights fails with an error response, and the
// same Server keeps serving the other model.
func TestBitExactServerSurvivesWeightlessModel(t *testing.T) {
	small := neuralcache.SmallCNN()
	small.InitWeights(3)
	bare := neuralcache.SmallResNet()
	srv, err := NewServer(NewBitExactBackend(newSystem(t, 1), small, bare), Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitModel(context.Background(), bare.Name(), randomInput(bare, 5, 0)); err == nil {
		t.Fatal("a request for a model without weights succeeded")
	}
	r, err := srv.SubmitModel(context.Background(), small.Name(), randomInput(small, 5, 1))
	if err != nil || r.Result == nil {
		t.Fatalf("the server stopped serving after a failed request: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// gateBackend is an analytic backend whose executions block until the
// test releases the gate, pinning the server in a saturated state
// deterministically. Each Execute announces itself on started before
// blocking.
type gateBackend struct {
	*AnalyticBackend
	gate    chan struct{}
	started chan struct{}
}

func newGateBackend(t testing.TB) *gateBackend {
	t.Helper()
	return &gateBackend{
		AnalyticBackend: NewAnalyticBackend(newSystem(t, 1), neuralcache.InceptionV3()),
		gate:            make(chan struct{}),
		started:         make(chan struct{}, 64),
	}
}

func (b *gateBackend) ServiceTime(model string, n, groupSize int) (time.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("serve: service time for batch of %d", n)
	}
	return time.Millisecond, nil
}

func (b *gateBackend) ReloadTime(model string, groupSize int) (time.Duration, error) { return 0, nil }

func (b *gateBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	b.started <- struct{}{}
	select {
	case <-b.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return make([]*neuralcache.InferenceResult, len(inputs)), nil
}

// TestServerCloseWhileSubmitBlocked is the regression test for the
// Close-vs-blocked-Submit deadlock: a Submit back-pressured on a full
// admission queue must not stall Close, and must itself return ErrClosed
// promptly — while the server is still draining — rather than waiting
// for queue space. Run under -race.
func TestServerCloseWhileSubmitBlocked(t *testing.T) {
	backend := newGateBackend(t)
	srv, err := NewServer(backend, Options{MaxBatch: 1, MaxLinger: NoLinger, QueueDepth: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate deterministically: the first request occupies the replica
	// (its Execute announces itself, then blocks on the gate), the
	// second sticks the batcher in its replica claim, and the queue then
	// fills. Nothing can drain while the gate is held.
	if _, err := srv.TrySubmit(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	if _, err := srv.TrySubmit(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // batcher pulls #2 and blocks acquiring a replica
	for {
		if _, err := srv.TrySubmit(context.Background(), nil); err == ErrQueueFull {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	submitErr := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), nil)
		submitErr <- err
	}()
	// Let the Submit reach the blocking queue send.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-submitErr:
		t.Fatalf("Submit returned early with %v; expected it to block on the full queue", err)
	default:
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close() }()
	// The blocked Submit must be released by Close immediately, even
	// though the server cannot drain until the gate opens.
	select {
	case err := <-submitErr:
		if err != ErrClosed {
			t.Fatalf("blocked Submit returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit still blocked 10s after Close — Close/Submit deadlock regressed")
	}
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned %v before in-flight batches finished", err)
	default:
	}
	close(backend.gate)
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not finish draining after the gate opened")
	}
	if _, err := srv.Submit(context.Background(), nil); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestServerQueueHighWaterConcurrent: the high-water mark is tracked
// atomically per enqueue, so a concurrent burst is fully visible — no
// under-reporting from sampling len(queue) after the fact — and the
// invariant MaxQueueDepth ≥ ⌈mean⌉ holds.
func TestServerQueueHighWaterConcurrent(t *testing.T) {
	backend := newGateBackend(t)
	srv, err := NewServer(backend, Options{MaxBatch: 1, MaxLinger: NoLinger, QueueDepth: 64, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the single replica and the batcher: one request executing
	// (gated), one stuck in dispatch claiming a replica.
	if _, err := srv.TrySubmit(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	if _, err := srv.TrySubmit(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Concurrent burst: every admission must be observed by the
	// high-water mark because the batcher cannot dequeue.
	const burst = 32
	done := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, err := srv.TrySubmit(context.Background(), nil)
			done <- err
		}()
	}
	for i := 0; i < burst; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.QueueHighWater < burst {
		t.Fatalf("high water %d under-reports a %d-request burst", st.QueueHighWater, burst)
	}
	// Depth counts queued-plus-parked requests; only the burst and the
	// two priming requests were ever undispatched at once.
	if st.QueueHighWater > burst+2 {
		t.Fatalf("high water %d exceeds the %d requests ever outstanding", st.QueueHighWater, burst+2)
	}
	if st.QueueHighWater < int(math.Ceil(st.MeanQueueDepth)) {
		t.Fatalf("high water %d below mean depth %.2f", st.QueueHighWater, st.MeanQueueDepth)
	}
	close(backend.gate)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCanceledResponseFields: a request canceled while queued is
// dropped at dispatch with meaningful accounting — Queued spans
// admission to drop, Shard is NoShard, BatchSize is 0.
func TestServerCanceledResponseFields(t *testing.T) {
	sys := newSystem(t, 1)
	m := neuralcache.InceptionV3()
	srv, err := NewServer(NewAnalyticBackend(sys, m), Options{MaxBatch: 1, MaxLinger: NoLinger})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := srv.TrySubmit(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.Err != context.Canceled {
		t.Fatalf("canceled request error %v", r.Err)
	}
	if r.Shard != NoShard {
		t.Fatalf("canceled request shard %v, want NoShard", r.Shard)
	}
	if r.Shard.String() != "none" {
		t.Fatalf("NoShard renders as %q", r.Shard.String())
	}
	if r.BatchSize != 0 {
		t.Fatalf("canceled request batch size %d, want 0", r.BatchSize)
	}
	if r.Queued <= 0 {
		t.Fatalf("canceled request Queued %v, want the admission→drop wait", r.Queued)
	}
	if r.Latency != 0 {
		t.Fatalf("canceled request Latency %v, want 0", r.Latency)
	}
	if r.Model != m.Name() {
		t.Fatalf("canceled request model %q", r.Model)
	}
	st := srv.Stats()
	if st.Canceled != 1 || st.PerModel[m.Name()].Canceled != 1 {
		t.Fatalf("cancellation accounting: %+v", st)
	}
}

// TestLoadTestBatchesUnderBacklog: a backlogged wall-clock server must
// drain the admission queue into full-ish micro-batches like the
// simulator does — not dispatch lingered singletons one channel receive
// at a time.
func TestLoadTestBatchesUnderBacklog(t *testing.T) {
	sys := newSystem(t, 0)
	m := neuralcache.SmallCNN()
	backend := NewAnalyticBackend(sys, m)
	opts := Options{MaxBatch: 16, MaxLinger: 2 * time.Millisecond, QueueDepth: 256, Replicas: 4}
	st, err := backend.ServiceTime("", opts.MaxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rate := 3 * float64(opts.Replicas*opts.MaxBatch) / st.Seconds()
	rep, err := LoadTest(srv, Load{Rate: rate, Requests: 2_000, Seed: 11, Poisson: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 {
		t.Fatal("backlogged run served nothing")
	}
	if rep.MeanBatch < float64(opts.MaxBatch)/2 {
		t.Fatalf("mean batch %.2f under 3x-capacity backlog; batching policy degraded to singletons (max %d)",
			rep.MeanBatch, opts.MaxBatch)
	}
	// Admission is bounded like the simulator's: the admitted backlog
	// (queued plus parked in the batcher) never exceeds QueueDepth, and
	// sustained overload therefore rejects.
	if rep.MaxQueueDepth > opts.QueueDepth {
		t.Fatalf("queue depth reached %d, bound %d", rep.MaxQueueDepth, opts.QueueDepth)
	}
	if rep.Rejected == 0 {
		t.Fatal("sustained 3x overload with a 256-deep queue rejected nothing")
	}
}

// TestLoadTestTwoModelWallClock drives the real server with a mixed
// load and checks the per-model rows and warm/cold counts line up.
func TestLoadTestTwoModelWallClock(t *testing.T) {
	sys := newSystem(t, 0)
	small := neuralcache.SmallCNN()
	res := neuralcache.SmallResNet()
	srv, err := NewServer(NewAnalyticBackend(sys, small, res),
		Options{MaxBatch: 8, MaxLinger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := LoadTest(srv, Load{
		Rate: 20_000, Requests: 400, Seed: 5, Poisson: true,
		Mix: []ModelShare{{Model: "small_cnn", Weight: 1}, {Model: "small_resnet", Weight: 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served+rep.Rejected != rep.Offered || rep.Offered != 400 {
		t.Fatalf("offered %d served %d rejected %d", rep.Offered, rep.Served, rep.Rejected)
	}
	if rep.WarmDispatches+rep.ColdDispatches != rep.Batches {
		t.Fatalf("warm %d + cold %d != batches %d", rep.WarmDispatches, rep.ColdDispatches, rep.Batches)
	}
	if len(rep.PerModel) != 2 {
		t.Fatalf("per-model rows %d, want 2", len(rep.PerModel))
	}
	servedSum, batchSum := 0, 0
	for _, mu := range rep.PerModel {
		servedSum += mu.Served
		batchSum += mu.Batches
		if mu.Offered == 0 {
			t.Fatalf("model %s starved by the mix", mu.Model)
		}
	}
	if servedSum != rep.Served || batchSum != rep.Batches {
		t.Fatalf("per-model sums served=%d batches=%d vs totals %d/%d",
			servedSum, batchSum, rep.Served, rep.Batches)
	}
	if rep.MaxQueueDepth < int(math.Ceil(rep.MeanQueueDepth)) {
		t.Fatalf("max queue depth %d below mean %.2f", rep.MaxQueueDepth, rep.MeanQueueDepth)
	}
}

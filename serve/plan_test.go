package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/plan"
)

// planBackend builds the two-model analytic backend plus the system and
// model list the planner needs.
func planBackend(t testing.TB) (*neuralcache.System, []*neuralcache.Model, *AnalyticBackend) {
	t.Helper()
	sys := newSystem(t, 0)
	models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18()}
	return sys, models, NewAnalyticBackend(sys, models[0], models[1])
}

func planShares(w1, w2 float64) []plan.Share {
	return []plan.Share{{Model: "inception_v3", Weight: w1}, {Model: "resnet_18", Weight: w2}}
}

// TestSimulatePlannedPinsResidency: a planned run pre-stages every
// pinned group (counted as restages, utilization charged) and then
// serves with zero cold dispatches — pinned groups never evict — while
// the report carries the plan and stays byte-identical across runs.
func TestSimulatePlannedPinsResidency(t *testing.T) {
	sys, models, backend := planBackend(t)
	p, err := plan.Compute(sys, models, planShares(0.8, 0.2),
		plan.Options{GroupSize: 7, MaxBatch: 16, RatePerSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxBatch: 16, MaxLinger: 20 * time.Millisecond, QueueDepth: 1 << 20, Plan: p}
	load := Load{Rate: 400, Requests: 20_000, Seed: 11, Poisson: true, Mix: []ModelShare{
		{Model: "inception_v3", Weight: 0.8}, {Model: "resnet_18", Weight: 0.2}}}
	rep, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	// Options.GroupSize 0 adopts the plan's k.
	if rep.groupSize() != 7 || rep.Replicas != 4 {
		t.Fatalf("planned run on k=%d with %d groups, want 7 and 4", rep.groupSize(), rep.Replicas)
	}
	if rep.ColdDispatches != 0 {
		t.Fatalf("planned steady mix paid %d cold dispatches, want 0", rep.ColdDispatches)
	}
	if rep.Restages != p.PredictedColdDispatches || rep.Restages != 4 {
		t.Fatalf("restages %d, want the plan's %d pre-stages", rep.Restages, p.PredictedColdDispatches)
	}
	if rep.Plan == nil || rep.Plan.GroupSize != 7 {
		t.Fatal("report does not carry the plan")
	}
	perShard := 0
	for i, u := range rep.PerShard {
		perShard += u.Restages
		if u.Restages != 1 {
			t.Fatalf("group %d restaged %d times, want exactly its pre-stage", i, u.Restages)
		}
		if u.Reloads != 0 {
			t.Fatalf("group %d reloaded %d times under pinning", i, u.Reloads)
		}
		if u.Requests == 0 {
			t.Fatalf("pinned group %d served nothing", i)
		}
	}
	if perShard != rep.Restages {
		t.Fatalf("per-shard restages %d != report %d", perShard, rep.Restages)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("planned Simulate is not byte-deterministic")
	}
	if !bytes.Contains(blob, []byte(`"plan"`)) || !bytes.Contains(blob, []byte(`"restages"`)) {
		t.Fatal("planned report JSON missing plan/restages fields")
	}
	if rep.String() == "" {
		t.Fatal("empty planned report rendering")
	}
}

// TestSimulatePlanOverflow: a zero-weight model serves from the plan's
// overflow pool — cold, but served — while the pinned warm set stays
// clean.
func TestSimulatePlanOverflow(t *testing.T) {
	sys, models, backend := planBackend(t)
	// All weight on inception; resnet's stray requests must ride the
	// overflow group.
	p, err := plan.Compute(sys, models, planShares(1, 0),
		plan.Options{GroupSize: 7, MaxBatch: 16, Overflow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Overflow) != 1 || len(p.Models[1].Groups) != 0 {
		t.Fatalf("plan %+v, want 1 overflow group and no resnet warm set", p)
	}
	rep, err := Simulate(backend, Options{MaxBatch: 16, MaxLinger: 5 * time.Millisecond, QueueDepth: 1 << 20, Plan: p},
		Load{Rate: 300, Requests: 5_000, Seed: 3, Poisson: true, Mix: []ModelShare{
			{Model: "inception_v3", Weight: 0.9}, {Model: "resnet_18", Weight: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerModel[1].Served == 0 {
		t.Fatal("overflow model served nothing")
	}
	overflowID := p.Overflow[0]
	for i, u := range rep.PerShard {
		if i != overflowID && u.Reloads != 0 {
			t.Fatalf("pinned group %d evicted (%d reloads); only overflow group %d may", i, u.Reloads, overflowID)
		}
	}
	if rep.ColdDispatches == 0 {
		t.Fatal("overflow traffic should dispatch cold at least once")
	}
}

// TestPlannerAvoidsPingPongRegime is the ping-pong regression: at
// GroupSize 14 the system has two replica groups for two models, and
// the reactive scheduler thrashes — every concurrent overlap evicts the
// other model's weights. The planner refuses the regime: CoSelect at
// the offered rate falls back to k=7, and the planned run pays strictly
// fewer cold dispatches than the reactive k=14 run under the same seed.
func TestPlannerAvoidsPingPongRegime(t *testing.T) {
	sys, models, backend := planBackend(t)
	load := Load{Rate: 400, Requests: 20_000, Seed: 11, Poisson: true, Mix: []ModelShare{
		{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 1}}}
	reactive, err := Simulate(backend,
		Options{MaxBatch: 16, MaxLinger: 20 * time.Millisecond, QueueDepth: 1 << 20, GroupSize: 14}, load)
	if err != nil {
		t.Fatal(err)
	}
	// The regime thrashes: a substantial share of dispatches is cold.
	if reactive.ColdDispatches < 100 {
		t.Fatalf("reactive k=14 paid only %d cold dispatches; the ping-pong regime should thrash", reactive.ColdDispatches)
	}
	p, err := plan.CoSelect(sys, models, planShares(1, 1),
		plan.Options{MaxBatch: 16, RatePerSec: load.Rate, GroupSizes: []int{7, 14}})
	if err != nil {
		t.Fatal(err)
	}
	if p.GroupSize != 7 {
		t.Fatalf("planner chose k=%d in the ping-pong regime, want the k=7 fallback", p.GroupSize)
	}
	planned, err := Simulate(backend,
		Options{MaxBatch: 16, MaxLinger: 20 * time.Millisecond, QueueDepth: 1 << 20, Plan: p}, load)
	if err != nil {
		t.Fatal(err)
	}
	if planned.ColdDispatches >= reactive.ColdDispatches {
		t.Fatalf("planned cold dispatches %d not below reactive %d", planned.ColdDispatches, reactive.ColdDispatches)
	}
	// Even counting the plan's own stagings, residency churn collapses.
	if planned.ColdDispatches+planned.Restages >= reactive.ColdDispatches {
		t.Fatalf("planned cold+restages %d not below reactive cold %d",
			planned.ColdDispatches+planned.Restages, reactive.ColdDispatches)
	}
}

// TestPlannedBeatsReactiveUnderDrift is the acceptance test: a
// deterministic two-model drifting mix (Load.MixSchedule inverts the
// 0.75/0.25 split mid-run), served planned+controlled versus reactive
// at the same seed. The planned run must pay strictly fewer cold
// dispatches and a lower p99, the controller must re-plan and restage,
// and the whole planned run must be byte-deterministic.
func TestPlannedBeatsReactiveUnderDrift(t *testing.T) {
	sys, models, backend := planBackend(t)
	load := Load{
		Rate: 600, Requests: 20_000, Seed: 11, Poisson: true,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 0.75}, {Model: "resnet_18", Weight: 0.25}},
		MixSchedule: []MixShift{{At: 15 * time.Second, Mix: []ModelShare{
			{Model: "inception_v3", Weight: 0.25}, {Model: "resnet_18", Weight: 0.75}}}},
	}
	opts := Options{MaxBatch: 8, MaxLinger: 5 * time.Millisecond, QueueDepth: 1 << 20, GroupSize: 7}
	reactive, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compute(sys, models, planShares(0.75, 0.25),
		plan.Options{GroupSize: 7, MaxBatch: opts.MaxBatch, RatePerSec: load.Rate})
	if err != nil {
		t.Fatal(err)
	}
	popts := opts
	popts.Plan = p
	popts.Replan = plan.ControllerConfig{Threshold: 0.15, HalfLife: 2 * time.Second}
	planned, err := Simulate(backend, popts, load)
	if err != nil {
		t.Fatal(err)
	}
	if planned.ColdDispatches >= reactive.ColdDispatches {
		t.Fatalf("planned cold dispatches %d not strictly below reactive %d",
			planned.ColdDispatches, reactive.ColdDispatches)
	}
	if planned.P99 >= reactive.P99 {
		t.Fatalf("planned p99 %v not strictly below reactive %v", planned.P99, reactive.P99)
	}
	if planned.Replans == 0 {
		t.Fatal("controller never re-planned across the mix inversion")
	}
	if planned.Restages <= p.PredictedColdDispatches {
		t.Fatalf("restages %d, want pre-stages (%d) plus controller rebalances",
			planned.Restages, p.PredictedColdDispatches)
	}
	// The final plan reflects the inverted mix: resnet's warm set grew.
	if planned.Plan == nil ||
		len(planned.Plan.Models[1].Groups) <= len(p.Models[1].Groups) {
		t.Fatalf("final plan did not chase the drift: %+v", planned.Plan)
	}
	// Deterministic end to end, controller included.
	blob, _ := json.Marshal(planned)
	again, err := Simulate(backend, popts, load)
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := json.Marshal(again)
	if !bytes.Equal(blob, blob2) {
		t.Fatal("planned+controlled Simulate is not byte-deterministic")
	}
	// The reactive baseline with Plan unset reports no plan fields.
	rblob, _ := json.Marshal(reactive)
	if bytes.Contains(rblob, []byte(`"plan"`)) || bytes.Contains(rblob, []byte(`"restages"`)) {
		t.Fatal("reactive report leaked plan fields into JSON")
	}
}

// TestMixScheduleShiftsTraffic pins MixShift semantics: arrivals before
// the shift draw from the base mix, arrivals after from the shifted
// one, in both open- and closed-loop generators.
func TestMixScheduleShiftsTraffic(t *testing.T) {
	_, _, backend := planBackend(t)
	load := Load{
		Rate: 1000, Requests: 4000, Seed: 5, Poisson: true,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 0}},
		MixSchedule: []MixShift{{At: 2 * time.Second, Mix: []ModelShare{
			{Model: "inception_v3", Weight: 0}, {Model: "resnet_18", Weight: 1}}}},
	}
	rep, err := Simulate(backend, Options{MaxBatch: 16, MaxLinger: 5 * time.Millisecond, QueueDepth: 1 << 20}, load)
	if err != nil {
		t.Fatal(err)
	}
	inc, res := rep.PerModel[0].Offered, rep.PerModel[1].Offered
	if inc+res != 4000 {
		t.Fatalf("offered %d+%d, want 4000", inc, res)
	}
	// ~2000 arrivals land on each side of the 2s shift.
	if inc < 1500 || inc > 2500 || res < 1500 || res > 2500 {
		t.Fatalf("shifted mix split %d/%d, want roughly 2000/2000", inc, res)
	}
	// Closed loop shares the schedule.
	crep, err := Simulate(backend, Options{MaxBatch: 16, MaxLinger: 5 * time.Millisecond, QueueDepth: 1 << 20},
		Load{Rate: 100, Requests: 2000, Seed: 5, Poisson: true, Concurrency: 16,
			Mix: load.Mix, MixSchedule: load.MixSchedule})
	if err != nil {
		t.Fatal(err)
	}
	if crep.PerModel[0].Offered == 0 || crep.PerModel[1].Offered == 0 {
		t.Fatalf("closed-loop schedule split %d/%d, want both sides of the shift",
			crep.PerModel[0].Offered, crep.PerModel[1].Offered)
	}
}

// TestMixValidationAndNormalization is the satellite: weights are
// relative (scale-invariant draws), individual zero weights are legal,
// and negative / NaN / zero-sum mixes and malformed schedules are
// rejected with clear errors.
func TestMixValidationAndNormalization(t *testing.T) {
	_, _, backend := planBackend(t)
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond, QueueDepth: 4096}
	base := Load{Rate: 2000, Requests: 10_000, Seed: 7, Poisson: true}

	// {7,3} and {0.7,0.3} draw identically: byte-identical reports.
	a := base
	a.Mix = []ModelShare{{Model: "inception_v3", Weight: 7}, {Model: "resnet_18", Weight: 3}}
	b := base
	b.Mix = []ModelShare{{Model: "inception_v3", Weight: 0.7}, {Model: "resnet_18", Weight: 0.3}}
	repA, err := Simulate(backend, opts, a)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Simulate(backend, opts, b)
	if err != nil {
		t.Fatal(err)
	}
	blobA, _ := json.Marshal(repA)
	blobB, _ := json.Marshal(repB)
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("mix weights are not normalized: {7,3} and {0.7,0.3} diverged")
	}

	// A zero weight is allowed and draws nothing.
	z := base
	z.Mix = []ModelShare{{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 0}}
	repZ, err := Simulate(backend, opts, z)
	if err != nil {
		t.Fatalf("zero weight rejected: %v", err)
	}
	if repZ.PerModel[1].Offered != 0 {
		t.Fatalf("zero-weight model drew %d arrivals", repZ.PerModel[1].Offered)
	}

	bad := []Load{
		// Negative weight.
		{Rate: 1, Requests: 1, Mix: []ModelShare{{Model: "inception_v3", Weight: -0.5}}},
		// Zero-sum mix.
		{Rate: 1, Requests: 1, Mix: []ModelShare{
			{Model: "inception_v3", Weight: 0}, {Model: "resnet_18", Weight: 0}}},
		// Unsorted schedule.
		{Rate: 1, Requests: 1, MixSchedule: []MixShift{
			{At: 2 * time.Second, Mix: []ModelShare{{Model: "inception_v3", Weight: 1}}},
			{At: time.Second, Mix: []ModelShare{{Model: "resnet_18", Weight: 1}}}}},
		// Shift at t=0.
		{Rate: 1, Requests: 1, MixSchedule: []MixShift{
			{At: 0, Mix: []ModelShare{{Model: "inception_v3", Weight: 1}}}}},
		// Empty shift mix.
		{Rate: 1, Requests: 1, MixSchedule: []MixShift{{At: time.Second}}},
		// Zero-sum shift mix.
		{Rate: 1, Requests: 1, MixSchedule: []MixShift{
			{At: time.Second, Mix: []ModelShare{{Model: "inception_v3", Weight: 0}}}}},
	}
	for i, l := range bad {
		if _, err := Simulate(backend, opts, l); err == nil {
			t.Fatalf("case %d: Simulate accepted %+v", i, l)
		}
	}
	// Unknown model in a scheduled shift fails fast at resolution.
	u := Load{Rate: 1, Requests: 1, MixSchedule: []MixShift{
		{At: time.Second, Mix: []ModelShare{{Model: "nope", Weight: 1}}}}}
	if _, err := Simulate(backend, opts, u); err == nil {
		t.Fatal("Simulate accepted an unknown model in the schedule")
	}
}

// TestPlanOptionsValidation pins the serve-side plan plumbing errors.
func TestPlanOptionsValidation(t *testing.T) {
	sys, models, backend := planBackend(t)
	p7, err := plan.Compute(sys, models, planShares(1, 1), plan.Options{GroupSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	load := Load{Rate: 1, Requests: 1}
	// Group-size mismatch.
	if _, err := Simulate(backend, Options{GroupSize: 14, Plan: p7}, load); err == nil {
		t.Fatal("Simulate accepted a plan for a different group size")
	}
	// Narrowed replicas no longer match the plan's group count.
	if _, err := Simulate(backend, Options{Plan: p7, Replicas: 2}, load); err == nil {
		t.Fatal("Simulate accepted a plan over a narrowed replica set")
	}
	// Controller without a plan.
	if _, err := Simulate(backend, Options{Replan: plan.ControllerConfig{Threshold: 0.1}}, load); err == nil {
		t.Fatal("Simulate accepted a replan controller without a plan")
	}
	if _, err := NewServer(backend, Options{Replan: plan.ControllerConfig{Threshold: 0.1}}); err == nil {
		t.Fatal("NewServer accepted a replan controller without a plan")
	}
	// A plan that leaves a registered model unservable: all groups
	// pinned to one model, no overflow.
	solo, err := plan.Compute(sys, models, planShares(1, 0), plan.Options{GroupSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(backend, Options{Plan: solo}, load); err == nil {
		t.Fatal("Simulate accepted a plan with an unservable model")
	}
	if _, err := NewServer(backend, Options{Plan: solo}); err == nil {
		t.Fatal("NewServer accepted a plan with an unservable model")
	}
	// A plan naming a model the backend does not register.
	foreign, err := plan.Compute(sys, append(models, neuralcache.SmallCNN()),
		[]plan.Share{{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 1}, {Model: "small_cnn", Weight: 1}},
		plan.Options{GroupSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(backend, Options{Plan: foreign}, load); err == nil {
		t.Fatal("Simulate accepted a plan naming an unregistered model")
	}
}

// TestServerPlannedLive runs the real asynchronous server under a plan:
// groups pre-stage at startup, every response is warm and lands inside
// its model's pinned pool, and the drift controller re-plans live when
// the mix inverts.
func TestServerPlannedLive(t *testing.T) {
	sys, models, backend := planBackend(t)
	p, err := plan.Compute(sys, models, planShares(0.8, 0.2),
		plan.Options{GroupSize: 7, MaxBatch: 4})
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
	defer srv.Close()
	if srv.Plan() != p {
		t.Fatal("server did not adopt the plan")
	}
	// groupOrdinal inverts shardFor at k=7 (2 groups per socket).
	groupOrdinal := func(sh Shard) int { return sh.Socket*2 + sh.Slice/7 }
	ctx := context.Background()
	// The 0.8/0.2 plan pins groups 0-2 to inception, 3 to resnet.
	for i := 0; i < 6; i++ {
		r, err := srv.SubmitModel(ctx, "inception_v3", nil)
		if err != nil {
			t.Fatal(err)
		}
		if g := groupOrdinal(r.Shard); g > 2 {
			t.Fatalf("inception served on group %d outside its pinned pool", g)
		}
		if r.Cold {
			t.Fatal("pre-staged pool served a cold dispatch")
		}
	}
	// Resnet-heavy traffic drives drift past the threshold; the
	// controller re-plans live and grows resnet's pool.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Replans == 0 && time.Now().Before(deadline) {
		if _, err := srv.SubmitModel(ctx, "resnet_18", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Replans == 0 {
		t.Fatal("live controller never re-planned under inverted traffic")
	}
	if st.Restages <= 4 {
		t.Fatalf("restages %d, want the 4 pre-stages plus rebalances", st.Restages)
	}
	next := srv.Plan()
	if next == p || len(next.Models[1].Groups) <= len(p.Models[1].Groups) {
		t.Fatalf("live re-plan did not grow the drifting model's pool: %+v", next)
	}
	// The repinned pool serves resnet on its new groups without panic;
	// a LoadTest on the planned server reports the plan and restages.
	// It offers half of what the tightest pinned pool serves at its
	// model's traffic share, so the queue stays well inside its 64-deep
	// bound even when the host is busy. Plan rows follow the backend's
	// registration order, as the mix does.
	mix := []ModelShare{{Model: "inception_v3", Weight: 1}, {Model: "resnet_18", Weight: 3}}
	rate := math.Inf(1)
	for i, mp := range next.Models {
		st, err := backend.ServiceTime(mp.Model, 4, next.GroupSize)
		if err != nil {
			t.Fatal(err)
		}
		capacity := float64(len(mp.Groups)*4) / st.Seconds()
		rate = math.Min(rate, capacity/2/(mix[i].Weight/4))
	}
	if rate <= 0 || math.IsInf(rate, 0) {
		t.Fatalf("re-planned pools give offered rate %v", rate)
	}
	rep, err := LoadTest(srv, Load{Rate: rate, Requests: 200, Seed: 9, Poisson: true, Mix: mix}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil {
		t.Fatal("LoadTest report missing the plan")
	}
	if rep.Served != 200 {
		t.Fatalf("served %d of 200", rep.Served)
	}
}

// TestServerPlannedBitExact: pinning is a placement policy, not a
// numeric one — outputs served under a plan stay byte-identical to
// direct System.Run.
func TestServerPlannedBitExact(t *testing.T) {
	const n = 6
	small := neuralcache.SmallCNN()
	small.InitWeights(7)
	res := neuralcache.SmallResNet()
	res.InitWeights(8)
	ref := newSystem(t, 0)
	sys := newSystem(t, 0)
	models := []*neuralcache.Model{small, res}
	p, err := plan.Compute(sys, models,
		[]plan.Share{{Model: small.Name(), Weight: 1}, {Model: res.Name(), Weight: 1}},
		plan.Options{GroupSize: 7, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(NewBitExactBackend(sys, small, res),
		Options{MaxBatch: 2, MaxLinger: 2 * time.Millisecond, QueueDepth: 64, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
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
		m := models[i%2]
		want, err := ref.Run(m, randomInput(m, 99, i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Result.Output.Data, want.Output.Data) {
			t.Fatalf("request %d: planned serving changed the output bytes", i)
		}
	}
}

// TestSweepGroupsStillReactive guards that SweepGroups ignores plans
// (it overrides GroupSize per point, which would mismatch).
func TestSweepGroupsStillReactive(t *testing.T) {
	sys, models, backend := planBackend(t)
	p, err := plan.Compute(sys, models, planShares(1, 1), plan.Options{GroupSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepGroups(backend, Options{Plan: p}, Load{Rate: 1, Requests: 1}, []int{1, 2}); err == nil {
		t.Fatal("SweepGroups accepted a fixed plan across a group sweep")
	}
}

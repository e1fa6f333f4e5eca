package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/obs"
	"neuralcache/plan"
	"neuralcache/serve"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testModels() []*neuralcache.Model {
	return []*neuralcache.Model{
		neuralcache.InceptionV3(),
		neuralcache.ResNet18(),
		neuralcache.SmallCNN(),
	}
}

// goldenScenario exercises every feature at once: heterogeneous nodes,
// a planned+replanning node, affinity routing, a hot-spot mix shift, a
// diurnal rate shift, drain/join and kill/join, trace and timeline.
func goldenScenario() (Options, Load) {
	opts := Options{
		Nodes: []NodeSpec{
			{},
			{Sockets: 1, Slices: 14},
			{GroupSize: 2, Plan: true, Replan: plan.ControllerConfig{
				Threshold: 0.2, HalfLife: 200 * time.Millisecond, MinInterval: 100 * time.Millisecond}},
		},
		Router: ModelAffinity{},
		Events: []NodeEvent{
			{At: 150 * time.Millisecond, Node: 1, Kind: DrainNode},
			{At: 300 * time.Millisecond, Node: 1, Kind: JoinNode},
			{At: 400 * time.Millisecond, Node: 0, Kind: KillNode},
			{At: 600 * time.Millisecond, Node: 0, Kind: JoinNode},
		},
		TimelineInterval: 100 * time.Millisecond,
	}
	load := Load{
		Rate: 30000, Requests: 20000, Seed: 11, Poisson: true,
		Mix: []serve.ModelShare{
			{Model: "inception_v3", Weight: 0.6},
			{Model: "resnet_18", Weight: 0.3},
			{Model: "small_cnn", Weight: 0.1},
		},
		MixSchedule: []serve.MixShift{
			{At: 250 * time.Millisecond, Mix: []serve.ModelShare{
				{Model: "inception_v3", Weight: 0.1},
				{Model: "resnet_18", Weight: 0.2},
				{Model: "small_cnn", Weight: 0.7},
			}},
		},
		RateSchedule: []RateShift{{At: 350 * time.Millisecond, Rate: 15000}},
	}
	return opts, load
}

// runGolden runs the golden scenario at the given per-node worker
// count and returns the report JSON and the trace JSON.
func runGolden(t *testing.T, workers int) ([]byte, []byte) {
	t.Helper()
	opts, load := goldenScenario()
	nodes := append([]NodeSpec(nil), opts.Nodes...)
	for i := range nodes {
		nodes[i].Workers = workers
	}
	opts.Nodes = nodes
	tr := &obs.Trace{}
	opts.Trace = tr
	rep, err := Simulate(testModels(), opts, load)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	var tb bytes.Buffer
	if err := tr.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	return blob, tb.Bytes()
}

// TestSimulateGoldenByteIdentical locks cluster determinism: the full
// kitchen-sink scenario must serialize byte-identically across runs,
// across functional-engine worker counts, and against the committed
// golden (analytic pricing never executes the engine, so workers
// cannot matter; every random draw is seeded; the virtual clock has no
// wall-clock leakage).
func TestSimulateGoldenByteIdentical(t *testing.T) {
	rep1, tr1 := runGolden(t, 0)
	rep2, tr2 := runGolden(t, 0)
	rep3, tr3 := runGolden(t, 3)
	if !bytes.Equal(rep1, rep2) {
		t.Error("report JSON differs between identical runs")
	}
	if !bytes.Equal(rep1, rep3) {
		t.Error("report JSON differs across worker counts")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("trace JSON differs between identical runs")
	}
	if !bytes.Equal(tr1, tr3) {
		t.Error("trace JSON differs across worker counts")
	}
	golden := filepath.Join("testdata", "golden_cluster.json")
	if *update {
		if err := os.WriteFile(golden, rep1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, want) {
		t.Error("report JSON diverged from testdata/golden_cluster.json (rerun with -update if intended)")
	}
}

// TestSimulateGoldenTraceDigest pins the golden scenario's trace by
// SHA-256, so a refactor that reorders emission within a timestamp is
// caught, not just run-to-run drift.
func TestSimulateGoldenTraceDigest(t *testing.T) {
	_, tr := runGolden(t, 0)
	sum := sha256.Sum256(tr)
	const wantSum = "0f21d9776bd44ca0d789d52d407948c8facb8bec94b57c2a1ef09281fef83517"
	if got := hex.EncodeToString(sum[:]); got != wantSum || len(tr) != 1917186 {
		t.Errorf("trace SHA-256 %s over %d bytes, want %s over 1917186", got, len(tr), wantSum)
	}
}

// checkConservation asserts the fleet's request ledger balances: every
// offered request is served, rejected or lost — nothing is stranded in
// a queue when the event heap drains.
func checkConservation(t *testing.T, r *Report) {
	t.Helper()
	if got := r.Served + r.Rejected + r.Lost; got != r.Offered {
		t.Errorf("conservation: offered %d != served %d + rejected %d + lost %d",
			r.Offered, r.Served, r.Rejected, r.Lost)
	}
	if r.Rejected != r.RejectedQueueFull+r.RejectedNoNode {
		t.Errorf("rejects by cause: %d != %d + %d", r.Rejected, r.RejectedQueueFull, r.RejectedNoNode)
	}
}

// TestTimelineWindowsSumToTotals: every windowed counter summed over
// the timeline equals the run total, and instantaneous fields start
// sane.
func TestTimelineWindowsSumToTotals(t *testing.T) {
	opts, load := goldenScenario()
	rep, err := Simulate(testModels(), opts, load)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if rep.Timeline == nil || len(rep.Timeline.Samples) == 0 {
		t.Fatal("no timeline")
	}
	var offered, served, rejected, warm, cold, restages, replans int
	for _, p := range rep.Timeline.Samples {
		offered += p.Offered
		served += p.Served
		rejected += p.Rejected
		warm += p.WarmDispatches
		cold += p.ColdDispatches
		restages += p.Restages
		replans += p.Replans
		if len(p.GroupUtil) != len(opts.Nodes) {
			t.Fatalf("sample has %d node utilizations for %d nodes", len(p.GroupUtil), len(opts.Nodes))
		}
	}
	if offered != rep.Offered || served != rep.Served || rejected != rep.Rejected {
		t.Errorf("windowed offered/served/rejected %d/%d/%d != totals %d/%d/%d",
			offered, served, rejected, rep.Offered, rep.Served, rep.Rejected)
	}
	if warm != rep.WarmDispatches || cold != rep.ColdDispatches {
		t.Errorf("windowed warm/cold %d/%d != totals %d/%d", warm, cold, rep.WarmDispatches, rep.ColdDispatches)
	}
	if restages != rep.Restages || replans != rep.Replans {
		t.Errorf("windowed restages/replans %d/%d != totals %d/%d", restages, replans, rep.Restages, rep.Replans)
	}
}

// TestAffinityBeatsLeastLoadedOnColds: on a multi-model hot-spot mix,
// rendezvous affinity must pay strictly fewer cold dispatches than
// least-loaded at the same seed — the fleet-level warm-first claim —
// and each model must be served by exactly one node.
func TestAffinityBeatsLeastLoadedOnColds(t *testing.T) {
	models := testModels()
	load := Load{
		Rate: 900, Requests: 8000, Seed: 23, Poisson: true,
		Mix: []serve.ModelShare{
			{Model: "inception_v3", Weight: 0.5},
			{Model: "resnet_18", Weight: 0.3},
			{Model: "small_cnn", Weight: 0.2},
		},
		MixSchedule: []serve.MixShift{
			{At: 4 * time.Second, Mix: []serve.ModelShare{
				{Model: "inception_v3", Weight: 0.2},
				{Model: "resnet_18", Weight: 0.7},
				{Model: "small_cnn", Weight: 0.1},
			}},
		},
	}
	run := func(r Router) *Report {
		rep, err := Simulate(models, Options{
			Nodes:  []NodeSpec{{}, {}, {}, {}},
			Router: r,
		}, load)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, rep)
		return rep
	}
	aff := run(ModelAffinity{})
	ll := run(LeastLoaded{})
	if aff.ColdDispatches >= ll.ColdDispatches {
		t.Errorf("affinity cold dispatches %d not below least-loaded %d", aff.ColdDispatches, ll.ColdDispatches)
	}
	for _, m := range aff.PerModel {
		if m.NodesServed != 1 {
			t.Errorf("affinity spread: model %s served by %d nodes", m.Model, m.NodesServed)
		}
	}
}

// TestNodeKillThroughputBound: kill one of three saturated identical
// nodes early in the run; the fleet must keep serving (no deadlock),
// lose only the dead node's queued and in-flight work, and land within
// 5% of the surviving two nodes' analytic capacity bound.
func TestNodeKillThroughputBound(t *testing.T) {
	m := neuralcache.InceptionV3()
	spec, err := NodeSpec{}.withDefaults(0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.system()
	if err != nil {
		t.Fatal(err)
	}
	backend := serve.NewAnalyticBackend(sys, m)
	st, err := backend.ServiceTime("", spec.MaxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodeCap := float64(spec.Replicas) * float64(spec.MaxBatch) / st.Seconds()
	// Saturate the survivors: arrivals outpace fleet capacity 4×, and
	// the deep queues (serve's bound-test idiom) keep every dispatch a
	// full MaxBatch batch, so the survivors run at their analytic bound
	// for the whole makespan.
	deep := NodeSpec{QueueDepth: 1 << 20}
	rep, err := Simulate([]*neuralcache.Model{m}, Options{
		Nodes:  []NodeSpec{deep, deep, deep},
		Events: []NodeEvent{{At: 20 * time.Millisecond, Node: 2, Kind: KillNode}},
	}, Load{Rate: 8 * nodeCap, Requests: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if rep.Lost == 0 {
		t.Error("kill of a saturated node lost nothing")
	}
	if rep.Nodes[2].State != "down" {
		t.Errorf("killed node state %q", rep.Nodes[2].State)
	}
	survivorCap := 2 * nodeCap
	if rep.CapacityPerSec != survivorCap {
		t.Errorf("surviving capacity %f, want %f", rep.CapacityPerSec, survivorCap)
	}
	if ratio := rep.ThroughputPerSec / survivorCap; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("post-kill throughput %.1f/s is %.3f of the %.1f/s survivor bound (want within 5%%)",
			rep.ThroughputPerSec, ratio, survivorCap)
	}
}

// TestSurvivorsReplanAfterKill: with per-node drift controllers and
// affinity routing, killing a model's home node re-homes its traffic
// onto a survivor whose controller must notice the shifted node-local
// mix and re-plan.
func TestSurvivorsReplanAfterKill(t *testing.T) {
	models := testModels()
	replan := plan.ControllerConfig{Threshold: 0.15, HalfLife: 100 * time.Millisecond, MinInterval: 50 * time.Millisecond}
	node := NodeSpec{Plan: true, Replan: replan}
	opts := Options{
		Nodes:  []NodeSpec{node, node, node},
		Router: ModelAffinity{},
	}
	resolved, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// The hot model's rendezvous home, and its fallback among survivors.
	names := []string{resolved.Nodes[0].Name, resolved.Nodes[1].Name, resolved.Nodes[2].Name}
	home, second := -1, -1
	var bestRank, secondRank uint64
	for i, n := range names {
		r := rendezvous("inception_v3", n)
		switch {
		case home < 0 || r > bestRank:
			second, secondRank = home, bestRank
			home, bestRank = i, r
		case second < 0 || r > secondRank:
			second, secondRank = i, r
		}
	}
	opts.Events = []NodeEvent{{At: 150 * time.Millisecond, Node: home, Kind: KillNode}}
	rep, err := Simulate(models, opts, Load{
		Rate: 3000, Requests: 4000, Seed: 9, Poisson: true,
		Mix: []serve.ModelShare{
			{Model: "inception_v3", Weight: 0.5},
			{Model: "resnet_18", Weight: 0.3},
			{Model: "small_cnn", Weight: 0.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	var hot *ModelUsage
	for i := range rep.PerModel {
		if rep.PerModel[i].Model == "inception_v3" {
			hot = &rep.PerModel[i]
		}
	}
	if hot == nil || hot.NodesServed < 2 {
		t.Fatalf("hot model did not re-home after its node died: %+v", hot)
	}
	if rep.Nodes[second].Replans == 0 {
		t.Errorf("new home %s absorbed the hot model without re-planning", names[second])
	}
}

// TestDrainJoinLifecycle: a drained node stops taking new traffic but
// finishes its queue; joining returns it warm. Draining the whole
// fleet turns the front door away (no-node rejects), and nothing is
// ever lost without a kill.
func TestDrainJoinLifecycle(t *testing.T) {
	m := neuralcache.InceptionV3()
	rep, err := Simulate([]*neuralcache.Model{m}, Options{
		Nodes: []NodeSpec{{}, {}},
		Events: []NodeEvent{
			{At: 100 * time.Millisecond, Node: 0, Kind: DrainNode},
			{At: 200 * time.Millisecond, Node: 0, Kind: JoinNode},
		},
	}, Load{Rate: 4000, Duration: 400 * time.Millisecond, Seed: 3, Poisson: true})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if rep.Lost != 0 {
		t.Errorf("drain/join lost %d requests", rep.Lost)
	}
	for _, n := range rep.Nodes {
		if n.State != "live" {
			t.Errorf("node %s ended %s", n.Node, n.State)
		}
		if n.Served == 0 {
			t.Errorf("node %s served nothing", n.Node)
		}
	}
	if rep.Nodes[0].Routed >= rep.Offered {
		t.Errorf("drained node was routed all %d arrivals", rep.Offered)
	}

	// Drain the whole fleet: arrivals have nowhere to go.
	rep, err = Simulate([]*neuralcache.Model{m}, Options{
		Nodes: []NodeSpec{{}, {}},
		Events: []NodeEvent{
			{At: 50 * time.Millisecond, Node: 0, Kind: DrainNode},
			{At: 50 * time.Millisecond, Node: 1, Kind: DrainNode},
		},
	}, Load{Rate: 4000, Duration: 150 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	if rep.RejectedNoNode == 0 {
		t.Error("fully drained fleet rejected nothing at the front door")
	}
}

// TestKilledPlannedNodeRejoinsCold: a planned node killed and rejoined
// must rebuild its warm set from scratch — a second full round of
// planner restages.
func TestKilledPlannedNodeRejoinsCold(t *testing.T) {
	models := testModels()
	node := NodeSpec{Plan: true}
	rep, err := Simulate(models, Options{
		Nodes:  []NodeSpec{node, node},
		Router: LeastLoaded{},
		Events: []NodeEvent{
			{At: 100 * time.Millisecond, Node: 1, Kind: KillNode},
			{At: 200 * time.Millisecond, Node: 1, Kind: JoinNode},
		},
	}, Load{
		Rate: 4000, Duration: 400 * time.Millisecond, Seed: 17, Poisson: true,
		Mix: []serve.ModelShare{
			{Model: "inception_v3", Weight: 0.6},
			{Model: "resnet_18", Weight: 0.4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	groups := rep.Nodes[1].Groups
	if rep.Nodes[1].Restages < 2*groups {
		t.Errorf("rejoined planned node restaged %d times, want at least two full rounds (%d)",
			rep.Nodes[1].Restages, 2*groups)
	}
	if rep.Nodes[1].State != "live" {
		t.Errorf("rejoined node state %q", rep.Nodes[1].State)
	}
}

// TestRejoinPlansFromObservedMix: a killed planned node that rejoins
// plans from the offered mix the cluster observed, not from the launch
// mix. The launch mix is nine parts Inception-v3 to one ResNet-18; then
// every arrival asks for ResNet-18, and node 1 dies and rejoins well
// after, so its pre-stage at launch stages mostly Inception-v3 and its
// rejoin mostly ResNet-18, as its restage spans show.
func TestRejoinPlansFromObservedMix(t *testing.T) {
	models := testModels()[:2]
	spec := NodeSpec{Plan: true}
	join := 700 * time.Millisecond
	tr := &obs.Trace{}
	rep, err := Simulate(models, Options{
		Nodes:  []NodeSpec{spec, spec},
		Router: LeastLoaded{},
		Events: []NodeEvent{
			{At: 150 * time.Millisecond, Node: 1, Kind: KillNode},
			{At: join, Node: 1, Kind: JoinNode},
		},
		Trace: tr,
	}, Load{
		Rate: 2000, Duration: 900 * time.Millisecond, Seed: 5, Poisson: true,
		Mix: []serve.ModelShare{
			{Model: "inception_v3", Weight: 0.9},
			{Model: "resnet_18", Weight: 0.1},
		},
		MixSchedule: []serve.MixShift{
			{At: 100 * time.Millisecond, Mix: []serve.ModelShare{{Model: "resnet_18", Weight: 1}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	staged := map[float64]map[string]int{} // restages of node 1 by start time, per model
	for _, e := range tr.Events() {
		if e.Name == "restage" && e.Pid == 2 {
			if staged[e.Ts] == nil {
				staged[e.Ts] = map[string]int{}
			}
			staged[e.Ts][e.Args.Model]++
		}
	}
	launch, rejoin := staged[0], staged[obs.Micros(join)]
	if len(staged) != 2 {
		t.Fatalf("node 1 restaged at %d instants, want launch and rejoin: %v", len(staged), staged)
	}
	if launch["inception_v3"] <= launch["resnet_18"] {
		t.Errorf("launch pre-stage %v, want mostly inception_v3", launch)
	}
	if rejoin["resnet_18"] <= rejoin["inception_v3"] {
		t.Errorf("rejoin restages %v, want mostly resnet_18 (the observed mix)", rejoin)
	}
}

// TestPlannedNodeServesModelsAbsentFromLaunchMix: a planned node plans
// over the launch mix, so a registered model with no share there must
// still get a warm set, or the requests for it that arrive after a mix
// shift queue forever and break conservation.
func TestPlannedNodeServesModelsAbsentFromLaunchMix(t *testing.T) {
	rep, err := Simulate(testModels(), Options{Nodes: []NodeSpec{{Plan: true}}}, Load{
		Rate: 500, Requests: 2000, Seed: 3, Poisson: true,
		Mix: []serve.ModelShare{
			{Model: "inception_v3", Weight: 0.5},
			{Model: "resnet_18", Weight: 0.5},
		},
		MixSchedule: []serve.MixShift{
			{At: time.Second, Mix: []serve.ModelShare{{Model: "small_cnn", Weight: 1}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	for _, m := range rep.PerModel {
		if m.Offered > 0 && m.Served == 0 {
			t.Errorf("%s: offered %d, served none", m.Model, m.Offered)
		}
	}
}

// TestLifecycleErrors: a scenario whose transitions don't make sense
// at fire time must fail the run, not silently skip.
func TestLifecycleErrors(t *testing.T) {
	m := neuralcache.InceptionV3()
	load := Load{Rate: 1000, Duration: 200 * time.Millisecond, Seed: 1}
	cases := [][]NodeEvent{
		{{At: 10 * time.Millisecond, Node: 0, Kind: KillNode},
			{At: 20 * time.Millisecond, Node: 0, Kind: KillNode}},
		{{At: 10 * time.Millisecond, Node: 0, Kind: KillNode},
			{At: 20 * time.Millisecond, Node: 0, Kind: DrainNode}},
		{{At: 10 * time.Millisecond, Node: 0, Kind: JoinNode}},
		{{At: 10 * time.Millisecond, Node: 0, Kind: DrainNode},
			{At: 20 * time.Millisecond, Node: 0, Kind: DrainNode}},
	}
	for i, events := range cases {
		_, err := Simulate([]*neuralcache.Model{m}, Options{
			Nodes: []NodeSpec{{}, {}}, Events: events,
		}, load)
		if err == nil {
			t.Errorf("case %d: invalid transition sequence accepted", i)
		}
	}
}

// TestOptionsValidation covers spec- and scenario-level rejects.
func TestOptionsValidation(t *testing.T) {
	m := neuralcache.InceptionV3()
	load := Load{Rate: 1000, Requests: 10}
	cases := []Options{
		{},
		{Nodes: []NodeSpec{{GroupSize: 3}}}, // 3 does not divide 14
		{Nodes: []NodeSpec{{Replan: plan.ControllerConfig{Threshold: 0.1}}}},        // replan without plan
		{Nodes: []NodeSpec{{Name: "a"}, {Name: "a"}}},                               // duplicate names
		{Nodes: []NodeSpec{{QueueDepth: 4, MaxBatch: 8}}},                           // queue below batch
		{Nodes: []NodeSpec{{}}, Events: []NodeEvent{{Node: 1, Kind: KillNode}}},     // node out of range
		{Nodes: []NodeSpec{{}}, Events: []NodeEvent{{Node: 0, Kind: EventKind(9)}}}, // unknown kind
		{Nodes: []NodeSpec{{}}, TimelineInterval: -time.Second},
	}
	for i, opts := range cases {
		if _, err := Simulate([]*neuralcache.Model{m}, opts, load); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Simulate(nil, Options{Nodes: []NodeSpec{{}}}, load); err == nil {
		t.Error("no models accepted")
	}
	if _, err := Simulate([]*neuralcache.Model{m}, Options{Nodes: []NodeSpec{{}}},
		Load{Rate: 1000, Requests: 10, Mix: []serve.ModelShare{{Model: "nope", Weight: 1}}}); err == nil {
		t.Error("unregistered mix model accepted")
	}
}

// TestMixObserver: the cluster-level EWMA decays with the default
// half-life and normalizes to shares.
func TestMixObserver(t *testing.T) {
	models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18()}
	o := plan.NewDecayedMix(len(models), plan.DefaultHalfLife)
	if o.Shares(models) != nil {
		t.Error("empty observer returned shares")
	}
	o.Add(0, 1, 0)
	o.Add(0, 1, 0)
	o.Add(0, 1, 0)
	o.Add(1, 1, 500*time.Millisecond)
	shares := o.Shares(models)
	if shares == nil {
		t.Fatal("no shares after observations")
	}
	// Model 0's mass 3 halved over one half-life: 1.5 vs 1.
	if got, want := shares[0].Weight, 1.5/2.5; !approxEqual(got, want) {
		t.Errorf("share %s = %f, want %f", shares[0].Model, got, want)
	}
	if got, want := shares[1].Weight, 1.0/2.5; !approxEqual(got, want) {
		t.Errorf("share %s = %f, want %f", shares[1].Model, got, want)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

package plan

import (
	"reflect"
	"testing"
	"time"

	"neuralcache"
)

// driftPlan builds the controller's starting plan: k=7, 0.8/0.2 mix,
// warm sets [0 1 2] / [3].
func driftPlan(t *testing.T) (*Controller, *Plan) {
	t.Helper()
	sys := newSystem(t)
	models := twoModels()
	p, err := Compute(sys, models, shares(0.8, 0.2), Options{GroupSize: 7, MaxBatch: 16, RatePerSec: 400})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(sys, models, p, ControllerConfig{
		Threshold: 0.15, HalfLife: time.Second, MinInterval: time.Second, MinObservations: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, p
}

// TestControllerReplanOnDrift drives the EWMA through a mix inversion
// and checks the re-plan: stable groups stay put, only the difference
// restages, and the damper/threshold gates hold before the drift.
func TestControllerReplanOnDrift(t *testing.T) {
	ctrl, _ := driftPlan(t)
	// Matching traffic: mass accumulates, drift stays ~0, no replan.
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += 100 * time.Millisecond
		ctrl.Observe("inception_v3", 8, now)
		ctrl.Observe("resnet_18", 2, now)
	}
	if d := ctrl.Drift(); d > 0.05 {
		t.Fatalf("drift %v under a matching mix", d)
	}
	if _, _, ok := ctrl.MaybeReplan(now); ok {
		t.Fatal("controller replanned without drift")
	}
	// Mix inverts: resnet-heavy traffic. Drift crosses the threshold.
	for i := 0; i < 40; i++ {
		now += 100 * time.Millisecond
		ctrl.Observe("inception_v3", 2, now)
		ctrl.Observe("resnet_18", 8, now)
	}
	if d := ctrl.Drift(); d <= 0.15 {
		t.Fatalf("drift %v did not cross the threshold after the inversion", d)
	}
	next, ops, ok := ctrl.MaybeReplan(now)
	if !ok {
		t.Fatal("controller did not replan past the threshold")
	}
	if got := len(next.Models[1].Groups); got != 3 {
		t.Fatalf("resnet warm set grew to %d groups, want 3", got)
	}
	// Stability: inception keeps its lowest group, resnet keeps its
	// old group and takes the freed ones — only those two restage.
	if !reflect.DeepEqual([]int(next.Models[0].Groups), []int{0}) {
		t.Fatalf("inception warm set %v, want [0]", next.Models[0].Groups)
	}
	if !reflect.DeepEqual([]int(next.Models[1].Groups), []int{1, 2, 3}) {
		t.Fatalf("resnet warm set %v, want [1 2 3]", next.Models[1].Groups)
	}
	if len(ops) != 2 || ops[0].Group != 1 || ops[1].Group != 2 {
		t.Fatalf("restage ops %+v, want groups 1 and 2", ops)
	}
	for _, op := range ops {
		if op.To != "resnet_18" || op.From != "inception_v3" || op.Cost <= 0 {
			t.Fatalf("restage op %+v", op)
		}
	}
	// The re-plan rebases the reference mix on the observed one.
	if d := ctrl.Drift(); d > 1e-9 {
		t.Fatalf("drift %v right after the re-plan, want 0 against the new plan", d)
	}
	// The damper blocks an immediate second replan even at high drift.
	ctrl.Observe("inception_v3", 100, now)
	if _, _, ok := ctrl.MaybeReplan(now + time.Millisecond); ok {
		t.Fatal("controller replanned inside MinInterval")
	}
}

// TestControllerGates pins the warm-up gates: no replan below the
// observation mass, none below the drift threshold, and unknown model
// names are ignored rather than polluting the EWMA.
func TestControllerGates(t *testing.T) {
	ctrl, _ := driftPlan(t)
	// Full inversion but only 8 requests of mass (< MinObservations 16).
	ctrl.Observe("resnet_18", 8, time.Second)
	if d := ctrl.Drift(); d <= 0.15 {
		t.Fatalf("drift %v, want past threshold", d)
	}
	if _, _, ok := ctrl.MaybeReplan(2 * time.Second); ok {
		t.Fatal("controller replanned on 8 observations")
	}
	ctrl.Observe("not_registered", 1000, 3*time.Second)
	if d := ctrl.Drift(); d <= 0.15 {
		t.Fatalf("unknown-model traffic changed drift to %v", d)
	}
}

// TestControllerEWMADecay pins the half-life: mass halves per HalfLife
// and old traffic stops dominating the drift signal.
func TestControllerEWMADecay(t *testing.T) {
	ctrl, _ := driftPlan(t)
	ctrl.Observe("inception_v3", 64, 0)
	// After two half-lives the 64 requests weigh 16; 48 fresh resnet
	// requests now dominate 3:1.
	ctrl.Observe("resnet_18", 48, 2*time.Second)
	if d := ctrl.Drift(); d < 0.5 {
		t.Fatalf("drift %v after decay, want resnet-dominated (≥ 0.5)", d)
	}
}

// TestReplanKeepsEveryModelServable: with no overflow pool, a re-plan
// driven by traffic that abandoned one model entirely must still leave
// that model a warm set — otherwise its next request would have no
// eligible group anywhere.
func TestReplanKeepsEveryModelServable(t *testing.T) {
	ctrl, _ := driftPlan(t)
	now := time.Duration(0)
	// Pure resnet traffic: inception's observed weight decays to zero.
	for i := 0; i < 60; i++ {
		now += 100 * time.Millisecond
		ctrl.Observe("resnet_18", 8, now)
	}
	next, ops, ok := ctrl.MaybeReplan(now)
	if !ok {
		t.Fatal("controller did not replan under a full mix inversion")
	}
	if got := len(next.Models[0].Groups); got != 1 {
		t.Fatalf("abandoned model kept %d groups, want the 1-group servability floor", got)
	}
	if got := len(next.Models[1].Groups); got != 3 {
		t.Fatalf("dominant model got %d groups, want 3", got)
	}
	if len(ops) != 2 {
		t.Fatalf("restage ops %+v, want 2", ops)
	}
}

// TestRebalance covers the re-plan step the controller runs: it is
// deterministic, keeps the group geometry, and moves nothing for an
// undrifted mix.
func TestRebalance(t *testing.T) {
	sys := newSystem(t)
	models := twoModels()
	old, err := Compute(sys, models, shares(0.8, 0.2), Options{GroupSize: 7, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GroupSize: old.GroupSize, MaxBatch: old.MaxBatch}
	next, ops, err := rebalance(sys, models, old, []float64{0.2, 0.8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	next2, ops2, err := rebalance(sys, models, old, []float64{0.2, 0.8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, next2) || !reflect.DeepEqual(ops, ops2) {
		t.Fatal("rebalance is not deterministic")
	}
	if next.GroupSize != old.GroupSize || next.Groups != old.Groups {
		t.Fatalf("rebalance changed the group geometry: %+v", next)
	}
	// An unchanged mix needs no ops.
	same, ops, err := rebalance(sys, models, old, []float64{0.8, 0.2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("no-drift rebalance emitted %+v", ops)
	}
	if !reflect.DeepEqual(same.Pinned(), old.Pinned()) {
		t.Fatal("no-drift rebalance moved groups")
	}
}

// TestNewControllerValidation pins constructor errors: disabled config,
// nil plan, and model-order mismatches.
func TestNewControllerValidation(t *testing.T) {
	sys := newSystem(t)
	models := twoModels()
	p, err := Compute(sys, models, shares(1, 1), Options{GroupSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(sys, models, p, ControllerConfig{}); err == nil {
		t.Fatal("NewController accepted a disabled config")
	}
	if _, err := NewController(sys, models, nil, ControllerConfig{Threshold: 0.1}); err == nil {
		t.Fatal("NewController accepted a nil plan")
	}
	swapped := []*neuralcache.Model{models[1], models[0]}
	if _, err := NewController(sys, swapped, p, ControllerConfig{Threshold: 0.1}); err == nil {
		t.Fatal("NewController accepted a model-order mismatch")
	}
	for _, bad := range []ControllerConfig{
		{Threshold: -0.1},
		{Threshold: 1.5},
		{Threshold: 0.1, HalfLife: -time.Second},
		{Threshold: 0.1, MinInterval: -time.Second},
		{Threshold: 0.1, MinObservations: -1},
	} {
		if _, err := NewController(sys, models, p, bad); err == nil {
			t.Fatalf("NewController accepted %+v", bad)
		}
	}
}

// TestControllerObserved pins the read-only mix accessors the
// observability layer samples: Observed is nil until the EWMA holds
// mass, then returns the normalized mix in plan model order, and
// neither it nor Drift perturbs the EWMA however often they are called.
func TestControllerObserved(t *testing.T) {
	ctrl, _ := driftPlan(t)
	if got := ctrl.Observed(); got != nil {
		t.Fatalf("Observed on an empty EWMA = %v, want nil", got)
	}
	ctrl.Observe("inception_v3", 6, time.Second)
	ctrl.Observe("resnet_18", 2, time.Second)
	mix := ctrl.Observed()
	if len(mix) != 2 || mix[0].Model != "inception_v3" || mix[1].Model != "resnet_18" {
		t.Fatalf("Observed order %v, want plan model order", mix)
	}
	if mix[0].Weight != 0.75 || mix[1].Weight != 0.25 {
		t.Fatalf("Observed weights %v/%v, want 0.75/0.25", mix[0].Weight, mix[1].Weight)
	}
	// Read-only: hammering the accessors changes nothing — uniform
	// decay cannot move a normalized mix, and these do not even decay.
	d := ctrl.Drift()
	for i := 0; i < 100; i++ {
		ctrl.Drift()
		ctrl.Observed()
	}
	if got := ctrl.Observed(); !reflect.DeepEqual(got, mix) {
		t.Fatalf("repeated reads moved the mix: %v -> %v", mix, got)
	}
	if got := ctrl.Drift(); got != d {
		t.Fatalf("repeated reads moved drift: %v -> %v", d, got)
	}
}

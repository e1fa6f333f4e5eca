package serve

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/plan"
)

// TestDriftPlannedBeatsReactive: on the drift scenario (driftRun) the
// planned + re-planning run pays fewer cold dispatches and a lower p99
// than the reactive one, re-plans at least once and restages more
// groups than its initial plan predicted, while the reactive report
// keeps the historical schema (no plan fields).
func TestDriftPlannedBeatsReactive(t *testing.T) {
	react, _ := driftRun(t, false, false)
	planned, _ := driftRun(t, true, false)
	blob, err := json.Marshal(react)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"plan", "restages"} {
		if _, ok := fields[key]; ok {
			t.Errorf("reactive report carries %q", key)
		}
	}
	if planned.Plan == nil || planned.Plan.GroupSize != 7 {
		t.Fatalf("planned report's plan %+v, want group size 7", planned.Plan)
	}
	if planned.ColdDispatches >= react.ColdDispatches {
		t.Errorf("planned cold dispatches %d not below reactive %d", planned.ColdDispatches, react.ColdDispatches)
	}
	if planned.P99 >= react.P99 {
		t.Errorf("planned p99 %v not below reactive %v", planned.P99, react.P99)
	}
	if planned.Replans < 1 {
		t.Errorf("planned run never re-planned")
	}
	if planned.Restages <= planned.Plan.PredictedColdDispatches {
		t.Errorf("%d restages, want more than the %d the plan predicted", planned.Restages, planned.Plan.PredictedColdDispatches)
	}
	if planned.Served != 30000 || react.Served != 30000 {
		t.Errorf("served %d planned, %d reactive, want 30000", planned.Served, react.Served)
	}
}

// TestDriftTraceMatchesReport: the drift run's trace and timeline agree
// with its report — one re-plan instant per re-plan, each above the
// 0.15 threshold; one restage span per restage; one warm batch span per
// warm dispatch; timeline windows summing to the served and re-plan
// totals — and the reactive run's cold batches carry reload sub-spans.
func TestDriftTraceMatchesReport(t *testing.T) {
	rep, tr := driftRun(t, true, true)
	var replans, restages, warm int
	for _, e := range tr.Events() {
		switch {
		case e.Cat == "control" && e.Name == "replan":
			replans++
			if e.Args.Drift <= 0.15 {
				t.Errorf("re-plan at %vµs fired at drift %v", e.Ts, e.Args.Drift)
			}
		case e.Cat == "restage":
			restages++
		case e.Cat == "batch" && !e.Args.Cold:
			warm++
		}
	}
	if replans != rep.Replans || replans < 1 {
		t.Errorf("%d re-plan instants, report has %d replans (want ≥ 1)", replans, rep.Replans)
	}
	if restages != rep.Restages || restages == 0 {
		t.Errorf("%d restage spans, report has %d restages (want > 0)", restages, rep.Restages)
	}
	if warm != rep.WarmDispatches || warm == 0 {
		t.Errorf("%d warm batch spans, report has %d warm dispatches (want > 0)", warm, rep.WarmDispatches)
	}
	if rep.Timeline == nil || rep.Timeline.Interval != 500*time.Millisecond {
		t.Fatalf("timeline %+v, want a 500ms interval", rep.Timeline)
	}
	var served, tlReplans int
	for _, p := range rep.Timeline.Samples {
		served += p.Served
		tlReplans += p.Replans
	}
	if served != rep.Served || rep.Served != 30000 {
		t.Errorf("timeline serves %d, report %d, want 30000", served, rep.Served)
	}
	if tlReplans != rep.Replans {
		t.Errorf("timeline re-plans %d, report %d", tlReplans, rep.Replans)
	}

	_, react := driftRun(t, false, true)
	var cold, reloads int
	for _, e := range react.Events() {
		switch {
		case e.Cat == "batch" && e.Args.Cold:
			cold++
		case e.Cat == "reload":
			reloads++
		}
	}
	if cold == 0 {
		t.Error("reactive drift run paid no cold dispatches")
	}
	if reloads == 0 {
		t.Error("cold batches carry no reload sub-spans")
	}
}

// TestCachedDriftRun covers a front-cache in front of a re-planning
// node, sim-node's setup at test scale: Inception-v3/ResNet-18 traffic
// at 0.8/0.2 that inverts halfway, a plan.CoSelect plan at the offered
// rate with a 0.15 re-plan threshold, and 96 cache entries against
// Zipf(1.1) reuse over 4,096 inputs. The report must repeat exactly,
// at any engine worker count, and conserve requests, probes and
// dispatches, with hits and at least one re-plan.
func TestCachedDriftRun(t *testing.T) {
	const rate, requests = 600.0, 6000
	mix := func(w float64) []ModelShare {
		return []ModelShare{{Model: "inception_v3", Weight: w}, {Model: "resnet_18", Weight: 1 - w}}
	}
	half := time.Duration(requests / rate / 2 * float64(time.Second))
	load := Load{Rate: rate, Requests: requests, Seed: 1, Poisson: true,
		Mix: mix(0.8), MixSchedule: []MixShift{{At: half, Mix: mix(0.2)}},
		Reuse: Reuse{ZipfS: 1.1, Universe: 4096}}
	run := func(workers int) *LoadReport {
		t.Helper()
		sys := newSystem(t, workers)
		models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18()}
		p, err := plan.CoSelect(sys, models, planShares(0.8, 0.2), plan.Options{MaxBatch: 8, RatePerSec: rate})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Simulate(NewAnalyticBackend(sys, models[0], models[1]), Options{
			MaxBatch: 8, MaxLinger: 5 * time.Millisecond, Plan: p,
			Replan: plan.ControllerConfig{Threshold: 0.15}, Cache: CacheOptions{Capacity: 96},
		}, load)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run(1)
	if again := run(1); !reflect.DeepEqual(again, rep) {
		t.Fatal("the same run gave two reports")
	}
	if wide := run(4); !reflect.DeepEqual(wide, rep) {
		t.Fatal("Workers 4 changed the report")
	}
	if rep.Offered != requests || rep.Offered != rep.Served+rep.Rejected {
		t.Errorf("offered %d, served %d + rejected %d", rep.Offered, rep.Served, rep.Rejected)
	}
	if rep.CacheHits+rep.CacheMisses != rep.Offered {
		t.Errorf("hits %d + misses %d != offered %d", rep.CacheHits, rep.CacheMisses, rep.Offered)
	}
	if rep.WarmDispatches+rep.ColdDispatches != rep.Batches {
		t.Errorf("warm %d + cold %d != batches %d", rep.WarmDispatches, rep.ColdDispatches, rep.Batches)
	}
	if rep.CacheHits == 0 || rep.Replans < 1 {
		t.Errorf("%d hits, %d replans; want hits and at least one re-plan", rep.CacheHits, rep.Replans)
	}
}

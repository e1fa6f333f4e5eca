package serve

import (
	"encoding/json"
	"testing"
	"time"
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

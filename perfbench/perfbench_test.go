package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny keeps every test run short: two chunks, one probe repetition,
// short side runs.
var tiny = sizes{chunks: 2, probeReps: 1, microOps: 64, sideRun: 100 * time.Millisecond}

// deterministicCounts are the per-layer metrics that must repeat
// exactly on every run, whatever the seed: emergent cycle counters and
// the counters of the canonical simulated reports. A change that only
// speeds the program up leaves every one of them unchanged.
var deterministicCounts = []string{
	"geometry.arrays_used_share",
	"core.compute_cycles.small", "core.compute_cycles.int4", "core.compute_cycles.wide",
	"core.access_cycles.small", "core.access_cycles.int4", "core.access_cycles.wide",
	"core.fabric_cycles.wide",
	"serve.service_time_calls",
	"serve.sim.served", "serve.sim.rejected", "serve.sim.cold", "serve.sim.restages",
	"serve.sim.replans", "serve.sim.cache_hit_rate", "serve.sim.virtual_p99_ms",
	"cluster.picks",
	"cluster.sim.served", "cluster.sim.lost", "cluster.sim.rejected", "cluster.sim.cold",
	"cluster.sim.restages", "cluster.sim.virtual_p99_ms",
	"obs.trace_events",
}

// lastLine parses the result object the harness prints last.
func lastLine(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// checkMetrics asserts that r carries exactly defs, with their units,
// and no failed op.
func checkMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %q", d.name, v, d.unit)
		}
	}
}

func TestEndToEndEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := runEndToEnd(&out, name, 3, 300*time.Millisecond, tiny); err != nil {
				t.Fatal(err)
			}
			r := lastLine(t, &out)
			checkMetrics(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs the traced mode twice, on different
// seeds: every per-layer metric must be printed with its unit, the trace
// file must be a Chrome trace-event document, and the deterministic
// counts must be identical.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("traced mode drives every workload and probe")
	}
	var runs []result
	for _, seed := range []int64{1, 2} {
		var out bytes.Buffer
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := runTraced(&out, "sim-node", seed, 400*time.Millisecond, tiny, path); err != nil {
			t.Fatal(err)
		}
		r := lastLine(t, &out)
		checkMetrics(t, r, perLayer)
		runs = append(runs, r)

		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name  string  `json:"name"`
				Phase string  `json:"ph"`
				Pid   int     `json:"pid"`
				Dur   float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("trace file: %v", err)
		}
		spans := map[int]int{}
		for _, e := range doc.TraceEvents {
			if e.Phase == "X" {
				spans[e.Pid]++
			}
		}
		for _, pid := range []int{pidBitExact, pidSimNode, pidSimFleet, pidProbes} {
			if spans[pid] == 0 {
				t.Errorf("no spans on process %d", pid)
			}
		}
	}
	for _, name := range deterministicCounts {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b {
			t.Errorf("%s = %v, then %v", name, a, b)
		}
	}
	for _, name := range []string{"serve.sim.served", "serve.sim.restages", "serve.sim.replans",
		"cluster.sim.served", "cluster.sim.lost", "cluster.picks", "core.compute_cycles.small"} {
		if runs[0].Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, runs[0].Metrics[name].Value)
		}
	}
}

// TestCorruptedReferenceFails flips one reference byte: the warm-up op
// and every request on that input must then count as failed.
func TestCorruptedReferenceFails(t *testing.T) {
	var tl tally
	wl, err := newBitExact(5, &tl)
	if err != nil {
		t.Fatal(err)
	}
	bx := wl.(*bitExact)
	for _, ref := range bx.refs[0] {
		ref.Output.Data[0] ^= 1
	}
	inst, err := bx.build(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if tl.failed != 1 {
		t.Fatalf("warm-up: %d of %d failed, want 1", tl.failed, tl.attempted)
	}
	var p phase
	if err := timed(inst, 300*time.Millisecond, &p); err != nil {
		t.Fatal(err)
	}
	if tl.failed < 2 {
		t.Errorf("%d of %d failed after serving corrupted references", tl.failed, tl.attempted)
	}
}

// TestCorruptedReportFails alters the expected report of each
// simulator: the next op must count as failed.
func TestCorruptedReportFails(t *testing.T) {
	var tl tally
	node, err := buildNode(7, &tl, nil)
	if err != nil {
		t.Fatal(err)
	}
	node.want.Served--
	node.op(&phase{})
	fleet, err := buildFleet(7, &tl, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet.want.Lost++
	fleet.op(&phase{})
	if tl.attempted != 4 || tl.failed != 2 {
		t.Errorf("%d of %d failed, want 2 of 4", tl.failed, tl.attempted)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json at the repository root in step
// with the harness: same workloads, same metrics, same units.
func TestBenchmarkFile(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, harness has %v", names, workloadNames())
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, harness has %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, harness has %s %s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

package cluster

import "testing"

// quietScenario is goldenScenario with its timeline off: the fleet's
// scheduling, routing and pricing with no observability attached.
func quietScenario() (Options, Load) {
	opts, load := goldenScenario()
	opts.TimelineInterval = 0
	return opts, load
}

// BenchmarkClusterSimulate runs the golden scenario's 20,000 requests
// over its three nodes per iteration, trace and timeline off.
func BenchmarkClusterSimulate(b *testing.B) {
	opts, load := quietScenario()
	models := testModels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(models, opts, load); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(load.Requests)*float64(b.N)/b.Elapsed().Seconds(), "req/wallsec")
}

// TestSimulateAllocations bounds a 20,000-request fleet run at 1,000
// allocations, 5% of its request count: routing reuses one view slice,
// each latency is recorded once in a presized slice, and dispatches cut
// their batch copies from the nodes' chunks, so no request allocates on
// its own. Node construction, planning and the report are what remains.
func TestSimulateAllocations(t *testing.T) {
	opts, load := quietScenario()
	models := testModels()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Simulate(models, opts, load); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("Simulate of %d requests allocated %.0f times, want under 1000", load.Requests, allocs)
	}
}

package core

import "testing"

// TestEstimateAllocations bounds what pricing a batch allocates. A cold
// EstimateDensity is a walk plus a replay, so each is bounded on its
// own. The walk allocates its Priced and that Priced's three slices,
// the same for every net and nothing per layer. A replay allocates its
// report and the report's layer slice. A reload allocates only its
// result.
func TestEstimateAllocations(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range bundledNets {
		net := build()
		walk := testing.AllocsPerRun(20, func() {
			if _, err := sys.Price(net); err != nil {
				t.Fatal(err)
			}
		})
		if walk > 4 {
			t.Errorf("%s: Price allocated %.0f times, want at most 4", net.Name, walk)
		}
		p, err := sys.Price(net)
		if err != nil {
			t.Fatal(err)
		}
		replay := testing.AllocsPerRun(20, func() {
			if _, err := p.Report(4, 0.5); err != nil {
				t.Fatal(err)
			}
		})
		if replay > 2 {
			t.Errorf("%s: Report allocated %.0f times, want at most 2", net.Name, replay)
		}
		rel := testing.AllocsPerRun(20, func() {
			if _, err := sys.EstimateReload(net); err != nil {
				t.Fatal(err)
			}
		})
		if rel > 2 {
			t.Errorf("%s: EstimateReload allocated %.0f times, want at most 2", net.Name, rel)
		}
	}
}

// BenchmarkEstimate prices every bundled net on the paper cache, the
// batch cycling through 1–8.
func BenchmarkEstimate(b *testing.B) {
	sys, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, build := range bundledNets {
		net := build()
		b.Run(net.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.EstimateDensity(net, i%8+1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package core

import "testing"

// TestEstimateAllocations bounds what pricing a batch allocates. An
// estimate walks the network once: it allocates its report, the
// report's layer slice and one flattened leaf list, and nothing per
// layer. A reload allocates only its result.
func TestEstimateAllocations(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range bundledNets {
		net := build()
		est := testing.AllocsPerRun(20, func() {
			if _, err := sys.EstimateDensity(net, 4, 0.5); err != nil {
				t.Fatal(err)
			}
		})
		if est > 4 {
			t.Errorf("%s: EstimateDensity allocated %.0f times, want at most 4", net.Name, est)
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

package neuralcache

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// A System walks each model once per replica-group size and prices
// every batch and density by replaying that walk. These tests hold the
// kept walks to what a fresh System computes, from several goroutines
// at once (run them under `go test -race`), and bound what a replay
// allocates.

// TestReplicaGroupWalksMatchFreshSystems prices every bundled model on
// one System, interleaving models, group sizes, batches and densities
// across goroutines, and compares each estimate with a fresh System's.
func TestReplicaGroupWalksMatchFreshSystems(t *testing.T) {
	cfg := DefaultConfig()
	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := ModelNames()
	models := make([]*Model, len(names))
	for i, name := range names {
		if models[i], err = ModelByName(name); err != nil {
			t.Fatal(err)
		}
	}
	type job struct {
		model   int
		batch   int
		k       int
		density float64
	}
	var jobs []job
	for batch := 1; batch <= 16; batch++ {
		for _, k := range shared.GroupSizes() {
			for _, density := range []float64{1, 0.5} {
				for mi := range models {
					jobs = append(jobs, job{mi, batch, k, density})
				}
			}
		}
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += goroutines {
				j := jobs[i]
				key := fmt.Sprintf("%s/k%d/b%d/d%g", names[j.model], j.k, j.batch, j.density)
				got, err := shared.EstimateReplicaGroupDensity(models[j.model], j.batch, j.k, j.density)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				fresh, err := New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := ModelByName(names[j.model])
				if err != nil {
					t.Error(err)
					return
				}
				want, err := fresh.EstimateReplicaGroupDensity(m, j.batch, j.k, j.density)
				if err != nil {
					t.Errorf("%s on a fresh System: %v", key, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: kept walk priced\n%+v\na fresh System\n%+v", key, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplicaGroupEstimateErrors checks that a kept walk leaves the
// error order alone: group size, then batch, then density, then the
// walk's own errors. ServiceTime, which prices no density, keeps the
// same order, and ReloadTime prices without walking: without filter
// packing Inception-v3 does not map, yet its reload prices.
func TestReplicaGroupEstimateErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilterPacking = false
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := InceptionV3()
	const walk = "mapping: Mixed_6b/conv_30 needs 1024 lanes per convolution, exceeding an array pair (512)"
	for _, c := range []struct {
		batch, k      int
		density       float64
		want, service string
	}{
		{0, 3, 0, "core: replica group of 3 slices does not divide the 14-slice cache", "core: replica group of 3 slices does not divide the 14-slice cache"},
		{0, 1, 0, "core: batch size 0", "core: batch size 0"},
		{1, 1, 0, "core: slice density 0 outside (0, 1]", walk},
		{1, 1, 1, walk, walk},
	} {
		// Twice: the failed walk is not kept.
		for i := 0; i < 2; i++ {
			_, err := sys.EstimateReplicaGroupDensity(m, c.batch, c.k, c.density)
			if err == nil || err.Error() != c.want {
				t.Errorf("batch %d, k %d, density %g: error %v, want %q", c.batch, c.k, c.density, err, c.want)
			}
			if _, err := sys.ServiceTime(m, c.batch, c.k); err == nil || err.Error() != c.service {
				t.Errorf("ServiceTime batch %d, k %d: error %v, want %q", c.batch, c.k, err, c.service)
			}
		}
	}
	if _, err := sys.ReloadTime(m, 3); err == nil {
		t.Error("ReloadTime accepted a non-divisor group size")
	}
	rel, err := sys.ReloadTime(m, 1)
	if err != nil {
		t.Fatalf("ReloadTime without filter packing: %v", err)
	}
	if got := rel.Seconds(); math.Abs(got-0.01287) > 5e-6 {
		t.Errorf("Inception-v3 reload %v, want 0.01287 s", rel)
	}
}

// TestReplicaGroupReplayAllocations bounds a kept Inception-v3 walk's
// replay: the core report and its layers, then the facade Estimate and
// its phase and layer slices, under 4 KB in all.
func TestReplicaGroupReplayAllocations(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := InceptionV3()
	estimate := func() {
		if _, err := sys.EstimateReplicaGroup(m, 8, 2); err != nil {
			t.Fatal(err)
		}
	}
	estimate()
	if allocs := testing.AllocsPerRun(50, estimate); allocs > 5 {
		t.Errorf("cached EstimateReplicaGroup allocated %.0f times, want at most 5", allocs)
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		estimate()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 4096 {
		t.Errorf("cached EstimateReplicaGroup allocated %d B per call, want at most 4096", perCall)
	}
}

// BenchmarkEstimateReplicaGroup replays a kept walk of each serving
// model on the configured replica group, the batch cycling through 1–16:
// the service-time pricing the serving tier and the planner do.
func BenchmarkEstimateReplicaGroup(b *testing.B) {
	sys, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []*Model{InceptionV3(), ResNet18(), SmallCNN()} {
		b.Run(m.Name(), func(b *testing.B) {
			if _, err := sys.EstimateReplica(m, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.EstimateReplica(m, i%16+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

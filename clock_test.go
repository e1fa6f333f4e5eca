package neuralcache_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/plan"
	"neuralcache/serve"
)

// TestServiceClockMatchesEstimates holds the System's dispatch clock,
// the one place an estimate becomes a time.Duration, to the estimates
// it rounds, and every reader of it to it, from several goroutines at
// once (run it under `go test -race`). It prices every bundled model at
// every divisor k of the paper cache and batches 1–16, and checks that
// System.ServiceTime and ReloadTime, AnalyticBackend, BitExactBackend
// and plan.Compute all read EstimateReplicaGroup's latency, at least
// 1 ns, and EstimateReloadGroup's seconds, at least 0. Which reader
// prices a key first rotates from job to job. A kept price allocates
// nothing.
func TestServiceClockMatchesEstimates(t *testing.T) {
	sys, err := neuralcache.New(neuralcache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var models []*neuralcache.Model
	for _, name := range neuralcache.ModelNames() {
		m, err := neuralcache.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	analytic := serve.NewAnalyticBackend(sys, models[0], models[1:]...)
	bitexact := serve.NewBitExactBackend(sys, models[0], models[1:]...)
	type price func(m *neuralcache.Model, batch, k int) (svc, rel time.Duration, err error)
	backend := func(be serve.Backend) price {
		return func(m *neuralcache.Model, batch, k int) (time.Duration, time.Duration, error) {
			svc, err := be.ServiceTime(m.Name(), batch, k)
			if err != nil {
				return 0, 0, err
			}
			rel, err := be.ReloadTime(m.Name(), k)
			return svc, rel, err
		}
	}
	readers := []struct {
		name  string
		price price
	}{
		{"System", func(m *neuralcache.Model, batch, k int) (time.Duration, time.Duration, error) {
			svc, err := sys.ServiceTime(m, batch, k)
			if err != nil {
				return 0, 0, err
			}
			rel, err := sys.ReloadTime(m, k)
			return svc, rel, err
		}},
		{"AnalyticBackend", backend(analytic)},
		{"BitExactBackend", backend(bitexact)},
		{"plan.Compute", func(m *neuralcache.Model, batch, k int) (time.Duration, time.Duration, error) {
			p, err := plan.Compute(sys, []*neuralcache.Model{m}, nil, plan.Options{GroupSize: k, MaxBatch: batch})
			if err != nil {
				return 0, 0, err
			}
			return p.Models[0].BatchService, p.Models[0].Reload, nil
		}},
	}
	type job struct{ model, batch, k int }
	var jobs []job
	for batch := 1; batch <= 16; batch++ {
		for _, k := range sys.GroupSizes() {
			for mi := range models {
				jobs = append(jobs, job{mi, batch, k})
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
				m := models[j.model]
				key := fmt.Sprintf("%s/k%d/b%d", m.Name(), j.k, j.batch)
				est, err := sys.EstimateReplicaGroup(m, j.batch, j.k)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				rest, err := sys.EstimateReloadGroup(m, j.k)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				wantSvc := max(time.Duration(est.LatencySeconds*1e9), time.Nanosecond)
				wantRel := max(time.Duration(rest.Seconds*1e9), 0)
				for r := range readers {
					rd := readers[(i+r)%len(readers)]
					svc, rel, err := rd.price(m, j.batch, j.k)
					if err != nil {
						t.Errorf("%s via %s: %v", key, rd.name, err)
						return
					}
					if svc != wantSvc || rel != wantRel {
						t.Errorf("%s via %s: service %v, reload %v; want %v, %v",
							key, rd.name, svc, rel, wantSvc, wantRel)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// A kept price allocates nothing, on the System and through a backend.
	m := neuralcache.InceptionV3()
	for name, f := range map[string]func() error{
		"System.ServiceTime": func() error { _, err := sys.ServiceTime(m, 8, 2); return err },
		"System.ReloadTime":  func() error { _, err := sys.ReloadTime(m, 2); return err },
		"AnalyticBackend.ServiceTime": func() error {
			_, err := analytic.ServiceTime(models[0].Name(), 8, 2)
			return err
		},
	} {
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = f() }); allocs != 0 {
			t.Errorf("a kept %s allocated %.0f times, want 0", name, allocs)
		}
	}
}

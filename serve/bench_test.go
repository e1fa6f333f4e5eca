package serve

import (
	"context"
	"testing"
	"time"

	"neuralcache"
)

// overloadRun is BenchmarkServeSimulate's run: 100k Inception-scale
// Poisson requests at twice the replica groups' capacity, behind a
// queue deep enough to admit them all, with no front-cache.
func overloadRun(tb testing.TB) (Backend, Options, Load) {
	sys := newSystem(tb, 0)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	opts := Options{MaxBatch: 16, MaxLinger: time.Millisecond, QueueDepth: 1 << 20}
	st, err := backend.ServiceTime("", opts.MaxBatch, 1)
	if err != nil {
		tb.Fatal(err)
	}
	load := Load{Rate: 2 * float64(sys.Replicas()*opts.MaxBatch) / st.Seconds(),
		Requests: 100_000, Seed: 42, Poisson: true}
	return backend, opts, load
}

// BenchmarkServeSimulate pushes 100k Inception-scale requests through
// the virtual-clock scheduler per iteration and reports the simulated
// serving metrics alongside the simulator's own speed.
func BenchmarkServeSimulate(b *testing.B) {
	backend, opts, load := overloadRun(b)
	b.ResetTimer()
	var rep *LoadReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = Simulate(backend, opts, load)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.ThroughputPerSec, "served/vsec")
	b.ReportMetric(float64(rep.P99)/1e6, "p99-ms")
	b.ReportMetric(rep.Utilization*100, "util-%")
	b.ReportMetric(float64(rep.Served)/b.Elapsed().Seconds()*float64(b.N), "req/wallsec")
}

// BenchmarkServeBitExact serves a micro-batch of bit-accurate SmallCNN
// requests through the real async server per iteration.
func BenchmarkServeBitExact(b *testing.B) {
	sys := newSystem(b, 0)
	m := neuralcache.SmallCNN()
	m.InitWeights(7)
	srv, err := NewServer(NewBitExactBackend(sys, m),
		Options{MaxBatch: 4, MaxLinger: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	inputs := make([]*neuralcache.Tensor, 4)
	for i := range inputs {
		inputs[i] = randomInput(m, 99, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chans := make([]<-chan *Response, len(inputs))
		for j, in := range inputs {
			ch, err := srv.TrySubmit(context.Background(), in)
			if err != nil {
				b.Fatal(err)
			}
			chans[j] = ch
		}
		for _, ch := range chans {
			if r := <-ch; r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkServeCacheLookup prices the front-cache probe on the hit
// path — the admission-time cost every request pays when a cache is
// configured — at a steady 1024 entries.
func BenchmarkServeCacheLookup(b *testing.B) {
	c, err := NewCache(CacheOptions{Capacity: 1024})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		c.InsertKey("m", k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.LookupKey("m", uint64(i)%1024) {
			b.Fatal("warm key missed")
		}
	}
}

// BenchmarkServeCacheInsert prices the miss-completion fill at steady
// eviction pressure: every insert past capacity also evicts.
func BenchmarkServeCacheInsert(b *testing.B) {
	c, err := NewCache(CacheOptions{Capacity: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InsertKey("m", uint64(i))
	}
}

// TestSimulateAllocations bounds BenchmarkServeSimulate's run at 1,000
// allocations, 1% of its request count: a dispatch cuts its batch copy
// from the node's chunks and the event heap reuses its slots, so no
// request allocates on its own. The growing slices are what remains
// (about 525 allocations, with or without -race).
func TestSimulateAllocations(t *testing.T) {
	backend, opts, load := overloadRun(t)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Simulate(backend, opts, load); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("Simulate of %d requests allocated %.0f times, want under 1000", load.Requests, allocs)
	}
}

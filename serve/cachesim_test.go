package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"neuralcache"
)

// TestLoadReuseValidation closes the Load-validation gap: a reuse
// distribution with a non-finite, negative or sub-critical Zipf skew, or
// a non-positive universe, must be rejected with a clear error — the
// same fail-fast contract the Mix weights already have.
func TestLoadReuseValidation(t *testing.T) {
	sys := newSystem(t, 1)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	bad := []Reuse{
		{ZipfS: math.NaN(), Universe: 16},
		{ZipfS: math.Inf(1), Universe: 16},
		{ZipfS: -1.1, Universe: 16},
		{ZipfS: 0.5, Universe: 16}, // rand.NewZipf needs s > 1
		{ZipfS: 1.0, Universe: 16},
		{ZipfS: 1.1, Universe: 0},
		{ZipfS: 1.1, Universe: -4},
	}
	for _, r := range bad {
		load := Load{Rate: 100, Requests: 10, Seed: 1, Reuse: r}
		if _, err := Simulate(backend, Options{}, load); err == nil {
			t.Errorf("Simulate accepted reuse %+v", r)
		}
	}
	// The same load with a valid distribution runs.
	load := Load{Rate: 100, Requests: 10, Seed: 1, Reuse: Reuse{ZipfS: 1.1, Universe: 16}}
	if _, err := Simulate(backend, Options{}, load); err != nil {
		t.Fatalf("Simulate rejected a valid reuse distribution: %v", err)
	}
}

// TestSimulateReuseDeterministic: the cached simulator is a pure
// function of (backend, options, load) — byte-identical report JSON,
// including every cache counter, across repeated runs and across
// functional-engine worker counts.
func TestSimulateReuseDeterministic(t *testing.T) {
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond, QueueDepth: 256,
		Cache: CacheOptions{Capacity: 128}}
	load := Load{Rate: 4000, Requests: 10_000, Seed: 7, Poisson: true,
		Reuse: Reuse{ZipfS: 1.2, Universe: 512},
		Mix: []ModelShare{
			{Model: "inception_v3", Weight: 0.7},
			{Model: "resnet_18", Weight: 0.3},
		}}
	run := func(workers int) []byte {
		t.Helper()
		sys := newSystem(t, workers)
		rep, err := Simulate(NewAnalyticBackend(sys, neuralcache.InceptionV3(), neuralcache.ResNet18()), opts, load)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHits == 0 || rep.CacheEvictions == 0 {
			t.Fatalf("reuse run exercised no cache churn: %d hits, %d evictions", rep.CacheHits, rep.CacheEvictions)
		}
		if rep.CacheHits+rep.CacheMisses != rep.Offered {
			t.Fatalf("cache hits %d + misses %d != offered %d", rep.CacheHits, rep.CacheMisses, rep.Offered)
		}
		perModelHits := 0
		for _, u := range rep.PerModel {
			perModelHits += u.CacheHits
		}
		if perModelHits != rep.CacheHits {
			t.Fatalf("per-model hits sum to %d, report says %d", perModelHits, rep.CacheHits)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	base := run(1)
	for i := 0; i < 2; i++ {
		if !bytes.Equal(base, run(1)) {
			t.Fatal("same seed produced a different cached report")
		}
	}
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(base, run(workers)) {
			t.Fatalf("workers=%d changed the cached report", workers)
		}
	}
}

// TestCachedSimulateBeatsCapacityBound is the tentpole acceptance
// scenario: a seeded Zipf(1.1) single-model load offered above the
// replica groups' no-cache capacity bound. Uncached, throughput pins at
// the bound and the queue rejects; cached, the hit rate crosses
// h* = 1 − C/λ and the same hardware sustains more than the bound with
// a collapsed p99.
func TestCachedSimulateBeatsCapacityBound(t *testing.T) {
	sys := newSystem(t, 0)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	opts := Options{MaxBatch: 16, MaxLinger: time.Millisecond, QueueDepth: 1024}

	st, err := backend.ServiceTime("", opts.MaxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(sys.Replicas()*opts.MaxBatch) / st.Seconds()
	load := Load{Rate: 2.2 * bound, Requests: 40_000, Seed: 42, Poisson: true,
		Reuse: Reuse{ZipfS: 1.1, Universe: 4096}}

	uncached, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	if uncached.ThroughputPerSec > bound*1.01 {
		t.Fatalf("uncached throughput %.1f/s exceeds the replica bound %.1f/s", uncached.ThroughputPerSec, bound)
	}
	if uncached.Rejected == 0 {
		t.Fatal("overload scenario produced no rejections uncached; the bound is not binding")
	}

	cached := opts
	cached.Cache = CacheOptions{Capacity: 1024}
	rep, err := Simulate(backend, cached, load)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits == 0 {
		t.Fatal("cached run recorded no hits")
	}
	hstar := 1 - bound/load.Rate
	if rep.CacheHitRate <= hstar {
		t.Fatalf("hit rate %.3f below break-even %.3f; scenario does not demonstrate free capacity", rep.CacheHitRate, hstar)
	}
	if rep.ThroughputPerSec <= bound {
		t.Fatalf("cached throughput %.1f/s did not exceed the no-cache capacity bound %.1f/s", rep.ThroughputPerSec, bound)
	}
	if rep.ThroughputPerSec <= uncached.ThroughputPerSec {
		t.Fatalf("cached throughput %.1f/s not above uncached %.1f/s", rep.ThroughputPerSec, uncached.ThroughputPerSec)
	}
	if rep.P99 >= uncached.P99 {
		t.Fatalf("cached p99 %v not below uncached %v", rep.P99, uncached.P99)
	}
	if rep.Rejected >= uncached.Rejected {
		t.Fatalf("cached run rejected %d, uncached %d", rep.Rejected, uncached.Rejected)
	}
	if rep.CapacityPerSec != uncached.CapacityPerSec {
		t.Fatalf("the cache changed the reported hardware capacity: %.1f vs %.1f", rep.CapacityPerSec, uncached.CapacityPerSec)
	}
}

// TestSimulateNoCacheEmitsNoCacheKeys locks the golden schemas the same
// way the timeline guard does: with the cache off, a report's JSON must
// not contain a single cache-prefixed key, so the k=1
// testdata/golden_sim_*.json stay byte-identical. A cached run must
// contain them (guarding the guard).
func TestSimulateNoCacheEmitsNoCacheKeys(t *testing.T) {
	sys := newSystem(t, 0)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond, QueueDepth: 4096}
	load := Load{Rate: 5000, Requests: 2000, Seed: 7, Poisson: true}
	plain, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	pblob, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(pblob, []byte(`"cache`)) {
		t.Fatal("uncached report leaked a cache key into JSON; the k=1 goldens would diverge")
	}

	opts.Cache = CacheOptions{Capacity: 64}
	load.Reuse = Reuse{ZipfS: 1.2, Universe: 128}
	cachedRep, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	cblob, err := json.Marshal(cachedRep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cache_hits"`, `"cache_misses"`, `"cache_inserts"`, `"cache_hit_rate"`} {
		if !bytes.Contains(cblob, []byte(key)) {
			t.Fatalf("cached report JSON missing %s", key)
		}
	}
}

// TestSweepCacheFrontier: the capacity sweep validates its inputs,
// reproduces byte-identically, carries the uncached baseline at
// capacity 0, and marks FreeCapacity exactly when throughput exceeds
// the no-cache bound.
func TestSweepCacheFrontier(t *testing.T) {
	sys := newSystem(t, 0)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	opts := Options{MaxBatch: 16, MaxLinger: time.Millisecond, QueueDepth: 1024}
	load := Load{Rate: 2000, Requests: 10_000, Seed: 42, Poisson: true,
		Reuse: Reuse{ZipfS: 1.1, Universe: 1024}}

	for _, caps := range [][]int{nil, {-1}, {64, 64}} {
		if _, err := SweepCache(backend, opts, load, caps); err == nil {
			t.Errorf("SweepCache accepted capacities %v", caps)
		}
	}

	points, err := SweepCache(backend, opts, load, []int{0, 256, 1024})
	if err != nil {
		t.Fatal(err)
	}
	again, err := SweepCache(backend, opts, load, []int{0, 256, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Fatal("same sweep produced different frontiers")
	}
	base := points[0]
	if base.HitRate != 0 || base.Hits != 0 || base.FreeCapacity {
		t.Fatalf("capacity-0 row is not the uncached baseline: %+v", base)
	}
	for _, p := range points {
		if p.Report == nil {
			t.Fatalf("capacity %d row carries no backing report", p.Capacity)
		}
		if got := p.ThroughputPerSec > p.CapacityPerSec; got != p.FreeCapacity {
			t.Fatalf("capacity %d: FreeCapacity=%v but throughput %.1f vs bound %.1f",
				p.Capacity, p.FreeCapacity, p.ThroughputPerSec, p.CapacityPerSec)
		}
	}
	if last := points[len(points)-1]; !last.FreeCapacity || last.HitRate <= points[1].HitRate {
		t.Fatalf("frontier does not improve with capacity: %+v then %+v", points[1], last)
	}
	if SweepCacheTable(points) == "" {
		t.Fatal("empty sweep table rendering")
	}
}

// TestSimulateClosedLoopReuseCache: a closed-loop population over a
// reusable universe must terminate (hits charge cacheHitLatency, so the
// virtual clock always advances) with sane counters.
func TestSimulateClosedLoopReuseCache(t *testing.T) {
	sys := newSystem(t, 0)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond,
		Cache: CacheOptions{Capacity: 64}}
	load := Load{Concurrency: 16, Requests: 5_000, Seed: 9,
		Reuse: Reuse{ZipfS: 1.3, Universe: 128}}
	rep, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != rep.Offered || rep.Offered != 5_000 {
		t.Fatalf("closed loop: offered %d served %d", rep.Offered, rep.Served)
	}
	if rep.CacheHits == 0 {
		t.Fatal("closed-loop reuse produced no cache hits")
	}
	if rep.CacheHits+rep.CacheMisses != rep.Offered {
		t.Fatalf("hits %d + misses %d != offered %d", rep.CacheHits, rep.CacheMisses, rep.Offered)
	}
}

// TestCachedTraceAndTimeline: a cached run's trace grows a front-cache
// lane with one "cache hit" instant per hit, and the timeline's
// windowed cache_hits sum to the report's total.
func TestCachedTraceAndTimeline(t *testing.T) {
	sys := newSystem(t, 0)
	backend := NewAnalyticBackend(sys, neuralcache.InceptionV3())
	tr := NewTracer()
	opts := Options{MaxBatch: 8, MaxLinger: 500 * time.Microsecond, QueueDepth: 256,
		Cache: CacheOptions{Capacity: 128},
		Trace: tr, TimelineInterval: 100 * time.Millisecond}
	load := Load{Rate: 3000, Requests: 5_000, Seed: 7, Poisson: true,
		Reuse: Reuse{ZipfS: 1.2, Universe: 512}}
	rep, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits == 0 {
		t.Fatal("run produced no hits to trace")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("front-cache")) {
		t.Fatal("cached trace has no front-cache lane")
	}
	if got := bytes.Count(buf.Bytes(), []byte(`"cache hit"`)); got != rep.CacheHits {
		t.Fatalf("trace carries %d cache-hit instants, report says %d hits", got, rep.CacheHits)
	}
	sum := 0
	for _, p := range rep.Timeline.Samples {
		sum += p.CacheHits
	}
	if sum != rep.CacheHits {
		t.Fatalf("timeline cache_hits sum to %d, report says %d", sum, rep.CacheHits)
	}
}

// TestLoadTestWallClockReuseSmoke: the wall-clock path with a cache and
// a sequential closed loop (concurrency 1 ⇒ every completion precedes
// the next probe) must reproduce its counters exactly across runs.
func TestLoadTestWallClockReuseSmoke(t *testing.T) {
	m := neuralcache.InceptionV3()
	load := Load{Concurrency: 1, Requests: 120, Seed: 5,
		Reuse: Reuse{ZipfS: 1.3, Universe: 16}}
	inputs := func(i int, model string) *neuralcache.Tensor {
		return randomInput(m, 100, i)
	}
	type counters struct{ Offered, Served, Hits, Misses, Inserts, Evictions int }
	run := func() counters {
		t.Helper()
		srv, err := NewServer(NewAnalyticBackend(newSystem(t, 0), m),
			Options{MaxBatch: 8, MaxLinger: NoLinger, Cache: CacheOptions{Capacity: 8}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rep, err := LoadTest(srv, load, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return counters{rep.Offered, rep.Served, rep.CacheHits, rep.CacheMisses,
			rep.CacheInserts, rep.CacheEvictions}
	}
	first := run()
	if first.Served != first.Offered || first.Offered != 120 {
		t.Fatalf("closed loop dropped requests: %+v", first)
	}
	if first.Hits == 0 {
		t.Fatalf("sequential reuse produced no wall-clock hits: %+v", first)
	}
	if first.Hits+first.Misses != first.Offered {
		t.Fatalf("hits %d + misses %d != offered %d", first.Hits, first.Misses, first.Offered)
	}
	if second := run(); second != first {
		t.Fatalf("same seed reproduced different counters: %+v vs %+v", second, first)
	}
}

// TestServerCachedBitExactNeverWrong: the bit-exact server with a
// front-cache must serve every request — hit or miss — byte-identical
// to calling System.Run directly, and sequential repeats must actually
// hit.
func TestServerCachedBitExactNeverWrong(t *testing.T) {
	const universe, n = 4, 12
	m := neuralcache.SmallCNN()
	m.InitWeights(7)

	ref := newSystem(t, 0)
	want := make([]*neuralcache.InferenceResult, universe)
	for k := range want {
		res, err := ref.Run(m, randomInput(m, 99, k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}

	srv, err := NewServer(NewBitExactBackend(newSystem(t, 0), m), Options{
		MaxBatch: 4, MaxLinger: NoLinger,
		Cache: CacheOptions{Capacity: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hits := 0
	for i := 0; i < n; i++ {
		k := i % universe // every input repeats n/universe times
		ch, err := srv.TrySubmit(context.Background(), randomInput(m, 99, k))
		if err != nil {
			t.Fatal(err)
		}
		r := <-ch
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Result.Output.Data, want[k].Output.Data) {
			t.Fatalf("request %d (input %d, hit=%v): served output differs from direct Run", i, k, r.CacheHit)
		}
		if r.CacheHit {
			if r.Shard != NoShard || r.BatchSize != 0 {
				t.Fatalf("hit %d claims shard %v batch %d, want none", i, r.Shard, r.BatchSize)
			}
			hits++
		}
	}
	if hits != n-universe {
		t.Fatalf("%d hits over %d sequential requests, want %d (every repeat)", hits, n, n-universe)
	}
	st := srv.Stats()
	if int(st.CacheHits) != hits || int(st.CacheHits+st.CacheMisses) != n {
		t.Fatalf("stats %d hits / %d misses for %d requests with %d observed hits",
			st.CacheHits, st.CacheMisses, n, hits)
	}
}

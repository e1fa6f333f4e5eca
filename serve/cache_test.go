package serve

import (
	"math/rand"
	"testing"

	"neuralcache"
)

func TestCacheOptionsValidation(t *testing.T) {
	for _, capacity := range []int{0, -4} {
		if _, err := NewCache(CacheOptions{Capacity: capacity}); err == nil {
			t.Errorf("NewCache accepted capacity %d", capacity)
		}
	}
	if _, err := NewCache(CacheOptions{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheLRUMatchesReference drives the cache and a naive
// map+timestamp reference LRU through the same random key stream and
// requires identical hit/miss outcomes on every probe.
func TestCacheLRUMatchesReference(t *testing.T) {
	const capacity = 16
	c, err := NewCache(CacheOptions{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	type refEntry struct{ lastUse int }
	ref := make(map[uint64]*refEntry)
	tick := 0
	touch := func(k uint64) {
		tick++
		ref[k].lastUse = tick
	}
	insert := func(k uint64) {
		tick++
		if _, ok := ref[k]; ok {
			ref[k].lastUse = tick
			return
		}
		ref[k] = &refEntry{lastUse: tick}
		if len(ref) > capacity {
			var victim uint64
			oldest := tick + 1
			for rk, re := range ref {
				if re.lastUse < oldest {
					oldest = re.lastUse
					victim = rk
				}
			}
			delete(ref, victim)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20_000; i++ {
		k := uint64(rng.Intn(48)) // 3× capacity: steady eviction pressure
		got := c.LookupKey("m", k)
		_, want := ref[k]
		if got != want {
			t.Fatalf("op %d key %d: cache hit=%v, reference hit=%v", i, k, got, want)
		}
		if want {
			touch(k)
		} else {
			c.InsertKey("m", k)
			insert(k)
		}
	}
	if c.Len() != len(ref) {
		t.Fatalf("cache holds %d entries, reference %d", c.Len(), len(ref))
	}
}

// TestCacheCapacityInvariants checks the counter algebra the report
// relies on: hits+misses == probes offered, evictions == inserts −
// live entries, and the entry count never exceeds capacity.
func TestCacheCapacityInvariants(t *testing.T) {
	const capacity = 32
	c, err := NewCache(CacheOptions{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	probes := 0
	for i := 0; i < 10_000; i++ {
		k := uint64(rng.Intn(200))
		probes++
		if !c.LookupKey("m", k) {
			c.InsertKey("m", k)
		}
		if c.Len() > capacity {
			t.Fatalf("op %d: %d live entries exceed capacity %d", i, c.Len(), capacity)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != probes {
		t.Fatalf("hits %d + misses %d != probes %d", st.Hits, st.Misses, probes)
	}
	if c.Len() != capacity {
		t.Fatalf("steady state holds %d entries, want full capacity %d", c.Len(), capacity)
	}
	if st.Evictions != st.Inserts-capacity {
		t.Fatalf("evictions %d != inserts %d - capacity %d", st.Evictions, st.Inserts, capacity)
	}
	ms := c.ModelStats()["m"]
	if ms != st {
		t.Fatalf("single-model per-model stats %+v differ from totals %+v", ms, st)
	}
}

// TestCacheRefreshDoesNotCountInsert: re-inserting a cached input
// refreshes recency without incrementing Inserts — the invariant that
// keeps evictions == inserts − capacity meaningful.
func TestCacheRefreshDoesNotCountInsert(t *testing.T) {
	c, err := NewCache(CacheOptions{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.InsertKey("m", 7)
	}
	if st := c.Stats(); st.Inserts != 1 || st.Evictions != 0 {
		t.Fatalf("3 inserts of one key: %+v, want exactly 1 insert", st)
	}
	// The refresh must also restore recency: key 7 was oldest, but after
	// refreshing it, a capacity overflow should evict key 1 instead.
	for _, k := range []uint64{1, 2, 3} {
		c.InsertKey("m", k)
	}
	c.InsertKey("m", 7) // refresh: 7 is now most recent, 1 oldest
	c.InsertKey("m", 4) // overflow: evicts 1
	if !c.LookupKey("m", 7) {
		t.Fatal("refreshed key was evicted; refresh did not restore recency")
	}
	if c.LookupKey("m", 1) {
		t.Fatal("oldest key survived an overflow eviction")
	}
}

// TestCacheGuardRefusesDigestCollision forces two different inputs
// onto one digest and requires the exact-key guard to serve each only
// its own output: the colliding probe misses and counts a near-hit, and
// a refill hands the entry to the newer input without counting an
// insert.
func TestCacheGuardRefusesDigestCollision(t *testing.T) {
	c, err := NewCache(CacheOptions{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey{model: "m", digest: 0xc0111de}
	a, b := []byte{1, 2, 3, 4}, []byte{1, 2, 3, 5}
	outA := &neuralcache.InferenceResult{ArraysUsed: 1}
	outB := &neuralcache.InferenceResult{ArraysUsed: 2}
	lookup := func(input []byte) *neuralcache.InferenceResult {
		c.mu.Lock()
		defer c.mu.Unlock()
		if e := c.lookup(key, input); e != nil {
			return e.output
		}
		return nil
	}
	insert := func(input []byte, out *neuralcache.InferenceResult) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.insert(key, append([]byte(nil), input...), out)
	}

	insert(a, outA)
	if got := lookup(a); got != outA {
		t.Fatalf("A served %+v, want its own output %+v", got, outA)
	}
	if got := lookup(b); got != nil {
		t.Fatalf("B shares A's digest and was served %+v — the guard failed", got)
	}
	if st := c.Stats(); st.NearHits != 1 {
		t.Fatalf("near-hits %d after one refused collision, want 1", st.NearHits)
	}
	insert(b, outB)
	if got := lookup(b); got != outB {
		t.Fatalf("B served %+v after its refill, want its own output %+v", got, outB)
	}
	if got := lookup(a); got != nil {
		t.Fatalf("A was served %+v after B took its digest", got)
	}
	want := CacheStats{Hits: 2, Misses: 2, Inserts: 1, NearHits: 2}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	d1 := digest(4, 4, 4, 1.0/255, data)
	d2 := digest(4, 4, 4, 1.0/255, data)
	if d1 != d2 {
		t.Fatalf("same input digested differently: %x vs %x", d1, d2)
	}
	// Any header or payload change must move the digest.
	if digest(4, 4, 4, 1.0/128, data) == d1 {
		t.Fatal("scale change did not change the digest")
	}
	if digest(8, 4, 2, 1.0/255, data) == d1 {
		t.Fatal("shape change did not change the digest")
	}
	flipped := append([]byte(nil), data...)
	flipped[17] ^= 1
	if digest(4, 4, 4, 1.0/255, flipped) == d1 {
		t.Fatal("single-bit payload change did not change the digest")
	}
}

func TestDigestKeyDistinct(t *testing.T) {
	seen := make(map[uint64]uint64)
	for k := uint64(0); k < 10_000; k++ {
		d := digestKey(k)
		if prev, ok := seen[d]; ok {
			t.Fatalf("keys %d and %d share digest %x", prev, k, d)
		}
		seen[d] = k
		if d != digestKey(k) {
			t.Fatalf("key %d digests nondeterministically", k)
		}
	}
}

// TestCacheModelIsolation: the same reuse key on two models is two
// entries, and eviction is charged to the evicted entry's model.
func TestCacheModelIsolation(t *testing.T) {
	c, err := NewCache(CacheOptions{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.InsertKey("a", 1)
	if c.LookupKey("b", 1) {
		t.Fatal("model b hit model a's entry")
	}
	c.InsertKey("b", 1)
	c.InsertKey("b", 2) // capacity 2: evicts a's entry (oldest)
	if c.LookupKey("a", 1) {
		t.Fatal("model a's entry survived eviction")
	}
	ms := c.ModelStats()
	if ms["a"].Evictions != 1 || ms["b"].Evictions != 0 {
		t.Fatalf("eviction charged wrong: a=%+v b=%+v", ms["a"], ms["b"])
	}
}

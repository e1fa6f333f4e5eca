package serve

import (
	"bytes"
	"container/list"
	"math/rand"
	"reflect"
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
	const d = 0xc0111de
	a, b := []byte{1, 2, 3, 4}, []byte{1, 2, 3, 5}
	outA := &neuralcache.InferenceResult{ArraysUsed: 1}
	outB := &neuralcache.InferenceResult{ArraysUsed: 2}
	lookup := func(input []byte) *neuralcache.InferenceResult {
		c.mu.Lock()
		defer c.mu.Unlock()
		if e := c.lookup(c.model("m"), d, input); e != nil {
			return e.output
		}
		return nil
	}
	insert := func(input []byte, out *neuralcache.InferenceResult) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.insert(c.model("m"), d, append([]byte(nil), input...), out)
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

// TestCacheFullAllocatesNothing: at capacity an insert reuses the
// evicted entry's slab slot and a probe touches only the digest index,
// so neither allocates.
func TestCacheFullAllocatesNothing(t *testing.T) {
	const capacity = 96
	c, err := NewCache(CacheOptions{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < capacity; k++ {
		c.InsertKey("m", k)
	}
	next := uint64(capacity)
	if allocs := testing.AllocsPerRun(1000, func() {
		c.InsertKey("m", next) // evicts next-capacity
		next++
	}); allocs != 0 {
		t.Errorf("InsertKey into a full cache allocated %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if !c.LookupKey("m", next-1) {
			t.Fatal("the newest key missed")
		}
		c.LookupKey("m", 0) // long evicted
	}); allocs != 0 {
		t.Errorf("LookupKey allocated %v times per pair of probes", allocs)
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

// listCache is an LRU front-cache on container/list with one map keyed
// by model name and digest: the reference FuzzCacheMatchesListLRU holds
// Cache to. Its counters follow CacheStats' rules.
type listCache struct {
	capacity int
	lru      *list.List // of *listEntry; front = most recent
	byKey    map[listKey]*list.Element
	total    CacheStats
	perModel map[string]*CacheStats
}

type listKey struct {
	model  string
	digest uint64
}

type listEntry struct {
	key    listKey
	input  []byte
	output *neuralcache.InferenceResult
}

func newListCache(capacity int) *listCache {
	return &listCache{capacity: capacity, lru: list.New(),
		byKey: make(map[listKey]*list.Element), perModel: make(map[string]*CacheStats)}
}

func (c *listCache) model(name string) *CacheStats {
	st := c.perModel[name]
	if st == nil {
		st = &CacheStats{}
		c.perModel[name] = st
	}
	return st
}

func (c *listCache) lookup(key listKey, input []byte) *listEntry {
	st := c.model(key.model)
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*listEntry)
		if e.key == key && bytes.Equal(e.input, input) {
			c.lru.MoveToFront(el)
			c.total.Hits++
			st.Hits++
			return e
		}
		c.total.NearHits++
		st.NearHits++
	}
	c.total.Misses++
	st.Misses++
	return nil
}

func (c *listCache) insert(key listKey, input []byte, out *neuralcache.InferenceResult) {
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*listEntry)
		e.input, e.output = input, out
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&listEntry{key: key, input: input, output: out})
	c.total.Inserts++
	c.model(key.model).Inserts++
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		e := el.Value.(*listEntry)
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.total.Evictions++
		c.model(e.key.model).Evictions++
	}
}

func (c *listCache) modelStats() map[string]CacheStats {
	out := make(map[string]CacheStats, len(c.perModel))
	for name, st := range c.perModel {
		out[name] = *st
	}
	return out
}

// Operations FuzzCacheMatchesListLRU draws, one per three input bytes
// (op, model, argument).
const (
	fuzzLookupKey = iota
	fuzzInsertKey
	fuzzLookup
	fuzzInsert
	fuzzLookupCollide // unexported path: every input on one digest
	fuzzInsertCollide
	fuzzOps
)

// fuzzCollideDigest is the one digest the collide operations share.
const fuzzCollideDigest = 0xc0111de

// FuzzCacheMatchesListLRU drives the slab-linked Cache and the
// container/list reference through the same operations: capacity 1–8
// from the first byte, then LookupKey, InsertKey, Lookup and Insert
// over three models, twelve reuse keys and six tensors, plus lookups
// and inserts that force three distinct inputs onto one digest. After
// every operation both must agree on the hit, the served output
// pointer, Len, Stats and ModelStats.
func FuzzCacheMatchesListLRU(f *testing.F) {
	models := []string{"a", "b", "c"}
	outputs := make([]*neuralcache.InferenceResult, 4)
	for i := range outputs {
		outputs[i] = &neuralcache.InferenceResult{ArraysUsed: i + 1}
	}
	tensors := make([]*neuralcache.Tensor, 6)
	for i := range tensors {
		tensors[i] = &neuralcache.Tensor{H: 1, W: 1, C: 2, Scale: 1, Data: []byte{byte(i), byte(7 * i)}}
	}
	collide := [][]byte{{1, 2, 3, 4}, {1, 2, 3, 5}, {9}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]%8) + 1
		c, err := NewCache(CacheOptions{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		ref := newListCache(capacity)
		for n, op := 0, data[1:]; len(op) >= 3; n, op = n+1, op[3:] {
			model, arg := models[int(op[1])%len(models)], int(op[2])
			out := outputs[arg/8%len(outputs)]
			var got, want *neuralcache.InferenceResult
			var gotHit, wantHit bool
			switch kind := int(op[0]) % fuzzOps; kind {
			case fuzzLookupKey:
				key := uint64(arg % 12)
				gotHit = c.LookupKey(model, key)
				wantHit = ref.lookup(listKey{model, digestKey(key)}, nil) != nil
			case fuzzInsertKey:
				key := uint64(arg % 12)
				c.InsertKey(model, key)
				ref.insert(listKey{model, digestKey(key)}, nil, nil)
			case fuzzLookup:
				in := tensors[arg%len(tensors)]
				got, gotHit = c.Lookup(model, in)
				if e := ref.lookup(listKey{model, tensorDigest(in)}, in.Data); e != nil {
					want, wantHit = e.output, true
				}
			case fuzzInsert:
				in := tensors[arg%len(tensors)]
				c.Insert(model, in, out)
				ref.insert(listKey{model, tensorDigest(in)}, append([]byte(nil), in.Data...), out)
			case fuzzLookupCollide, fuzzInsertCollide:
				input := collide[arg%len(collide)]
				c.mu.Lock()
				if kind == fuzzLookupCollide {
					if e := c.lookup(c.model(model), fuzzCollideDigest, input); e != nil {
						got, gotHit = e.output, true
					}
				} else {
					c.insert(c.model(model), fuzzCollideDigest, append([]byte(nil), input...), out)
				}
				c.mu.Unlock()
				key := listKey{model, fuzzCollideDigest}
				if kind == fuzzLookupCollide {
					if e := ref.lookup(key, input); e != nil {
						want, wantHit = e.output, true
					}
				} else {
					ref.insert(key, append([]byte(nil), input...), out)
				}
			}
			if gotHit != wantHit || got != want {
				t.Fatalf("op %d %v: cache hit=%v output %p, reference hit=%v output %p",
					n, op[:3], gotHit, got, wantHit, want)
			}
			if c.Len() != ref.lru.Len() {
				t.Fatalf("op %d %v: Len %d, reference %d", n, op[:3], c.Len(), ref.lru.Len())
			}
			if got, want := c.Stats(), ref.total; got != want {
				t.Fatalf("op %d %v: Stats %+v, reference %+v", n, op[:3], got, want)
			}
			if got, want := c.ModelStats(), ref.modelStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d %v: ModelStats %+v, reference %+v", n, op[:3], got, want)
			}
		}
	})
}

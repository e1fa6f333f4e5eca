package serve

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"neuralcache"
)

// cacheHitLatency is the modeled cost of serving a front-cache hit: a
// hash probe, three orders of magnitude under a batch's service time.
// The virtual clock charges it so hit latency is honestly nonzero and a
// closed-loop user population cannot resubmit forever at a frozen
// instant.
const cacheHitLatency = time.Microsecond

// CacheOptions configures the memoizing front-cache (Options.Cache).
// The zero value disables it; any positive Capacity enables it.
type CacheOptions struct {
	// Capacity bounds the entry count per cache (all models share the
	// budget); the least-recently-used entry is evicted beyond it. 0
	// disables the cache entirely.
	Capacity int
}

// Enabled reports whether the configuration turns the front-cache on.
func (o CacheOptions) Enabled() bool { return o.Capacity > 0 }

// CacheStats is one counter snapshot of a Cache (whole-cache from
// Stats, per-model from ModelStats).
type CacheStats struct {
	// Hits served their request at admission; Misses went on to a
	// replica group. Hits + Misses equals the lookups offered.
	Hits, Misses int
	// Inserts counts entries created on miss completion (refreshing an
	// existing entry does not count); Evictions counts LRU victims, so
	// at steady state Evictions == Inserts − live entries.
	Inserts, Evictions int
	// NearHits counts misses whose digest matched a cached entry of the
	// same model but whose input bytes did not: FNV digest collisions
	// the exact-key guard refused, each of which would have served
	// another input's output without it.
	NearHits int
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digest is the FNV-1a 64-bit digest of a quantized input tensor: the
// byte payload prefixed by its shape and scale, so two inputs share a
// digest only when their geometry, quantization and bytes all agree.
func digest(h, w, c int, scale float64, data []byte) uint64 {
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(h))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(w))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(c))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(scale))
	return fnv1a(fnv1a(fnvOffset64, hdr[:]), data)
}

// digestKey folds an abstract 64-bit identity (the simulator's reuse
// keys) through the same FNV-1a mix as digest.
func digestKey(key uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return fnv1a(fnvOffset64, buf[:])
}

// fnv1a folds p into the FNV-1a 64-bit state d.
func fnv1a(d uint64, p []byte) uint64 {
	for _, b := range p {
		d ^= uint64(b)
		d *= fnvPrime64
	}
	return d
}

// cacheKey identifies an entry: the model it was served on and the
// input digest (for key-identified entries, the reuse key's digest).
type cacheKey struct {
	model  string
	digest uint64
}

// cacheEntry is one memoized result.
type cacheEntry struct {
	key cacheKey
	// input is a copy of the tensor bytes for byte-identified entries,
	// nil for key-identified ones (the simulator's reuse keys, where
	// digest equality is identity). The lookup guard compares it before
	// any hit is served.
	input []byte
	// output is the memoized inference result; nil for analytic
	// backends, which model time rather than values.
	output *neuralcache.InferenceResult
}

// Cache is the serving tier's memoizing front-cache: a bounded,
// LRU-evicted map from input digests to inference results, shared by
// every registered model with per-model accounting. Admission probes it
// before a request can be queued or rejected — a hit completes
// immediately and never touches a replica group — and misses fill it
// when their batch completes. All methods are safe for concurrent use;
// on the simulator's virtual clock the cache is fully deterministic.
//
// Correctness invariant: a hit is only ever served after the exact-key
// guard passes — digest equality plus byte equality of the stored
// input — so an FNV collision can never return another input's output.
type Cache struct {
	capacity int

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry; front = most recent
	byKey    map[cacheKey]*list.Element
	total    CacheStats
	perModel map[string]*CacheStats
}

// NewCache builds a front-cache from the options (Capacity must be
// positive). Both serving drivers construct their own from
// Options.Cache; build one directly only to unit-test it.
func NewCache(opts CacheOptions) (*Cache, error) {
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("serve: cache capacity %d", opts.Capacity)
	}
	return &Cache{
		capacity: opts.Capacity,
		lru:      list.New(),
		byKey:    make(map[cacheKey]*list.Element),
		perModel: make(map[string]*CacheStats),
	}, nil
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the whole-cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// ModelStats snapshots the per-model counters (models with traffic
// only). Eviction is charged to the evicted entry's model.
func (c *Cache) ModelStats() map[string]CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CacheStats, len(c.perModel))
	for name, st := range c.perModel {
		out[name] = *st
	}
	return out
}

// model returns the (lazily created) per-model counters; callers hold
// mu.
func (c *Cache) model(name string) *CacheStats {
	st := c.perModel[name]
	if st == nil {
		st = &CacheStats{}
		c.perModel[name] = st
	}
	return st
}

// tensorKey keys a model's input tensor by its digest.
func tensorKey(model string, in *neuralcache.Tensor) cacheKey {
	return cacheKey{model: model, digest: digest(in.H, in.W, in.C, in.Scale, in.Data)}
}

// Lookup probes the cache for a model's input tensor, serving the
// memoized result on a hit (nil results are valid: analytic fills
// memoize existence, not values). Misses are counted here, so every
// admission-time probe contributes to the hit-rate accounting.
func (c *Cache) Lookup(model string, in *neuralcache.Tensor) (*neuralcache.InferenceResult, bool) {
	key := tensorKey(model, in)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookup(key, in.Data)
	if e == nil {
		return nil, false
	}
	return e.output, true
}

// Insert memoizes a completed request's result under its input tensor.
// Inserting an input that is already cached refreshes it (recency and
// output) without counting an insert.
func (c *Cache) Insert(model string, in *neuralcache.Tensor, out *neuralcache.InferenceResult) {
	key := tensorKey(model, in)
	input := append([]byte(nil), in.Data...)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, input, out)
}

// LookupKey is the virtual-clock driver's probe: the simulator
// identifies repeated traffic by the reuse key drawn per arrival
// (Load.Reuse), so key equality is input identity and the byte guard is
// vacuous.
func (c *Cache) LookupKey(model string, key uint64) bool {
	k := cacheKey{model: model, digest: digestKey(key)}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(k, nil) != nil
}

// InsertKey memoizes a key-identified completion (virtual clock).
func (c *Cache) InsertKey(model string, key uint64) {
	k := cacheKey{model: model, digest: digestKey(key)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(k, nil, nil)
}

// match applies the exact-key guard: same model and digest, and — for
// byte-identified entries — byte-equal inputs.
func (e *cacheEntry) match(key cacheKey, input []byte) bool {
	return e.key == key && bytes.Equal(e.input, input)
}

// lookup finds a servable entry (nil on a miss), counting the hit or
// miss and refreshing recency on a hit; callers hold mu.
func (c *Cache) lookup(key cacheKey, input []byte) *cacheEntry {
	st := c.model(key.model)
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.match(key, input) {
			c.lru.MoveToFront(el)
			c.total.Hits++
			st.Hits++
			return e
		}
		// An FNV digest collision: without the byte compare this would
		// have served another input's output.
		c.total.NearHits++
		st.NearHits++
	}
	c.total.Misses++
	st.Misses++
	return nil
}

// insert creates or refreshes an entry at the LRU front and evicts
// beyond capacity; callers hold mu. input must be the caller's own copy
// (or nil for key-identified entries).
func (c *Cache) insert(key cacheKey, input []byte, out *neuralcache.InferenceResult) {
	if el, ok := c.byKey[key]; ok {
		// Refresh. On the rare digest collision the newer input wins:
		// the displaced input simply misses again — the guard never
		// serves it the wrong output either way.
		e := el.Value.(*cacheEntry)
		e.input = input
		e.output = out
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, input: input, output: out})
	c.total.Inserts++
	c.model(key.model).Inserts++
	for c.lru.Len() > c.capacity {
		c.evict()
	}
}

// evict removes the least-recently-used entry; callers hold mu.
func (c *Cache) evict() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.total.Evictions++
	c.model(e.key.model).Evictions++
}

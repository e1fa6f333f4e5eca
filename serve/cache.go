package serve

import (
	"bytes"
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

// nilSlot ends the cache's recency list.
const nilSlot = -1

// cacheEntry is one memoized result: a slot of the cache's slab,
// linked into its recency list.
type cacheEntry struct {
	// digest is the input digest (for key-identified entries, the reuse
	// key's digest); model is the model's ordinal in Cache.names.
	digest uint64
	model  int32
	// prev and next are the slots toward the list's front (more recent)
	// and back; nilSlot past either end.
	prev, next int32
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
// The entries live in one slab, a slice linked into a recency list by
// int32 indices. Once the slab reaches capacity, each new entry takes
// the evicted one's slot, so an insert at capacity allocates nothing.
// Each model has its own digest index, keyed by a bare uint64, and its
// counters in a slice; a call resolves its model name to that ordinal
// with one map lookup.
//
// Correctness invariant: a hit is only ever served after the exact-key
// guard passes — digest equality plus byte equality of the stored
// input — so an FNV collision can never return another input's output.
type Cache struct {
	capacity int

	mu         sync.Mutex
	entries    []cacheEntry // the slab; len is the live entry count
	head, tail int32        // most and least recently used slots
	total      CacheStats
	// ordinals interns model names on first touch; names, index and
	// perModel are by ordinal, index mapping digests to slots.
	ordinals map[string]int32
	names    []string
	index    []map[uint64]int32
	perModel []CacheStats
}

// NewCache builds a front-cache from the options (Capacity must be
// positive). Both serving drivers construct their own from
// Options.Cache; build one directly only to unit-test it.
func NewCache(opts CacheOptions) (*Cache, error) {
	if opts.Capacity <= 0 || opts.Capacity > math.MaxInt32 {
		return nil, fmt.Errorf("serve: cache capacity %d", opts.Capacity)
	}
	return &Cache{
		capacity: opts.Capacity,
		head:     nilSlot,
		tail:     nilSlot,
		ordinals: make(map[string]int32),
	}, nil
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
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
	out := make(map[string]CacheStats, len(c.names))
	for mi, name := range c.names {
		out[name] = c.perModel[mi]
	}
	return out
}

// model returns a model name's ordinal, interning it on first touch;
// callers hold mu.
func (c *Cache) model(name string) int32 {
	mi, ok := c.ordinals[name]
	if !ok {
		mi = int32(len(c.names))
		c.ordinals[name] = mi
		c.names = append(c.names, name)
		c.index = append(c.index, make(map[uint64]int32))
		c.perModel = append(c.perModel, CacheStats{})
	}
	return mi
}

// tensorDigest digests an input tensor.
func tensorDigest(in *neuralcache.Tensor) uint64 {
	return digest(in.H, in.W, in.C, in.Scale, in.Data)
}

// Lookup probes the cache for a model's input tensor, serving the
// memoized result on a hit (nil results are valid: analytic fills
// memoize existence, not values). Misses are counted here, so every
// admission-time probe contributes to the hit-rate accounting.
func (c *Cache) Lookup(model string, in *neuralcache.Tensor) (*neuralcache.InferenceResult, bool) {
	d := tensorDigest(in)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookup(c.model(model), d, in.Data)
	if e == nil {
		return nil, false
	}
	return e.output, true
}

// Insert memoizes a completed request's result under its input tensor.
// Inserting an input that is already cached refreshes it (recency and
// output) without counting an insert.
func (c *Cache) Insert(model string, in *neuralcache.Tensor, out *neuralcache.InferenceResult) {
	d := tensorDigest(in)
	input := append([]byte(nil), in.Data...)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(c.model(model), d, input, out)
}

// LookupKey is the virtual-clock driver's probe: the simulator
// identifies repeated traffic by the reuse key drawn per arrival
// (Load.Reuse), so key equality is input identity and the byte guard is
// vacuous.
func (c *Cache) LookupKey(model string, key uint64) bool {
	d := digestKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(c.model(model), d, nil) != nil
}

// InsertKey memoizes a key-identified completion (virtual clock).
func (c *Cache) InsertKey(model string, key uint64) {
	d := digestKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(c.model(model), d, nil, nil)
}

// lookup finds model mi's servable entry under digest d (nil on a
// miss), counting the hit or miss and refreshing recency on a hit;
// callers hold mu. The exact-key guard: the digest index matches model
// and digest, and byte-identified entries must also hold equal input.
func (c *Cache) lookup(mi int32, d uint64, input []byte) *cacheEntry {
	st := &c.perModel[mi]
	if i, ok := c.index[mi][d]; ok {
		e := &c.entries[i]
		if bytes.Equal(e.input, input) {
			c.toFront(i)
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

// insert creates or refreshes model mi's entry under digest d at the
// LRU front, evicting the LRU entry beyond capacity; callers hold mu.
// input must be the caller's own copy (or nil for key-identified
// entries).
func (c *Cache) insert(mi int32, d uint64, input []byte, out *neuralcache.InferenceResult) {
	if i, ok := c.index[mi][d]; ok {
		// Refresh. On the rare digest collision the newer input wins:
		// the displaced input simply misses again — the guard never
		// serves it the wrong output either way.
		e := &c.entries[i]
		e.input = input
		e.output = out
		c.toFront(i)
		return
	}
	var i int32
	if len(c.entries) < c.capacity {
		i = int32(len(c.entries))
		c.entries = append(c.entries, cacheEntry{})
	} else {
		i = c.evict()
	}
	c.entries[i] = cacheEntry{digest: d, model: mi, input: input, output: out}
	c.pushFront(i)
	c.index[mi][d] = i
	c.total.Inserts++
	c.perModel[mi].Inserts++
}

// evict unlinks the least-recently-used entry and returns its slot for
// reuse; callers hold mu and a full cache.
func (c *Cache) evict() int32 {
	i := c.tail
	e := &c.entries[i]
	c.unlink(i)
	delete(c.index[e.model], e.digest)
	c.total.Evictions++
	c.perModel[e.model].Evictions++
	return i
}

// toFront makes slot i the most recently used.
func (c *Cache) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// pushFront links the unlinked slot i at the front of the list.
func (c *Cache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = nilSlot, c.head
	if c.head != nilSlot {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlink removes slot i from the list.
func (c *Cache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev != nilSlot {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilSlot {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// Package geometry models the cache organization Neural Cache computes in
// (§II-C and Figure 3 of the paper): a Xeon-E5-class last-level cache of
// 2.5 MB slices on a ring, each slice holding twenty ways of four 32 KB
// banks, each bank two 16 KB sub-arrays, each sub-array two 8 KB compute
// SRAM arrays. The two arrays of a sub-array share sense amplifiers, which
// is what lets the mapping spread one convolution's channels across an
// array pair.
package geometry

import (
	"fmt"

	"neuralcache/internal/sram"
)

// Config describes a cache geometry. The zero value is not useful; start
// from XeonE5() and adjust.
type Config struct {
	Slices            int // LLC slices on the ring (14 for the 35 MB Xeon E5)
	WaysPerSlice      int // ways per slice (20)
	BanksPerWay       int // 32 KB banks per way (4, one per bus quadrant)
	SubArraysPerBank  int // 16 KB sub-arrays per bank (2)
	ArraysPerSubArray int // 8 KB compute arrays per sub-array (2)
	ReservedCPUWays   int // ways left to the cores via CAT (way-20)
	ReservedIOWays    int // ways staging inputs/outputs (way-19)
}

// XeonE5 returns the geometry of the Intel Xeon E5-2697 v3's 35 MB LLC,
// the configuration evaluated in the paper.
func XeonE5() Config {
	return Config{
		Slices:            14,
		WaysPerSlice:      20,
		BanksPerWay:       4,
		SubArraysPerBank:  2,
		ArraysPerSubArray: 2,
		ReservedCPUWays:   1,
		ReservedIOWays:    1,
	}
}

// WithSlices returns the config resized to n slices (Table IV's capacity
// scaling: 14 slices = 35 MB, 18 = 45 MB, 24 = 60 MB).
func (c Config) WithSlices(n int) Config {
	c.Slices = n
	return c
}

// Validate reports an error when the configuration is not realizable.
func (c Config) Validate() error {
	switch {
	case c.Slices <= 0:
		return fmt.Errorf("geometry: %d slices", c.Slices)
	case c.WaysPerSlice <= 0:
		return fmt.Errorf("geometry: %d ways per slice", c.WaysPerSlice)
	case c.BanksPerWay <= 0 || c.SubArraysPerBank <= 0 || c.ArraysPerSubArray <= 0:
		return fmt.Errorf("geometry: non-positive bank/sub-array/array counts")
	case c.ReservedCPUWays < 0 || c.ReservedIOWays < 0:
		return fmt.Errorf("geometry: negative reserved way counts")
	case c.ReservedCPUWays+c.ReservedIOWays >= c.WaysPerSlice:
		return fmt.Errorf("geometry: %d reserved ways leave no compute ways out of %d",
			c.ReservedCPUWays+c.ReservedIOWays, c.WaysPerSlice)
	}
	return nil
}

// ArraysPerBank returns the compute arrays in one 32 KB bank (4).
func (c Config) ArraysPerBank() int { return c.SubArraysPerBank * c.ArraysPerSubArray }

// ArraysPerWay returns the compute arrays in one way (16).
func (c Config) ArraysPerWay() int { return c.BanksPerWay * c.ArraysPerBank() }

// ArraysPerSlice returns the compute arrays in one slice (320).
func (c Config) ArraysPerSlice() int { return c.WaysPerSlice * c.ArraysPerWay() }

// TotalArrays returns the arrays in the whole cache (4480 for Xeon E5).
func (c Config) TotalArrays() int { return c.Slices * c.ArraysPerSlice() }

// ComputeWays returns the ways per slice available for computation
// (ways 1–18 in the paper's layout).
func (c Config) ComputeWays() int {
	return c.WaysPerSlice - c.ReservedCPUWays - c.ReservedIOWays
}

// ComputeArrays returns the arrays available for computation across the
// cache (4032 for Xeon E5: 14 slices × 18 ways × 16 arrays).
func (c Config) ComputeArrays() int {
	return c.Slices * c.ComputeWays() * c.ArraysPerWay()
}

// ComputeArraysPerSlice returns the compute arrays in one slice (288).
func (c Config) ComputeArraysPerSlice() int {
	return c.ComputeWays() * c.ArraysPerWay()
}

// Lanes returns the total bit-serial ALU slots: one per bit line of every
// array. For Xeon E5 this is the paper's 1,146,880 figure.
func (c Config) Lanes() int { return c.TotalArrays() * sram.BitLines }

// CapacityBytes returns the cache capacity implied by the geometry
// (8 KB per array).
func (c Config) CapacityBytes() int { return c.TotalArrays() * sram.SizeBytes }

// IOWayBytesPerSlice returns the staging capacity of the reserved I/O
// way(s) in one slice (128 KB for one way), which bounds output staging
// before batched runs must spill to DRAM (§IV-E).
func (c Config) IOWayBytesPerSlice() int {
	return c.ReservedIOWays * c.ArraysPerWay() * sram.SizeBytes
}

// ArrayAddr identifies one compute array within the cache.
type ArrayAddr struct {
	Slice, Way, Bank, SubArray, Index int
}

// Quadrant returns the intra-slice bus quadrant serving the array: one
// 64-bit lane of the 256-bit data bus per bank position (§IV-C).
func (a ArrayAddr) Quadrant() int { return a.Bank }

// String formats the address like s3/w17/b2/sa1/a0.
func (a ArrayAddr) String() string {
	return fmt.Sprintf("s%d/w%d/b%d/sa%d/a%d", a.Slice, a.Way, a.Bank, a.SubArray, a.Index)
}

// Cache is an instantiated cache: the full tree of compute arrays. Each
// array is allocated on first access, zeroed, so a cache costs host
// memory only for the arrays a run touches (8 KB each) plus one pointer
// per array of the geometry: about 35 KB for the 35 MB Xeon E5.
type Cache struct {
	cfg    Config
	arrays []*sram.Array // flat, indexed by flatIndex; nil until first access
}

// New instantiates a cache for the geometry. It panics on an invalid
// configuration (a construction-time programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{cfg: cfg, arrays: make([]*sram.Array, cfg.TotalArrays())}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) flatIndex(a ArrayAddr) int {
	cfg := c.cfg
	if a.Slice < 0 || a.Slice >= cfg.Slices ||
		a.Way < 0 || a.Way >= cfg.WaysPerSlice ||
		a.Bank < 0 || a.Bank >= cfg.BanksPerWay ||
		a.SubArray < 0 || a.SubArray >= cfg.SubArraysPerBank ||
		a.Index < 0 || a.Index >= cfg.ArraysPerSubArray {
		panic(fmt.Sprintf("geometry: address %v outside %+v", a, cfg))
	}
	i := a.Slice
	i = i*cfg.WaysPerSlice + a.Way
	i = i*cfg.BanksPerWay + a.Bank
	i = i*cfg.SubArraysPerBank + a.SubArray
	i = i*cfg.ArraysPerSubArray + a.Index
	return i
}

// Array returns the compute array at the address, allocating it on first
// access.
func (c *Cache) Array(a ArrayAddr) *sram.Array {
	i := c.flatIndex(a)
	if c.arrays[i] == nil {
		c.arrays[i] = new(sram.Array)
	}
	return c.arrays[i]
}

// Addr recovers the structured address of flat array index i.
func (c *Cache) Addr(i int) ArrayAddr {
	cfg := c.cfg
	var a ArrayAddr
	a.Index = i % cfg.ArraysPerSubArray
	i /= cfg.ArraysPerSubArray
	a.SubArray = i % cfg.SubArraysPerBank
	i /= cfg.SubArraysPerBank
	a.Bank = i % cfg.BanksPerWay
	i /= cfg.BanksPerWay
	a.Way = i % cfg.WaysPerSlice
	i /= cfg.WaysPerSlice
	a.Slice = i
	return a
}

// ComputeArrayAddr maps a compute-array ordinal (0 ≤ i < ComputeArrays,
// skipping the reserved CPU and I/O ways) to its structured address. The
// layout matches the round-robin handout order of the functional engine:
// consecutive ordinals first walk the two arrays of a sub-array (the
// sense-amp-sharing pair a multi-array convolution spills across), then
// sub-arrays, banks, ways, and finally slices.
func (c Config) ComputeArrayAddr(i int) ArrayAddr {
	if i < 0 || i >= c.ComputeArrays() {
		panic(fmt.Sprintf("geometry: compute ordinal %d outside [0,%d)", i, c.ComputeArrays()))
	}
	perSlice := c.ComputeArraysPerSlice()
	slice := i / perSlice
	rem := i % perSlice
	perWay := c.ArraysPerWay()
	way := rem / perWay
	rem %= perWay
	perBank := c.ArraysPerBank()
	bank := rem / perBank
	rem %= perBank
	return ArrayAddr{
		Slice: slice, Way: way, Bank: bank,
		SubArray: rem / c.ArraysPerSubArray,
		Index:    rem % c.ArraysPerSubArray,
	}
}

// ComputeArray returns the compute array with the given ordinal. Calls on
// distinct ordinals are safe for concurrent use: each ordinal owns its
// own slot, which a first access fills with a fresh array, and distinct
// ordinals return distinct arrays, so callers that partition ordinals
// between goroutines — as the parallel functional engine does — never
// share an *sram.Array. Concurrent calls on the same ordinal race.
func (c *Cache) ComputeArray(ordinal int) *sram.Array {
	return c.Array(c.cfg.ComputeArrayAddr(ordinal))
}

// ForEachComputeArray calls fn for every array in the compute ways
// (excluding the reserved CPU and I/O ways), in address order: ways 0 to
// ComputeWays-1 of each slice.
func (c *Cache) ForEachComputeArray(fn func(addr ArrayAddr, a *sram.Array)) {
	cfg := c.cfg
	for s := 0; s < cfg.Slices; s++ {
		for w := 0; w < cfg.ComputeWays(); w++ {
			for b := 0; b < cfg.BanksPerWay; b++ {
				for sa := 0; sa < cfg.SubArraysPerBank; sa++ {
					for i := 0; i < cfg.ArraysPerSubArray; i++ {
						addr := ArrayAddr{s, w, b, sa, i}
						fn(addr, c.Array(addr))
					}
				}
			}
		}
	}
}

// IOWay returns the way index of the reserved input/output staging way
// (way-19 in the paper's 1-based numbering; the highest compute-adjacent
// way here).
func (c *Cache) IOWay() int { return c.cfg.WaysPerSlice - c.cfg.ReservedCPUWays - 1 }

// Stats sums the cycle counters of every array in the cache, in fixed
// flat-index order. This is the deterministic merge point of the parallel
// functional engine: workers never share an array, each array's counters
// depend only on its own op stream, and the summation order here is
// independent of how many goroutines produced them. Call it only after
// all workers have quiesced.
func (c *Cache) Stats() sram.Stats {
	var s sram.Stats
	for _, a := range c.arrays {
		if a != nil {
			s.Add(a.Stats())
		}
	}
	return s
}

// ResetStats clears every array's counters.
func (c *Cache) ResetStats() {
	for _, a := range c.arrays {
		if a != nil {
			a.ResetStats()
		}
	}
}

// SetsPerWay returns the number of 64-byte cache sets stored by one way of
// one slice. The paper's filter-loading micro-benchmark walks exactly the
// sets of a way that need data; the DRAM model uses this to size
// set-strided transfers.
func (c Config) SetsPerWay() int {
	wayBytes := c.BanksPerWay * c.SubArraysPerBank * c.ArraysPerSubArray * sram.SizeBytes
	return wayBytes / 64
}

// DecodeSet maps a set index within a way to its physical location:
// (bank, subArray, arrayIndex, firstRow). The model distributes
// consecutive sets across banks first (matching the quadrant-interleaved
// data bus), then sub-arrays, then rows; it stands in for the
// reverse-engineered Intel set hash the paper used, and the DRAM loader
// only relies on it being a fixed, documented permutation.
func (c Config) DecodeSet(set int) (bank, subArray, arrayIndex, row int) {
	if set < 0 || set >= c.SetsPerWay() {
		panic(fmt.Sprintf("geometry: set %d outside way with %d sets", set, c.SetsPerWay()))
	}
	bank = set % c.BanksPerWay
	set /= c.BanksPerWay
	subArray = set % c.SubArraysPerBank
	set /= c.SubArraysPerBank
	arrayIndex = set % c.ArraysPerSubArray
	set /= c.ArraysPerSubArray
	// 64-byte set = two 32-byte row halves... one set spans 2 rows of one
	// 8 KB array at 32 bytes per row.
	row = set * 2
	return bank, subArray, arrayIndex, row
}

package geometry

import (
	"testing"
	"testing/quick"

	"neuralcache/internal/sram"
)

func TestXeonE5Counts(t *testing.T) {
	c := XeonE5()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's published figures for the 35 MB Xeon E5 LLC.
	if got := c.ArraysPerSlice(); got != 320 {
		t.Errorf("ArraysPerSlice = %d, want 320", got)
	}
	if got := c.TotalArrays(); got != 4480 {
		t.Errorf("TotalArrays = %d, want 4480", got)
	}
	if got := c.Lanes(); got != 1146880 {
		t.Errorf("Lanes = %d, want 1,146,880", got)
	}
	if got := c.CapacityBytes(); got != 35<<20 {
		t.Errorf("CapacityBytes = %d, want 35 MB", got)
	}
	if got := c.ComputeWays(); got != 18 {
		t.Errorf("ComputeWays = %d, want 18", got)
	}
	if got := c.ComputeArrays(); got != 4032 {
		t.Errorf("ComputeArrays = %d, want 4032 (14×18×16)", got)
	}
	if got := c.IOWayBytesPerSlice(); got != 128<<10 {
		t.Errorf("IOWayBytesPerSlice = %d, want 128 KB", got)
	}
	if got := c.SetsPerWay(); got != 2048 {
		t.Errorf("SetsPerWay = %d, want 2048", got)
	}
}

func TestCapacityScalingMatchesTableIV(t *testing.T) {
	// Table IV evaluates 35, 45 and 60 MB caches = 14, 18, 24 slices.
	for _, c := range []struct{ slices, mb int }{{14, 35}, {18, 45}, {24, 60}} {
		cfg := XeonE5().WithSlices(c.slices)
		if got := cfg.CapacityBytes(); got != c.mb<<20 {
			t.Errorf("%d slices: capacity %d, want %d MB", c.slices, got, c.mb)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		XeonE5().WithSlices(0),
		func() Config { c := XeonE5(); c.WaysPerSlice = 0; return c }(),
		func() Config { c := XeonE5(); c.ReservedCPUWays = 20; return c }(),
		func() Config { c := XeonE5(); c.ReservedIOWays = -1; return c }(),
		func() Config { c := XeonE5(); c.BanksPerWay = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	cfg := XeonE5().WithSlices(2)
	c := New(cfg)
	for i := 0; i < cfg.TotalArrays(); i++ {
		addr := c.Addr(i)
		if got := c.flatIndex(addr); got != i {
			t.Fatalf("index %d -> %v -> %d", i, addr, got)
		}
	}
}

func TestArrayIdentity(t *testing.T) {
	c := New(XeonE5().WithSlices(1))
	a1 := c.Array(ArrayAddr{0, 3, 2, 1, 0})
	a2 := c.Array(ArrayAddr{0, 3, 2, 1, 0})
	if a1 != a2 {
		t.Fatal("same address returned different arrays")
	}
	b := c.Array(ArrayAddr{0, 3, 2, 1, 1})
	if a1 == b {
		t.Fatal("different addresses returned the same array")
	}
}

// TestArraysAllocatedOnFirstAccess: a cache holds no array until one is
// accessed, and a first access yields a zeroed array.
func TestArraysAllocatedOnFirstAccess(t *testing.T) {
	c := New(XeonE5())
	allocated := func() int {
		n := 0
		for _, a := range c.arrays {
			if a != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("a new cache holds %d arrays, want 0", n)
	}
	a := c.ComputeArray(4031)
	if a.Stats().Total() != 0 || !a.PeekRow(0).IsZero() || a.FaultCount() != 0 {
		t.Fatal("first access returned a used array")
	}
	c.Array(ArrayAddr{13, 19, 3, 1, 1})
	if n := allocated(); n != 2 {
		t.Fatalf("after two accesses the cache holds %d arrays, want 2", n)
	}
}

func TestForEachComputeArraySkipsReservedWays(t *testing.T) {
	cfg := XeonE5().WithSlices(2)
	c := New(cfg)
	count := 0
	maxWay := -1
	c.ForEachComputeArray(func(addr ArrayAddr, _ *sram.Array) {
		count++
		if addr.Way > maxWay {
			maxWay = addr.Way
		}
	})
	want := cfg.ComputeArrays()
	if count != want {
		t.Errorf("visited %d arrays, want %d", count, want)
	}
	if maxWay != cfg.ComputeWays()-1 {
		t.Errorf("max way visited %d, want %d", maxWay, cfg.ComputeWays()-1)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := New(XeonE5().WithSlices(1))
	a := c.Array(ArrayAddr{0, 0, 0, 0, 0})
	a.Copy(0, 8, 8, false)
	b := c.Array(ArrayAddr{0, 5, 3, 1, 1})
	b.Zero(0, 4, false)
	s := c.Stats()
	if s.ComputeCycles != 12 {
		t.Errorf("aggregate compute cycles = %d, want 12", s.ComputeCycles)
	}
	c.ResetStats()
	if got := c.Stats(); got.Total() != 0 {
		t.Errorf("after reset, stats = %+v", got)
	}
}

func TestDecodeSetCoversEveryRowPairOnce(t *testing.T) {
	cfg := XeonE5()
	seen := map[[4]int]bool{}
	for s := 0; s < cfg.SetsPerWay(); s++ {
		b, sa, ai, row := cfg.DecodeSet(s)
		if b < 0 || b >= cfg.BanksPerWay || sa < 0 || sa >= cfg.SubArraysPerBank ||
			ai < 0 || ai >= cfg.ArraysPerSubArray || row < 0 || row+1 >= 256 {
			t.Fatalf("set %d decoded out of range: %d %d %d %d", s, b, sa, ai, row)
		}
		key := [4]int{b, sa, ai, row}
		if seen[key] {
			t.Fatalf("set %d collides at %v", s, key)
		}
		seen[key] = true
	}
	if len(seen) != cfg.SetsPerWay() {
		t.Fatalf("decoded %d unique locations, want %d", len(seen), cfg.SetsPerWay())
	}
}

func TestPropertyQuadrantIsBank(t *testing.T) {
	f := func(b uint8) bool {
		a := ArrayAddr{Bank: int(b % 4)}
		return a.Quadrant() == int(b%4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package sram

import (
	"fmt"
	"math/rand"
	"testing"

	"neuralcache/internal/bitvec"
)

// noisyArray returns an array whose every row holds random bits, with
// staging faults injected when faulty is set.
func noisyArray(r *rand.Rand, faulty bool) *Array {
	a := new(Array)
	for row := 0; row < WordLines; row++ {
		a.PokeRow(row, bitvec.Vec256{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
	}
	if faulty {
		injectStagingFaults(a, r)
	}
	return a
}

// checkReadLanes compares ReadLanes with the per-lane ReadElement loop it
// replaces: the same values and the same access cycles.
func checkReadLanes(t *testing.T, a *Array, base, n, first, stride, count int) {
	t.Helper()
	oracle := *a
	got := make([]uint64, count)
	a.ReadLanes(base, n, first, stride, got)
	for k := range got {
		if want := oracle.ReadElement(first+k*stride, base, n); got[k] != want {
			t.Fatalf("base=%d n=%d first=%d stride=%d: element %d = %#x, want %#x",
				base, n, first, stride, k, got[k], want)
		}
	}
	if a.Stats() != oracle.Stats() {
		t.Fatalf("base=%d n=%d first=%d stride=%d count=%d: stats %+v, per-lane reads %+v",
			base, n, first, stride, count, a.Stats(), oracle.Stats())
	}
}

// TestReadLanesMatchesReadElement sweeps every stride, widths up to 32
// bits and first lanes on and off word boundaries, on healthy and
// fault-injected arrays.
func TestReadLanesMatchesReadElement(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for stride := 1; stride <= BitLines; stride++ {
		for _, faulty := range []bool{false, true} {
			a := noisyArray(r, faulty)
			n := 1 + r.Intn(32)
			base := r.Intn(WordLines - n + 1)
			first := r.Intn(BitLines)
			if stride%3 == 0 {
				first = 64 * r.Intn(4)
			}
			count := 1 + (BitLines-1-first)/stride
			checkReadLanes(t, a, base, n, first, stride, count)
			checkReadLanes(t, a, base, n, first, stride, 1+r.Intn(count))
		}
	}
	for n := 1; n <= 32; n++ {
		checkReadLanes(t, noisyArray(r, n%2 == 0), 0, n, 0, 1, BitLines)
	}
}

func TestReadLanesValidation(t *testing.T) {
	var a Array
	out := make([]uint64, 4)
	mustPanicWith(t, "stride", func() { a.ReadLanes(0, 8, 0, 0, out) })
	mustPanicWith(t, "lane 256", func() { a.ReadLanes(0, 8, 250, 2, out) })
	mustPanicWith(t, "lane -1", func() { a.ReadLanes(0, 8, -1, 1, out) })
	mustPanicWith(t, "element width", func() { a.ReadLanes(0, 0, 0, 1, out) })
	mustPanicWith(t, "row range", func() { a.ReadLanes(250, 8, 0, 1, out) })
	a.ReadLanes(0, 8, 0, 1, nil)
	if a.Stats() != (Stats{}) {
		t.Errorf("an empty read charged %+v", a.Stats())
	}
}

// FuzzReadLanes checks ReadLanes against per-lane ReadElement calls on
// seeded random rows, optionally fault-injected.
func FuzzReadLanes(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint8(0), uint8(0), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed int64, base, n, first, stride, count uint8, faulty bool) {
		r := rand.New(rand.NewSource(seed))
		a := noisyArray(r, faulty)
		width := 1 + int(n%64)
		row := int(base) % (WordLines - width + 1)
		step := 1 + int(stride)
		lanes := 1 + (BitLines-1-int(first))/step
		checkReadLanes(t, a, row, width, int(first), step, int(count)%(lanes+1))
	})
}

// TestFusedReduceStepMatchesStepped runs ReduceStep on a healthy array
// (the fused path) and on a copy carrying an empty fault state (the
// stepped microcode, identical data) and requires the same rows, carry
// and tag latches and Stats, with op below, above or aliasing src.
func TestFusedReduceStepMatchesStepped(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, w := range []int{8, 24, 32} {
		for _, stride := range []int{1, 2, 3, 5, 8, 31, 63, 64, 65, 100, 128, 129, 191, 192, 200, 255} {
			fused := noisyArray(r, false)
			fused.carry = bitvec.Vec256{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
			fused.tag = bitvec.Vec256{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
			fused.stats = Stats{ComputeCycles: 5, AccessCycles: 7}
			stepped := *fused
			stepped.faults = &faultState{}
			src := r.Intn(WordLines - 2*w + 1)
			op := src + w + r.Intn(WordLines-src-2*w+1)
			switch r.Intn(3) {
			case 0:
				src, op = op, src
			case 1:
				op = src // the degenerate in-place move
			}
			fused.ReduceStep(src, op, w, stride)
			stepped.ReduceStep(src, op, w, stride)
			requireSameState(t, fmt.Sprintf("w=%d stride=%d src=%d op=%d", w, stride, src, op), fused, &stepped)
		}
	}
}

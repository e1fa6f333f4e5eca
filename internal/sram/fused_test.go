package sram

import (
	"math/rand"
	"sort"
	"testing"

	"neuralcache/internal/bitvec"
)

// The fused kernels' contract: after every op a healthy array holds the
// rows, latches and Stats the stepped microcode leaves. A copy of the
// array carrying an empty fault state runs the stepped microcode on
// identical data, so it is the oracle.

// The ops FuzzFusedMatchesStepped draws from.
const (
	opMultiply = iota
	opMultiplySkip
	opMulAcc
	opMulAccSkip
	opAdd
	opAddTrunc
	opReduceStep
	numFusedOps
)

// Sparsity flags of a fuzz input. Dense random rows almost never make a
// whole 256-lane row zero, so these patterns are what reach the kernels'
// zero-row branches.
const (
	sparseZeroExtend = 1 << iota // operand rows above a random cut are zero
	sparseZeroRows               // operand rows are zero at random
	sparseZeroWords              // 64-lane operand words are zero at random
	sparseZeroSlices             // multiplier and addend rows are zero at random
)

// place lays out disjoint segments of the given widths in random order
// with random gaps and returns each one's base row. The widths must sum
// to at most WordLines.
func place(r *rand.Rand, widths ...int) []int {
	slack := WordLines
	for _, w := range widths {
		slack -= w
	}
	cuts := make([]int, len(widths))
	for i := range cuts {
		cuts[i] = r.Intn(slack + 1)
	}
	sort.Ints(cuts)
	bases := make([]int, len(widths))
	row := 0
	for k, i := range r.Perm(len(widths)) {
		bases[i] = row + cuts[k]
		row += widths[i]
	}
	return bases
}

// sparsify applies the flagged zero patterns to rows [base, base+n).
func sparsify(a *Array, r *rand.Rand, base, n int, flags uint8) {
	top := n
	if flags&sparseZeroExtend != 0 {
		top = r.Intn(n + 1)
	}
	for i := 0; i < n; i++ {
		row := &a.rows[base+i]
		switch {
		case i >= top, flags&sparseZeroRows != 0 && r.Intn(2) == 0:
			*row = bitvec.Vec256{}
		case flags&sparseZeroWords != 0:
			for w := range row {
				if r.Intn(2) == 0 {
					row[w] = 0
				}
			}
		}
	}
}

// latchValue returns a starting latch: zero, all ones, or random bits.
func latchValue(r *rand.Rand, mode uint8) bitvec.Vec256 {
	switch mode % 4 {
	case 0:
		return bitvec.Vec256{}
	case 1:
		return bitvec.Ones()
	default:
		return bitvec.Vec256{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
}

// peekLanes reads the n-bit element at base on every lane, charging
// nothing.
func peekLanes(a *Array, base, n int) []uint64 {
	vals := make([]uint64, BitLines)
	for lane := range vals {
		vals[lane] = a.peekElement(lane, base, n)
	}
	return vals
}

// requireSameState fails unless both arrays hold the same rows, carry
// and tag latches and Stats.
func requireSameState(t *testing.T, what string, fused, stepped *Array) {
	t.Helper()
	for row := 0; row < WordLines; row++ {
		if fused.rows[row] != stepped.rows[row] {
			t.Fatalf("%s: row %d\nfused   %v\nstepped %v", what, row, fused.rows[row], stepped.rows[row])
		}
	}
	if fused.carry != stepped.carry {
		t.Fatalf("%s: carry latch\nfused   %v\nstepped %v", what, fused.carry, stepped.carry)
	}
	if fused.tag != stepped.tag {
		t.Fatalf("%s: tag latch\nfused   %v\nstepped %v", what, fused.tag, stepped.tag)
	}
	if fused.stats != stepped.stats {
		t.Fatalf("%s: stats %+v, stepped %+v", what, fused.stats, stepped.stats)
	}
}

// FuzzFusedMatchesStepped runs one composite op on a healthy array (the
// fused kernels) and on a copy carrying an empty fault state (the stepped
// microcode) and requires equal rows, latches, Stats and skip counts.
// Each input draws the op, its widths (nA and nB in 1–8, accW up to 32,
// an add or reduce width w up to 32), aliasing, a reduce stride, the
// starting latches and a sparsity pattern; the seed fills the array and
// places the rows. Every op is also checked per lane against integer
// arithmetic, except a reduce step whose moved rows alias its source.
func FuzzFusedMatchesStepped(f *testing.F) {
	f.Add(int64(1), uint8(opMulAcc), uint8(7), uint8(7), uint8(8), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, op, nA, nB, accW, w, alias, stride, latches, sparsity uint8) {
		r := rand.New(rand.NewSource(seed))
		fused := noisyArray(r, false)
		fused.carry = latchValue(r, latches)
		fused.tag = latchValue(r, latches>>2)
		fused.stats = Stats{ComputeCycles: 11, AccessCycles: 13}
		addendFlags := sparsity
		if sparsity&sparseZeroSlices != 0 {
			addendFlags |= sparseZeroRows
		}

		var run func(a *Array) int
		var check func(a *Array) // per-lane oracle on the result
		switch op := op % numFusedOps; op {
		case opMultiply, opMultiplySkip, opMulAcc, opMulAccSkip:
			na, nb := 1+int(nA%8), 1+int(nB%8)
			aw := na + nb + int(accW)%(33-na-nb)
			bases := place(r, max(na, nb), nb, aw, aw)
			aBase, bBase, prod, acc := bases[0], bases[1], bases[2], bases[3]
			if alias%2 == 1 {
				bBase = aBase // multiplicand and multiplier share rows
			}
			sparsify(fused, r, aBase, na, sparsity)
			sparsify(fused, r, bBase, nb, addendFlags)
			sparsify(fused, r, acc, aw, sparsity)
			for row := prod + na + nb; row < prod+aw; row++ {
				fused.rows[row] = bitvec.Vec256{} // the MulAcc pad
			}
			av, bv, accv := peekLanes(fused, aBase, na), peekLanes(fused, bBase, nb), peekLanes(fused, acc, aw)
			mulAcc := op == opMulAcc || op == opMulAccSkip
			skip := op == opMultiplySkip || op == opMulAccSkip
			run = func(a *Array) int {
				switch {
				case mulAcc && skip:
					return a.MulAccSkipAsym(aBase, bBase, prod, acc, na, nb, aw)
				case mulAcc:
					a.MulAccAsym(aBase, bBase, prod, acc, na, nb, aw)
				case skip:
					return a.MultiplySkipAsym(aBase, bBase, prod, na, nb)
				default:
					a.MultiplyAsym(aBase, bBase, prod, na, nb)
				}
				return 0
			}
			check = func(a *Array) {
				for lane := 0; lane < BitLines; lane++ {
					got, want := a.peekElement(lane, prod, na+nb), av[lane]*bv[lane]
					if mulAcc {
						got, want = a.peekElement(lane, acc, aw), (accv[lane]+want)&(1<<aw-1)
					}
					if got != want {
						t.Fatalf("lane %d: %d×%d (acc %d) gave %d, want %d",
							lane, av[lane], bv[lane], accv[lane], got, want)
					}
				}
			}
		case opAdd, opAddTrunc:
			n := 1 + int(w%32)
			bases := place(r, n+1, n+1, n+1)
			aBase, bBase, dst := bases[0], bases[1], bases[2]
			switch alias % 4 {
			case 1:
				dst = aBase
			case 2:
				dst = bBase
			case 3:
				bBase, dst = aBase, aBase
			}
			sparsify(fused, r, aBase, n, sparsity)
			sparsify(fused, r, bBase, n, addendFlags)
			av, bv := peekLanes(fused, aBase, n), peekLanes(fused, bBase, n)
			width := n // AddTrunc's sum; Add also stores the carry row
			if op == opAdd {
				width++
			}
			run = func(a *Array) int {
				if op == opAdd {
					a.Add(aBase, bBase, dst, n)
				} else {
					a.AddTrunc(aBase, bBase, dst, n)
				}
				return 0
			}
			check = func(a *Array) {
				for lane := 0; lane < BitLines; lane++ {
					got, want := a.peekElement(lane, dst, width), (av[lane]+bv[lane])&(1<<width-1)
					if got != want {
						t.Fatalf("lane %d: %d+%d gave %d, want %d", lane, av[lane], bv[lane], got, want)
					}
				}
			}
		default:
			n, s := 1+int(w%32), 1+int(stride)%(BitLines-1)
			bases := place(r, n, n)
			src, opRow := bases[0], bases[1]
			if alias%2 == 1 {
				opRow = src
			}
			sparsify(fused, r, src, n, sparsity)
			sv := peekLanes(fused, src, n)
			run = func(a *Array) int {
				a.ReduceStep(src, opRow, n, s)
				return 0
			}
			if opRow != src {
				check = func(a *Array) {
					for lane := 0; lane < BitLines; lane++ {
						want := sv[lane]
						if lane+s < BitLines {
							want = (want + sv[lane+s]) & (1<<n - 1)
						}
						if got := a.peekElement(lane, src, n); got != want {
							t.Fatalf("lane %d stride %d: got %d, want %d", lane, s, got, want)
						}
					}
				}
			}
		}

		stepped := *fused
		stepped.faults = &faultState{}
		gotSkips, wantSkips := run(fused), run(&stepped)
		requireSameState(t, "fused vs stepped", fused, &stepped)
		if gotSkips != wantSkips {
			t.Fatalf("skipped %d slices, stepped skipped %d", gotSkips, wantSkips)
		}
		if check != nil {
			check(fused)
		}
	})
}

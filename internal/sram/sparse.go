package sram

import "neuralcache/internal/bitvec"

// Sparsity extension (§VII of the paper lists exploiting DNN sparsity as
// future work). Bit-serial multiplication offers a natural zero-skipping
// hook: each multiplier bit is loaded into the tag latch before its
// predicated add, and a wired-OR "any tag set" flag in the column
// peripherals can tell the bank FSM that the entire bit-slice is zero, in
// which case the n+1-cycle predicated add is skipped. The flag costs one
// OR tree per array and no extra data movement.
//
// The catch — and the honest finding the AblationSparsity bench
// quantifies — is that all 256 lanes share the instruction stream: a
// slice is skippable only when *every* lane's multiplier bit is zero, so
// the win shrinks as more independent values share an array.

// MultiplySkip is Multiply with multiplier bit-slice skipping. Results
// and post-op latch state are identical to Multiply; the emergent cycle
// count is data-dependent:
//
//	2n + Σ over multiplier bits (1 + (n+1)·[slice has any 1])
//
// An all-zero multiplier vector costs 3n cycles instead of n²+4n. The
// return value is the number of elided bit-slices, in [0, n]; each saved
// its n+1 predicated add+carry-store cycles.
func (a *Array) MultiplySkip(aBase, bBase, prod, n int) int {
	return a.MultiplySkipAsym(aBase, bBase, prod, n, n)
}

// MultiplySkipAsym is MultiplySkip with independent operand widths (see
// MultiplyAsym): nB multiplier slices over an nA-bit multiplicand, each
// elidable by the wired-OR flag for nA+1 saved cycles.
func (a *Array) MultiplySkipAsym(aBase, bBase, prod, nA, nB int) int {
	checkRows("MultiplySkip a", aBase, nA)
	checkRows("MultiplySkip b", bBase, nB)
	checkRows("MultiplySkip prod", prod, nA+nB)
	checkDisjoint("MultiplySkip prod", prod, nA+nB, "a", aBase, nA)
	checkDisjoint("MultiplySkip prod", prod, nA+nB, "b", bBase, nB)
	a.Zero(prod, nA+nB, false)
	// Latch reset on op issue (free, like addCommon's): a skipped slice
	// elides its per-slice carry reset and StoreCarry, and without this a
	// trailing skipped slice would leave the carry latch holding the last
	// executed slice's state — diverging from Multiply, which always
	// finishes with carry = 0. Executed slices still reset per slice, so
	// the architectural state after MultiplySkip matches Multiply exactly
	// for every density, including the all-zero multiplier.
	a.carry = bitvec.Zero()
	return a.multiplySlices(aBase, bBase, prod, nA, nB, true)
}

// MulAccSkip is MulAcc with multiplier bit-slice skipping in the multiply
// phase. Results and post-op latch state are identical to MulAcc under
// the same row-map contract (enforced by the same checks); only the
// emergent cycle count changes, by n+1 cycles per elided slice. Returns
// the number of elided bit-slices, in [0, n].
func (a *Array) MulAccSkip(aBase, bBase, prod, accBase, n, accW int) int {
	return a.MulAccSkipAsym(aBase, bBase, prod, accBase, n, n, accW)
}

// MulAccSkipAsym is MulAccSkip with independent operand widths (see
// MulAccAsym). Returns the number of elided multiplier slices, in
// [0, nB]; each saved nA+1 cycles.
func (a *Array) MulAccSkipAsym(aBase, bBase, prod, accBase, nA, nB, accW int) int {
	a.mulAccChecks(aBase, bBase, prod, accBase, nA, nB, accW)
	skipped := a.MultiplySkipAsym(aBase, bBase, prod, nA, nB)
	a.AddTrunc(accBase, prod, accBase, accW)
	return skipped
}

// SkippableSlices counts, for the n-bit elements at bBase, how many of
// the n bit-slices are all-zero across every lane — the slices
// MultiplySkip would elide. Diagnostic helper for sparsity studies; it
// charges no cycles.
func (a *Array) SkippableSlices(bBase, n int) int {
	checkRows("SkippableSlices", bBase, n)
	count := 0
	for i := 0; i < n; i++ {
		if a.rows[bBase+i].IsZero() {
			count++
		}
	}
	return count
}

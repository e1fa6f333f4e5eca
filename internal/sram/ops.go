package sram

import (
	"fmt"

	"neuralcache/internal/bitvec"
)

// This file contains the composite bit-serial operations, defined by the
// single-cycle micro-operations in array.go, so cycle costs are emergent.
// Faulty arrays step those micro-operations; healthy arrays run fused
// kernels (fusedAdd, fusedMulSlice) whose rows, latches and charges
// FuzzFusedMatchesStepped pins to the stepped microcode. Where the paper
// publishes a closed form, the emergent count is asserted in tests:
//
//	Add        n+1             (paper §III-B: n+1)            exact
//	Multiply   n²+4n           (paper §III-C: n²+5n−2)        equal at n=2,
//	                            our microcode is n−2 cheaper for n>2; the
//	                            analytic ledger charges the paper's form
//	Divide     3n²+10n+1       (paper §III-C: 1.5n²+5.5n)     the paper's
//	                            form is an optimized non-restoring average;
//	                            ours is worst-case restoring division
//	ReduceStep 2w+1            (charged 4w+4 in the ledger; see core/cost)
//
// All operations act on every bit line in parallel: one call performs 256
// independent lane computations.

// Copy copies the n-bit elements at rows [src,src+n) to rows [dst,dst+n),
// one sense-amp cycle per row. When pred is true the copy is gated per
// lane by the tag latch.
func (a *Array) Copy(src, dst, n int, pred bool) {
	checkRows("Copy src", src, n)
	checkRows("Copy dst", dst, n)
	if a.faults == nil && !pred {
		for i := 0; i < n; i++ {
			a.rows[dst+i] = a.rows[src+i]
		}
		a.stats.ComputeCycles += uint64(n)
		return
	}
	for i := 0; i < n; i++ {
		a.cycleCopyRow(src+i, dst+i, pred)
	}
}

// NotCopy copies the bitwise complement of rows [src,src+n) to
// [dst,dst+n), sensing the complement on the BLB lines.
func (a *Array) NotCopy(src, dst, n int, pred bool) {
	checkRows("NotCopy src", src, n)
	checkRows("NotCopy dst", dst, n)
	if src == dst {
		panic("sram: NotCopy in place would re-read written rows")
	}
	for i := 0; i < n; i++ {
		a.cycleNotCopyRow(src+i, dst+i, pred)
	}
}

// Zero clears rows [dst,dst+n) via the bulk-zeroing path (Compute Cache's
// bulk zero), one cycle per row. Predicated per lane when pred is true.
func (a *Array) Zero(dst, n int, pred bool) {
	checkRows("Zero", dst, n)
	if a.faults == nil && !pred {
		for i := 0; i < n; i++ {
			a.rows[dst+i] = bitvec.Vec256{}
		}
		a.stats.ComputeCycles += uint64(n)
		return
	}
	for i := 0; i < n; i++ {
		a.cycleWriteImm(dst+i, bitvec.Zero(), pred)
	}
}

// WriteImmRow drives one full row of external data through the peripheral
// data-in path (one compute cycle). The streaming engine uses this to
// deposit broadcast input bytes.
func (a *Array) WriteImmRow(dst int, v bitvec.Vec256, pred bool) {
	checkRows("WriteImmRow", dst, 1)
	a.cycleWriteImm(dst, v, pred)
}

// And computes rows[ra] & rows[rb] into rows[dst] in one compute cycle
// (Compute Cache bit-parallel operation).
func (a *Array) And(ra, rb, dst int) {
	checkRows("And", dst, 1)
	a.cycleLogic(ra, rb, dst, func(and, _, _ bitvec.Vec256) bitvec.Vec256 { return and })
}

// Or computes rows[ra] | rows[rb] into rows[dst] in one compute cycle.
func (a *Array) Or(ra, rb, dst int) {
	checkRows("Or", dst, 1)
	a.cycleLogic(ra, rb, dst, func(_, nor, _ bitvec.Vec256) bitvec.Vec256 { return nor.Not() })
}

// Xor computes rows[ra] ^ rows[rb] into rows[dst] in one compute cycle.
func (a *Array) Xor(ra, rb, dst int) {
	checkRows("Xor", dst, 1)
	a.cycleLogic(ra, rb, dst, func(_, _, xor bitvec.Vec256) bitvec.Vec256 { return xor })
}

// Nor computes ^(rows[ra] | rows[rb]) into rows[dst] in one compute cycle.
func (a *Array) Nor(ra, rb, dst int) {
	checkRows("Nor", dst, 1)
	a.cycleLogic(ra, rb, dst, func(_, nor, _ bitvec.Vec256) bitvec.Vec256 { return nor })
}

// Add computes the n-bit elements at aBase plus the n-bit elements at
// bBase into n+1 rows at dstBase (sum bits plus the final carry row).
// Emergent cost: n+1 cycles, the paper's closed form. The destination may
// alias aBase exactly (in-place accumulation); any partial overlap panics.
func (a *Array) Add(aBase, bBase, dstBase, n int) {
	a.addCommon(aBase, bBase, dstBase, n, true, false)
}

// AddTrunc is Add without the final carry-store cycle: the result is
// truncated to n bits (cost n cycles). Used for fixed-width accumulation
// where the mapping guarantees no overflow.
func (a *Array) AddTrunc(aBase, bBase, dstBase, n int) {
	a.addCommon(aBase, bBase, dstBase, n, false, false)
}

// AddPred is Add gated per lane by the tag latch, including the carry
// latch update (C_EN in Fig 7).
func (a *Array) AddPred(aBase, bBase, dstBase, n int) {
	a.addCommon(aBase, bBase, dstBase, n, true, true)
}

func (a *Array) addCommon(aBase, bBase, dstBase, n int, storeCarry, pred bool) {
	checkRows("Add a", aBase, n)
	checkRows("Add b", bBase, n)
	carryRows := 0
	if storeCarry {
		carryRows = 1
	}
	checkRows("Add dst", dstBase, n+carryRows)
	checkOverlap(dstBase, aBase, n)
	checkOverlap(dstBase, bBase, n)
	if !pred {
		a.carry = bitvec.Zero() // latch reset on op issue, not a cycle
	}
	if a.faults == nil && !pred {
		a.fusedAdd(aBase, bBase, dstBase, n, storeCarry)
		return
	}
	for i := 0; i < n; i++ {
		a.cycleAddBit(aBase+i, bBase+i, dstBase+i, pred)
	}
	if storeCarry {
		a.cycleStoreCarry(dstBase+n, pred)
	}
}

// fusedAdd is addCommon's healthy-array path for unpredicated adds: the
// same ripple add, one word-parallel pass per row with both operands and
// the carry held in locals instead of the per-cycle sense plumbing. In
// the in-place form (dst == aBase) a row whose addend row and incoming
// carry are both zero is left untouched: its sum is itself and the carry
// stays zero. That covers the zero pad above a MulAcc's product and the
// zero-extended operand of a Σq_a add. Cycle accounting and all
// architectural state (rows, carry and tag latches) match the stepped
// microcode bit for bit; predicated adds and arrays with injected faults
// keep the stepped path, the latter so every write crosses the fault
// hook.
func (a *Array) fusedAdd(aBase, bBase, dstBase, n int, storeCarry bool) {
	c0, c1, c2, c3 := a.carry[0], a.carry[1], a.carry[2], a.carry[3]
	inPlace := dstBase == aBase
	for i := 0; i < n; i++ {
		rb := &a.rows[bBase+i]
		b0, b1, b2, b3 := rb[0], rb[1], rb[2], rb[3]
		if inPlace && b0|b1|b2|b3|c0|c1|c2|c3 == 0 {
			continue
		}
		ra := &a.rows[aBase+i]
		a0, a1, a2, a3 := ra[0], ra[1], ra[2], ra[3]
		x0, x1, x2, x3 := a0^b0, a1^b1, a2^b2, a3^b3
		a.rows[dstBase+i] = bitvec.Vec256{x0 ^ c0, x1 ^ c1, x2 ^ c2, x3 ^ c3}
		c0, c1, c2, c3 = a0&b0|x0&c0, a1&b1|x1&c1, a2&b2|x2&c2, a3&b3|x3&c3
	}
	a.stats.ComputeCycles += uint64(n)
	if storeCarry {
		a.rows[dstBase+n] = bitvec.Vec256{c0, c1, c2, c3}
		c0, c1, c2, c3 = 0, 0, 0, 0
		a.stats.ComputeCycles++
	}
	a.carry = bitvec.Vec256{c0, c1, c2, c3}
}

// LoadTag senses row r and latches it into the tag latch (one compute
// cycle). Subsequent predicated operations are gated per lane by it.
func (a *Array) LoadTag(r int) {
	checkRows("LoadTag", r, 1)
	a.cycleLoadTag(r)
}

// LoadTagInv senses row r and latches its complement into the tag latch.
func (a *Array) LoadTagInv(r int) {
	checkRows("LoadTagInv", r, 1)
	a.cycleLoadTagInv(r)
}

// StoreTag writes the tag latch to row dst through the 4:1 mux (one
// compute cycle).
func (a *Array) StoreTag(dst int) {
	checkRows("StoreTag", dst, 1)
	a.setRow(dst, a.tag)
	a.stats.ComputeCycles++
}

// SetCarryOnes presets the carry latch to all ones (one compute cycle via
// the peripheral data-in path). Subtraction seeds its +1 this way.
func (a *Array) SetCarryOnes() {
	a.carry = bitvec.Ones()
	a.stats.ComputeCycles++
}

// Sub computes a − b (two's complement, truncated to n bits) into dstBase
// using rows [scratch,scratch+n) for ¬b. After the call the carry latch
// holds the final carry-out: 1 on lanes where a ≥ b (no borrow).
// Emergent cost: 2n+1 cycles.
func (a *Array) Sub(aBase, bBase, dstBase, scratch, n int) {
	checkRows("Sub scratch", scratch, n)
	checkOverlap(scratch, aBase, n)
	checkOverlap(scratch, bBase, n)
	a.NotCopy(bBase, scratch, n, false)
	a.SetCarryOnes()
	for i := 0; i < n; i++ {
		a.cycleAddBit(aBase+i, scratch+i, dstBase+i, false)
	}
}

// CompareGE sets the tag latch to 1 on every lane where the n-bit element
// at aBase is ≥ the element at bBase (unsigned). It needs n+1 scratch
// rows: n for ¬b plus one to stage the carry. Emergent cost: 2n+3 cycles.
func (a *Array) CompareGE(aBase, bBase, scratch, n int) {
	checkRows("CompareGE scratch", scratch, n+1)
	a.Sub(aBase, bBase, scratch, scratch, n) // diff discarded into scratch
	a.cycleStoreCarry(scratch+n, false)
	a.cycleLoadTag(scratch + n)
}

// CompareLT sets the tag latch on lanes where a < b (unsigned).
// Emergent cost: 2n+3 cycles.
func (a *Array) CompareLT(aBase, bBase, scratch, n int) {
	checkRows("CompareLT scratch", scratch, n+1)
	a.Sub(aBase, bBase, scratch, scratch, n)
	a.cycleStoreCarry(scratch+n, false)
	a.cycleLoadTagInv(scratch + n)
}

// Max writes max(a,b) per lane into dstBase. dst may alias a. Emergent
// cost: 3n+4 cycles in place, 4n+4 otherwise (compare + predicated copies).
func (a *Array) Max(aBase, bBase, dstBase, scratch, n int) {
	a.CompareGE(aBase, bBase, scratch, n)
	if dstBase != aBase {
		a.Copy(aBase, dstBase, n, true) // where a ≥ b
	}
	a.cycleLoadTagInv(scratch + n) // where a < b
	a.Copy(bBase, dstBase, n, true)
}

// Min writes min(a,b) per lane into dstBase. dst may alias a.
func (a *Array) Min(aBase, bBase, dstBase, scratch, n int) {
	a.CompareLT(aBase, bBase, scratch, n)
	if dstBase != aBase {
		a.Copy(aBase, dstBase, n, true) // where a < b
	}
	a.cycleLoadTag(scratch + n) // stored carry: a ≥ b
	a.Copy(bBase, dstBase, n, true)
}

// ReLU zeroes, per lane, the n-bit two's-complement element at base when
// its sign bit (row base+n−1) is set: the MSB acts as the write enable for
// a selective zero, exactly as §IV-D describes. Emergent cost: n+1 cycles.
func (a *Array) ReLU(base, n int) {
	checkRows("ReLU", base, n)
	a.cycleLoadTag(base + n - 1)
	a.Zero(base, n, true)
}

// Equal sets the tag latch on lanes where the n-bit elements at aBase and
// bBase are identical (Compute Cache's equality comparison). Emergent
// cost: n+1 cycles.
func (a *Array) Equal(aBase, bBase, n int) {
	checkRows("Equal a", aBase, n)
	checkRows("Equal b", bBase, n)
	a.SetTag(bitvec.Ones())
	for i := 0; i < n; i++ {
		_, _, xor := a.sense2(aBase+i, bBase+i)
		a.cycleTagAnd(xor.Not())
	}
}

// Multiply computes the n×n→2n-bit product of the elements at aBase
// (multiplicand) and bBase (multiplier) into rows [prod, prod+2n).
// Following §III-C: the product area is zeroed, then for each multiplier
// bit the multiplier row is loaded into the tag latch and a tag-predicated
// add of the multiplicand into the shifted product window is performed,
// with the window's carry-out stored at the top. Emergent cost: n²+4n
// cycles (equals the paper's n²+5n−2 at its n=2 example; cheaper by n−2
// for larger n — the analytic ledger charges the paper's form).
func (a *Array) Multiply(aBase, bBase, prod, n int) {
	a.MultiplyAsym(aBase, bBase, prod, n, n)
}

// MultiplyAsym is Multiply with independent operand widths — the
// Stripes-style precision hook: an nA-bit multiplicand at aBase times an
// nB-bit multiplier at bBase into the (nA+nB)-bit product at prod. The
// multiplier width sets the slice count, so a 4-bit-weight layer runs
// half the slices of an 8-bit one. Emergent cost: nA·nB + nA + 3nB
// cycles (n²+4n at nA = nB = n).
func (a *Array) MultiplyAsym(aBase, bBase, prod, nA, nB int) {
	checkRows("Multiply a", aBase, nA)
	checkRows("Multiply b", bBase, nB)
	checkRows("Multiply prod", prod, nA+nB)
	// The full product window is read and written while the operands are
	// still live, so no part of it may touch either operand (a prod that
	// started nA rows above aBase would pass a width-nA check yet clobber
	// the multiplicand's top bits mid-multiply).
	checkDisjoint("Multiply prod", prod, nA+nB, "a", aBase, nA)
	checkDisjoint("Multiply prod", prod, nA+nB, "b", bBase, nB)
	a.Zero(prod, nA+nB, false)
	a.multiplySlices(aBase, bBase, prod, nA, nB, false)
}

// multiplySlices runs the nB multiplier bit-slices of a multiply whose
// product window [prod, prod+nA+nB) was zeroed at issue: slice i loads
// multiplier row bBase+i into the tag latch, resets the carry latch and
// adds the multiplicand into the window at prod+i under the tag. With
// skip set, a slice whose tag is zero on every lane is elided after its
// LoadTag (the wired-OR flag of MultiplySkip). It returns the number of
// elided slices. Healthy arrays run each executed slice as
// fusedMulSlice; arrays with injected faults step it through mulSlice.
func (a *Array) multiplySlices(aBase, bBase, prod, nA, nB int, skip bool) int {
	skipped := 0
	clean := true // no slice has written the window yet
	for i := 0; i < nB; i++ {
		a.cycleLoadTag(bBase + i)
		if skip && a.tag.IsZero() {
			skipped++
			continue
		}
		if a.faults == nil {
			a.fusedMulSlice(aBase, prod+i, nA, clean)
		} else {
			a.carry = bitvec.Zero() // latch reset on issue
			a.mulSlice(aBase, prod+i, nA)
		}
		clean = false
	}
	return skipped
}

// mulSlice executes one multiplier bit-slice as stepped microcode: the
// tag-predicated add of the nA-bit multiplicand into the shifted product
// window at win, then the predicated carry store above it. Emergent
// cost: nA+1 cycles.
func (a *Array) mulSlice(aBase, win, nA int) {
	for j := 0; j < nA; j++ {
		a.cycleAddBit(aBase+j, win+j, win+j, true)
	}
	a.cycleStoreCarry(win+nA, true)
}

// fusedMulSlice is mulSlice's healthy-array kernel, entered with the
// slice's multiplier row in the tag latch. The slice's issue resets the
// carry latch, so the kernel ripples from a zero carry without reading
// it. It adds A∧T, the multiplicand masked by the tag, without
// predication. That is
// exact: an untagged lane adds zero to its window bits from a zero
// carry, so it keeps its rows and a zero carry, as the predicated add
// leaves it. The window's top row win+nA is still zero from the issue
// zeroing (earlier slices write only below it), so the predicated carry
// store reduces to storing the carry, which is zero on untagged lanes,
// and leaves the latch zero. When clean is set no earlier slice wrote
// the window, so the add of A∧T to zero rows is A∧T itself with no
// carry: the slice stores it and its top row stays zero. Rows, latches
// and the nA+1 charged cycles match mulSlice exactly.
func (a *Array) fusedMulSlice(aBase, win, nA int, clean bool) {
	t0, t1, t2, t3 := a.tag[0], a.tag[1], a.tag[2], a.tag[3]
	if clean {
		for j := 0; j < nA; j++ {
			s := &a.rows[aBase+j]
			a.rows[win+j] = bitvec.Vec256{s[0] & t0, s[1] & t1, s[2] & t2, s[3] & t3}
		}
	} else {
		var c0, c1, c2, c3 uint64
		for j := 0; j < nA; j++ {
			s := &a.rows[aBase+j]
			m0, m1, m2, m3 := s[0]&t0, s[1]&t1, s[2]&t2, s[3]&t3
			d := &a.rows[win+j]
			d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
			x0, x1, x2, x3 := m0^d0, m1^d1, m2^d2, m3^d3
			*d = bitvec.Vec256{x0 ^ c0, x1 ^ c1, x2 ^ c2, x3 ^ c3}
			c0, c1, c2, c3 = m0&d0|x0&c0, m1&d1|x1&c1, m2&d2|x2&c2, m3&d3|x3&c3
		}
		a.rows[win+nA] = bitvec.Vec256{c0, c1, c2, c3}
	}
	a.carry = bitvec.Vec256{}
	a.stats.ComputeCycles += uint64(nA + 1)
}

// MulAcc multiplies the n-bit elements at aBase and bBase into the scratch
// product rows [prod, prod+2n) and accumulates the product into the
// accW-bit accumulator at accBase. The mapping must keep rows
// [prod+2n, prod+accW) zeroed so the product is read zero-extended
// (§IV-A's scratch-pad region provides them); MulAcc verifies that
// contract and panics on a dirty pad row. The accumulator must be
// disjoint from the product window and both operands — the accumulate
// reads the pad while the product is live, so even an exact alias
// corrupts. Emergent cost: n²+4n + accW cycles.
func (a *Array) MulAcc(aBase, bBase, prod, accBase, n, accW int) {
	a.MulAccAsym(aBase, bBase, prod, accBase, n, n, accW)
}

// MulAccAsym is MulAcc with independent operand widths: the nA-bit
// multiplicand at aBase times the nB-bit multiplier at bBase into the
// scratch product rows [prod, prod+nA+nB), accumulated into the accW-bit
// accumulator at accBase. The pad contract covers [prod+nA+nB,
// prod+accW). Emergent cost: nA·nB + nA + 3nB + accW cycles.
func (a *Array) MulAccAsym(aBase, bBase, prod, accBase, nA, nB, accW int) {
	a.mulAccChecks(aBase, bBase, prod, accBase, nA, nB, accW)
	a.MultiplyAsym(aBase, bBase, prod, nA, nB)
	a.AddTrunc(accBase, prod, accBase, accW)
}

// mulAccChecks enforces the row-map contract shared by MulAcc and
// MulAccSkip: a wide-enough accumulator, in-bounds windows, an
// accumulator disjoint from the product window and both operands, and a
// zeroed pad [prod+nA+nB, prod+accW). The pad check is skipped on arrays
// with injected faults — a stuck-at defect in the pad region legitimately
// dirties it, and the resulting mis-accumulation is exactly the blast
// radius fault campaigns measure.
func (a *Array) mulAccChecks(aBase, bBase, prod, accBase, nA, nB, accW int) {
	if accW < nA+nB {
		panic(fmt.Sprintf("sram: MulAcc accumulator width %d < product width %d", accW, nA+nB))
	}
	checkRows("MulAcc prod+pad", prod, accW)
	checkRows("MulAcc acc", accBase, accW)
	checkDisjoint("MulAcc acc", accBase, accW, "prod+pad", prod, accW)
	checkDisjoint("MulAcc acc", accBase, accW, "a", aBase, nA)
	checkDisjoint("MulAcc acc", accBase, accW, "b", bBase, nB)
	if a.faults != nil {
		return
	}
	for r := prod + nA + nB; r < prod+accW; r++ {
		if !a.rows[r].IsZero() {
			panic(fmt.Sprintf("sram: MulAcc pad row %d dirty; rows [%d,%d) must stay zero",
				r, prod+nA+nB, prod+accW))
		}
	}
}

// Divide computes, per lane, the quotient and remainder of the n-bit
// elements at aBase divided by those at bBase, using restoring long
// division. quot gets n rows, rem n+1 rows, and scratch needs n+2 rows.
// Lanes whose divisor is zero produce quotient 2ⁿ−1 and a truncated
// remainder (hardware-style saturation; callers guard).
// Emergent cost: 3n²+10n+1 cycles; the ledger charges the paper's
// 1.5n²+5.5n optimized non-restoring form.
func (a *Array) Divide(aBase, bBase, quot, rem, scratch, n int) {
	checkRows("Divide a", aBase, n)
	checkRows("Divide b", bBase, n)
	checkRows("Divide quot", quot, n)
	checkRows("Divide rem", rem, n+1)
	checkRows("Divide scratch", scratch, n+2)
	notB := scratch     // n rows: ¬b, prepared once
	diff := scratch + n // staging row for subtract ripple, n+1th reused
	carryRow := scratch + n + 1

	a.NotCopy(bBase, notB, n, false)
	a.Zero(rem, n+1, false)
	for i := n - 1; i >= 0; i-- {
		// Shift remainder up one row and bring in dividend bit i.
		for j := n - 1; j >= 0; j-- {
			a.cycleCopyRow(rem+j, rem+j+1, false)
		}
		a.cycleCopyRow(aBase+i, rem, false)
		// Trial subtract rem−b into the single staging row (values
		// discarded; only the carry chain matters), carry-out = (rem ≥ b).
		a.SetCarryOnes()
		for j := 0; j < n; j++ {
			a.cycleAddBit(rem+j, notB+j, diff, false)
		}
		// rem has n+1 bits; ripple the top bit with an implicit ¬0 = 1
		// operand: carry' = rem[n] | carry, computed via the same cycle
		// with notB replaced by an all-ones immediate is not available,
		// so stage rem[n] OR carry through the tag path instead.
		a.cycleStoreCarry(carryRow, false)
		a.Or(carryRow, rem+n, carryRow)
		a.cycleLoadTag(carryRow)
		// Predicated restore: where rem ≥ b, rem = rem − b.
		a.carry = bitvec.Ones().Select(a.carry, a.tag)
		a.stats.ComputeCycles++ // predicated carry preset
		for j := 0; j < n; j++ {
			a.cycleAddBit(rem+j, notB+j, rem+j, true)
		}
		a.cycleWriteImm(rem+n, bitvec.Zero(), true)
		// Quotient bit = tag.
		a.cycleCopyRow(carryRow, quot+i, false)
	}
}

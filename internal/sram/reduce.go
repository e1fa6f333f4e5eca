package sram

import (
	"fmt"

	"neuralcache/internal/bitvec"
)

// Reduction (§III-D, Figure 5): partial sums living on different bit lines
// of the same array are summed by moving half of them onto the other
// half's bit lines at a different word-line range and adding, log₂(count)
// times. The inter-bit-line move uses the column mux and sense-amp cycling
// at one cycle per row.

// ReduceStep performs one reduction step for every lane group of the
// array: the w-bit elements at rows [src,src+w) are shift-copied by
// `stride` lanes toward lane 0 into rows [op,op+w), then added back into
// [src,src+w) (truncated to w bits; the mapping sizes w so group sums
// cannot overflow). After the step, lane l holds element(l) +
// element(l+stride) for every l with a partner. Emergent cost: 2w cycles
// (w move + w add; the carry-latch reset is part of op issue).
//
// On healthy arrays the step runs fused: row i's shift-copy and the add
// of bit i happen in one pass, with the shift's word and bit offsets
// computed once. The add of bit i writes only row src+i, which no later
// shift reads, so rows, the carry and tag latches and the cycle count
// match the stepped microcode exactly. Arrays with injected faults keep
// the stepped path so every write crosses the fault hook.
func (a *Array) ReduceStep(src, op, w, stride int) {
	checkRows("ReduceStep src", src, w)
	checkRows("ReduceStep op", op, w)
	checkOverlap(op, src, w)
	if stride <= 0 || stride >= BitLines {
		panic(fmt.Sprintf("sram: ReduceStep stride %d outside (0,%d)", stride, BitLines))
	}
	// An op range aliasing src makes the add read the moved rows, which
	// the fused pass reads before the move; that case keeps the stepped
	// order too.
	if a.faults == nil && op != src {
		a.fusedReduceStep(src, op, w, stride)
		return
	}
	for i := 0; i < w; i++ {
		a.cycleShiftCopyRow(src+i, op+i, stride, false)
	}
	a.AddTrunc(src, op, src, w)
}

// fusedReduceStep is ReduceStep's healthy-array fast path. The shift is
// shiftVec's logical right shift of the 256-bit row by stride lanes; the
// row, the moved operand and the carry stay in registers. A zero source
// row reached with a zero carry writes its zero moved row and skips the
// add, whose sum is the row itself.
func (a *Array) fusedReduceStep(src, op, w, stride int) {
	words, rem := stride>>6, uint(stride&63)
	// A shift by 64 is zero in Go, so rem == 0 needs no branch.
	up := 64 - rem
	var c0, c1, c2, c3 uint64
	for i := 0; i < w; i++ {
		s := &a.rows[src+i]
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		if s0|s1|s2|s3|c0|c1|c2|c3 == 0 {
			// A zero row moves as a zero row and adds to zero with no
			// carry, so only the move's write remains.
			a.rows[op+i] = bitvec.Vec256{}
			continue
		}
		var m0, m1, m2, m3 uint64
		switch words {
		case 0:
			m0, m1, m2, m3 = s0>>rem|s1<<up, s1>>rem|s2<<up, s2>>rem|s3<<up, s3>>rem
		case 1:
			m0, m1, m2 = s1>>rem|s2<<up, s2>>rem|s3<<up, s3>>rem
		case 2:
			m0, m1 = s2>>rem|s3<<up, s3>>rem
		default:
			m0 = s3 >> rem
		}
		a.rows[op+i] = bitvec.Vec256{m0, m1, m2, m3}
		x0, x1, x2, x3 := s0^m0, s1^m1, s2^m2, s3^m3
		*s = bitvec.Vec256{x0 ^ c0, x1 ^ c1, x2 ^ c2, x3 ^ c3}
		c0, c1, c2, c3 = s0&m0|x0&c0, s1&m1|x1&c1, s2&m2|x2&c2, s3&m3|x3&c3
	}
	a.carry = bitvec.Vec256{c0, c1, c2, c3}
	a.stats.ComputeCycles += uint64(2 * w)
}

// Reduce sums groups of `count` w-bit elements laid out on consecutive
// bit lines. count must be a power of two; after the call, the first lane
// of each group (lanes 0, count, 2·count, …) holds its group's sum. op
// provides w scratch rows for the moved operand. Emergent cost:
// log₂(count) · 2w cycles.
func (a *Array) Reduce(src, op, w, count int) {
	if count <= 0 || count&(count-1) != 0 {
		panic(fmt.Sprintf("sram: Reduce count %d is not a power of two", count))
	}
	for stride := count / 2; stride >= 1; stride /= 2 {
		a.ReduceStep(src, op, w, stride)
	}
}

// ShiftLanes copies the w-bit elements at rows [src,src+w) to rows
// [dst,dst+w) moved by `shift` lanes (positive toward lane 0), one cycle
// per row. It is the raw inter-bit-line move used by quantization's
// min/max trees and by cross-array staging.
func (a *Array) ShiftLanes(src, dst, w, shift int, pred bool) {
	checkRows("ShiftLanes src", src, w)
	checkRows("ShiftLanes dst", dst, w)
	if shift != 0 {
		checkOverlap(dst, src, w)
	}
	for i := 0; i < w; i++ {
		a.cycleShiftCopyRow(src+i, dst+i, shift, pred)
	}
}

// ReduceMax performs a max-tree over groups of `count` w-bit unsigned
// elements on consecutive bit lines, leaving each group's maximum on its
// first lane. scratch needs w+1 rows beyond the op region. Emergent cost:
// log₂(count) · (4w+4) cycles.
func (a *Array) ReduceMax(src, op, scratch, w, count int) {
	a.reduceCmp(src, op, scratch, w, count, true)
}

// ReduceMin is ReduceMax's dual, leaving each group's minimum on its
// first lane.
func (a *Array) ReduceMin(src, op, scratch, w, count int) {
	a.reduceCmp(src, op, scratch, w, count, false)
}

func (a *Array) reduceCmp(src, op, scratch, w, count int, wantMax bool) {
	if count <= 0 || count&(count-1) != 0 {
		panic(fmt.Sprintf("sram: reduce count %d is not a power of two", count))
	}
	checkRows("reduceCmp scratch", scratch, w+1)
	for stride := count / 2; stride >= 1; stride /= 2 {
		for i := 0; i < w; i++ {
			a.cycleShiftCopyRow(src+i, op+i, stride, false)
		}
		if wantMax {
			a.Max(src, op, src, scratch, w)
		} else {
			a.Min(src, op, src, scratch, w)
		}
	}
}

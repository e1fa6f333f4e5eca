// Package sram models one 8 KB compute SRAM array — the unit of computation
// in Neural Cache (Eckert et al., ISCA 2018, §II-B and §III).
//
// An array has 256 word lines by 256 bit lines. Activating two word lines
// simultaneously senses the wire-AND of the two stored rows on the true bit
// lines (BL) and the NOR on the complementary bit lines (BLB). The column
// peripheral (Figure 7 of the paper) combines the two sensed values with a
// per-bit-line carry latch C and tag latch T to produce a sum bit and carry
// out; a 4:1 mux writes back one of {sum, carry, data-in, tag}, gated per
// bit line by the tag when predication is enabled.
//
// Data elements are stored transposed: all bits of an element live on one
// bit line, LSB on the lowest word line of the element's row range. Every
// bit line is an independent lane, so one array is a 256-lane bit-serial
// vector unit. Every composite operation in this package is defined as
// stepped microcode — one simulated compute cycle at a time — so the cycle
// counts reported in Stats are emergent, not asserted; tests check they
// equal the paper's closed forms (add n+1, multiply n²+5n−2, …). Arrays
// with injected faults run that microcode itself, so every write crosses
// the fault hook. Healthy arrays run the hot ops (copy, zero, add,
// multiply slice, reduce step) as fused word-parallel kernels that charge
// the same cycles and leave the same rows and latches;
// FuzzFusedMatchesStepped pins them to the stepped microcode.
package sram

import (
	"fmt"
	"math/bits"

	"neuralcache/internal/bitvec"
)

const (
	// WordLines is the number of rows in an 8 KB array.
	WordLines = 256
	// BitLines is the number of columns (lanes) in an 8 KB array.
	BitLines = 256
	// SizeBytes is the capacity of one array.
	SizeBytes = WordLines * BitLines / 8
)

// Array is a bit-accurate model of one 8 KB compute SRAM array. The zero
// value is an array with all bit cells, latches and counters zeroed, ready
// to use.
//
// An Array is not safe for concurrent use — like the hardware, one array
// executes one op at a time. Distinct Arrays share no state at all, so a
// caller that gives each goroutine exclusive ownership of a disjoint set
// of arrays (as the parallel functional engine does) needs no locking,
// and each array's Stats remain an exact function of its own op stream.
type Array struct {
	rows   [WordLines]bitvec.Vec256
	carry  bitvec.Vec256 // per-bit-line carry latch (C in Fig 7)
	tag    bitvec.Vec256 // per-bit-line tag latch (T in Fig 7)
	stats  Stats
	faults *faultState // injected defects, nil when healthy
}

// Stats counts the cycles an array has spent, split by the two energy
// classes of the paper's SPICE model (§V): compute cycles (two-row
// activation plus write-back, 15.4 pJ at 22 nm) and access cycles (normal
// single-row SRAM read/write, 8.6 pJ). Aggregation via Add is commutative
// and associative, so per-array counters collected by concurrent workers
// sum to the same totals in any merge order.
type Stats struct {
	ComputeCycles uint64
	AccessCycles  uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ComputeCycles += other.ComputeCycles
	s.AccessCycles += other.AccessCycles
}

// Total returns the total number of cycles of both classes.
func (s Stats) Total() uint64 { return s.ComputeCycles + s.AccessCycles }

// Stats returns the cycle counters accumulated so far.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the cycle counters without touching stored data.
func (a *Array) ResetStats() { a.stats = Stats{} }

// Reset clears all bit cells, latches and counters.
func (a *Array) Reset() { *a = Array{} }

// Tag returns the current tag latch row.
func (a *Array) Tag() bitvec.Vec256 { return a.tag }

// Carry returns the current carry latch row.
func (a *Array) Carry() bitvec.Vec256 { return a.carry }

// checkRows panics if the row range [base, base+n) is out of bounds.
// Mapping layers are responsible for row budgets; an out-of-range access
// here is a programming error, not a runtime condition.
func checkRows(what string, base, n int) {
	if base < 0 || n < 0 || base+n > WordLines {
		panic(fmt.Sprintf("sram: %s row range [%d,%d) outside [0,%d)", what, base, base+n, WordLines))
	}
}

// checkOverlap panics when a destination range would clobber a source
// range in a way the stepped microcode cannot tolerate. In-place
// accumulation (dst == srcA exactly) is allowed: cycle i writes dst bit i
// after sensing it, and later cycles only read higher bits.
func checkOverlap(dstBase, srcBase, n int) {
	if dstBase == srcBase {
		return
	}
	if dstBase < srcBase+n && srcBase < dstBase+n {
		panic(fmt.Sprintf("sram: destination rows [%d,%d) partially overlap source rows [%d,%d)",
			dstBase, dstBase+n, srcBase, srcBase+n))
	}
}

// checkDisjoint panics when two row ranges of independent widths share any
// row. Unlike checkOverlap it permits no aliasing at all: it guards ranges
// the microcode reads and writes in interleaved order, where even an exact
// alias corrupts lanes.
func checkDisjoint(whatA string, aBase, aN int, whatB string, bBase, bN int) {
	if aBase < bBase+bN && bBase < aBase+aN {
		panic(fmt.Sprintf("sram: %s rows [%d,%d) overlap %s rows [%d,%d)",
			whatA, aBase, aBase+aN, whatB, bBase, bBase+bN))
	}
}

// --- Host access path (SRAM mode, access cycles) ---

// ReadRow returns the stored row r via a normal SRAM read (1 access cycle).
func (a *Array) ReadRow(r int) bitvec.Vec256 {
	checkRows("ReadRow", r, 1)
	a.stats.AccessCycles++
	return a.rows[r]
}

// WriteRow stores v into row r via a normal SRAM write (1 access cycle).
func (a *Array) WriteRow(r int, v bitvec.Vec256) {
	checkRows("WriteRow", r, 1)
	a.stats.AccessCycles++
	a.setRow(r, v)
}

// PeekRow returns row r without charging cycles. Test and debug helper.
func (a *Array) PeekRow(r int) bitvec.Vec256 {
	checkRows("PeekRow", r, 1)
	return a.rows[r]
}

// PokeRow stores row r without charging cycles. Test and debug helper.
func (a *Array) PokeRow(r int, v bitvec.Vec256) {
	checkRows("PokeRow", r, 1)
	a.rows[r] = v
}

// WriteElement stores an n-bit value on bit line lane with its LSB at row
// base. This is the transposed store a TMU performs on behalf of the host;
// it charges one access cycle per row touched.
func (a *Array) WriteElement(lane, base, n int, v uint64) {
	checkRows("WriteElement", base, n)
	checkLane(lane)
	w, off := lane>>6, uint(lane)&63
	for i := 0; i < n; i++ {
		row := a.rows[base+i]
		row[w] = row[w]&^(1<<off) | (v>>uint(i)&1)<<off
		a.setRow(base+i, row)
	}
	a.stats.AccessCycles += uint64(n)
}

// ReadElement reads the n-bit value stored on bit line lane with LSB at
// row base, charging one access cycle per row.
func (a *Array) ReadElement(lane, base, n int) uint64 {
	checkRows("ReadElement", base, n)
	checkLane(lane)
	a.stats.AccessCycles += uint64(n)
	return a.peekElement(lane, base, n)
}

// PeekElement reads like ReadElement but charges no cycles (test helper).
func (a *Array) PeekElement(lane, base, n int) uint64 {
	checkRows("PeekElement", base, n)
	checkLane(lane)
	return a.peekElement(lane, base, n)
}

func (a *Array) peekElement(lane, base, n int) uint64 {
	w, off := lane>>6, uint(lane)&63
	var v uint64
	for i := 0; i < n; i++ {
		v |= (a.rows[base+i][w] >> off & 1) << uint(i)
	}
	return v
}

// checkElemWidth panics if an element width cannot be carried in one
// uint64 per lane, the contract of the plane pack/unpack kernels.
func checkElemWidth(what string, n int) {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("sram: %s element width %d outside [1,64]", what, n))
	}
}

// WritePlanes stores n pre-packed bit planes, plane i into row base+i,
// touching only the first lanes bit lines; lanes at or beyond that keep
// their stored bits. Every row passes through the fault-injection write
// hook like any other store. One access cycle per row, matching the
// TMU's transposed store.
func (a *Array) WritePlanes(base, n int, planes []bitvec.Vec256, lanes int) {
	checkRows("WritePlanes", base, n)
	if lanes < 0 || lanes > BitLines {
		panic(fmt.Sprintf("sram: WritePlanes lane count %d outside [0,%d]", lanes, BitLines))
	}
	a.stats.AccessCycles += uint64(n)
	if a.faults == nil && lanes == BitLines {
		copy(a.rows[base:base+n], planes[:n])
		return
	}
	mask := bitvec.Mask(lanes)
	for i := 0; i < n; i++ {
		a.setRow(base+i, planes[i].Select(a.rows[base+i], mask))
	}
}

// WriteElements stores the same-shaped n-bit value per lane for the first
// len(vals) lanes, LSB at row base; lanes at or beyond len(vals) keep
// their stored bits. Every value must fit in n bits.
func (a *Array) WriteElements(base, n int, vals []uint64) {
	if len(vals) > BitLines {
		panic(fmt.Sprintf("sram: %d values exceed %d bit lines", len(vals), BitLines))
	}
	checkElemWidth("WriteElements", n)
	checkRows("WriteElements", base, n)
	if n < 64 {
		for lane, v := range vals {
			if v>>uint(n) != 0 {
				panic(fmt.Sprintf("sram: WriteElements value %#x at lane %d outside [0,1<<%d)", v, lane, n))
			}
		}
	}
	var planes [64]bitvec.Vec256
	bitvec.PackPlanes(vals, n, planes[:n])
	a.WritePlanes(base, n, planes[:n], len(vals))
}

// ReadElements reads count n-bit elements from lanes [0, count), LSB at
// row base. It is the stride-1 case of ReadLanes' gather, charged as a
// whole-row read: one access cycle per row, whatever the lane count.
func (a *Array) ReadElements(base, n, count int) []uint64 {
	if count > BitLines {
		panic(fmt.Sprintf("sram: %d values exceed %d bit lines", count, BitLines))
	}
	checkElemWidth("ReadElements", n)
	checkRows("ReadElements", base, n)
	vals := make([]uint64, count)
	a.gatherLanes(base, n, 0, 1, vals)
	a.stats.AccessCycles += uint64(n)
	return vals
}

// ReadLanes reads len(out) n-bit elements, LSB at row base, from bit
// lines first, first+stride, first+2·stride, … into out. It charges n
// access cycles per element, exactly what as many ReadElement calls
// charge, so a per-lane readback loop becomes one call without moving
// the cycle ledger.
func (a *Array) ReadLanes(base, n, first, stride int, out []uint64) {
	checkElemWidth("ReadLanes", n)
	checkRows("ReadLanes", base, n)
	if len(out) == 0 {
		return
	}
	if stride < 1 {
		panic(fmt.Sprintf("sram: ReadLanes stride %d below 1", stride))
	}
	checkLane(first)
	checkLane(first + (len(out)-1)*stride)
	a.gatherLanes(base, n, first, stride, out)
	a.stats.AccessCycles += uint64(n * len(out))
}

// gatherLanes is the read kernel behind ReadLanes and ReadElements; it
// charges nothing. For power-of-two strides below 64 it works a 64-lane
// window at a time, each row's window word realigned to the window's
// first lane; other strides gather each element's bits row by row.
//
// A window keeps every stride-th bit line, m = 64/stride elements. Row
// i's kept bits go to bit i%stride of the stride-bit fields of word
// y[i/stride], so y[q] holds bits q·stride … q·stride+stride−1 of every
// element, one field per element. At stride 1 the fields are single bits,
// y is the window's bit planes, and Unpack64 transposes them. At larger
// strides, swapping the words' off-diagonal field blocks (the remaining
// rounds of a 64×64 bit-matrix transpose, Hacker's Delight §7-3) leaves
// element k whole in y[k].
func (a *Array) gatherLanes(base, n, first, stride int, out []uint64) {
	rows := a.rows[base : base+n]
	if stride >= 64 || stride&(stride-1) != 0 {
		for k := range out {
			lane := first + k*stride
			w, off := lane>>6, uint(lane&63)
			var v uint64
			for i := range rows {
				v |= (rows[i][w] >> off & 1) << uint(i)
			}
			out[k] = v
		}
		return
	}
	var sel uint64
	for pos := 0; pos < 64; pos += stride {
		sel |= 1 << uint(pos)
	}
	k := uint(bits.TrailingZeros(uint(stride)))
	m, words := 64>>k, (n+stride-1)>>k
	var y [64]uint64
	for lo := 0; lo < len(out); lo += m {
		lane := first + lo*stride
		w, off := lane>>6, uint(lane&63)
		for q := 0; q < words; q++ {
			var v uint64
			for i := q << k; i < min((q+1)<<k, n); i++ {
				x := rows[i][w] >> off
				if off != 0 && w+1 < bitvec.Words {
					x |= rows[i][w+1] << (64 - off)
				}
				v |= (x & sel) << uint(i&(stride-1))
			}
			y[q] = v
		}
		dst := out[lo:min(lo+m, len(out))]
		if stride == 1 {
			bitvec.Unpack64(y[:n], n, dst)
			continue
		}
		clear(y[words:m])
		for j := 32; j >= stride; j >>= 1 {
			d, mask := j>>k, transposeMasks[bits.TrailingZeros(uint(j))]
			for q0 := 0; q0 < m; q0 += 2 * d {
				for q := q0; q < q0+d; q++ {
					t := (y[q]>>uint(j) ^ y[q+d]) & mask
					y[q] ^= t << uint(j)
					y[q+d] ^= t
				}
			}
		}
		copy(dst, y[:len(dst)])
	}
}

// transposeMasks[b] keeps the low 2^b bits of every 2^(b+1)-bit group:
// the blocks a 64×64 bit-matrix transpose swaps in its round of width
// 2^b.
var transposeMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
}

func checkLane(lane int) {
	if lane < 0 || lane >= BitLines {
		panic(fmt.Sprintf("sram: lane %d outside [0,%d)", lane, BitLines))
	}
}

// --- Compute micro-operations ---
// Each of the helpers below models exactly one compute cycle: a sense
// phase (two word lines activated, AND on BL, NOR on BLB) and a write-back
// phase (one word line driven from the peripheral mux). They are the only
// places that advance ComputeCycles, so composite op costs are emergent.

// sense2 activates rows ra and rb simultaneously and returns the sensed
// AND, NOR and the XOR derived in the peripheral (A^B = ~(A&B) & ~(~A&~B)).
func (a *Array) sense2(ra, rb int) (and, nor, xor bitvec.Vec256) {
	and = a.rows[ra].And(a.rows[rb])
	nor = a.rows[ra].Nor(a.rows[rb])
	xor = and.Or(nor).Not()
	return and, nor, xor
}

// cycleLogic performs one bit-parallel logic cycle: sense rows ra, rb and
// write f(and, nor, xor) back to row dst. Compute Cache's bit-parallel
// operations (and, or, xor, nor, copy-with-invert) are built on this.
func (a *Array) cycleLogic(ra, rb, dst int, f func(and, nor, xor bitvec.Vec256) bitvec.Vec256) {
	and, nor, xor := a.sense2(ra, rb)
	a.setRow(dst, f(and, nor, xor))
	a.stats.ComputeCycles++
}

// cycleAddBit performs one bit position of a bit-serial addition: senses
// rows ra and rb, combines with the carry latch, writes the sum bit to row
// dst and updates the carry latch. When pred is true, both the write-back
// and the carry latch update are gated per bit line by the tag latch
// (C_EN and the bit-line driver enable in Fig 7).
func (a *Array) cycleAddBit(ra, rb, dst int, pred bool) {
	and, _, xor := a.sense2(ra, rb)
	sum := xor.Xor(a.carry)
	carryOut := and.Or(xor.And(a.carry))
	if pred {
		a.setRow(dst, sum.Select(a.rows[dst], a.tag))
		a.carry = carryOut.Select(a.carry, a.tag)
	} else {
		a.setRow(dst, sum)
		a.carry = carryOut
	}
	a.stats.ComputeCycles++
}

// cycleStoreCarry writes the carry latch to row dst through the 4:1 mux
// and clears the latch. Predicated like cycleAddBit when pred is true.
func (a *Array) cycleStoreCarry(dst int, pred bool) {
	if pred {
		a.setRow(dst, a.carry.Select(a.rows[dst], a.tag))
		a.carry = bitvec.Zero().Select(a.carry, a.tag)
	} else {
		a.setRow(dst, a.carry)
		a.carry = bitvec.Zero()
	}
	a.stats.ComputeCycles++
}

// cycleLoadTag senses row r alone and latches it into the tag latch.
func (a *Array) cycleLoadTag(r int) {
	a.tag = a.rows[r]
	a.stats.ComputeCycles++
}

// cycleLoadTagInv senses row r alone and latches its complement (sensed on
// BLB) into the tag latch.
func (a *Array) cycleLoadTagInv(r int) {
	a.tag = a.rows[r].Not()
	a.stats.ComputeCycles++
}

// cycleTagAnd senses row r alone and ANDs it into the tag latch. Used by
// the equality-search microcode inherited from Compute Cache.
func (a *Array) cycleTagAnd(v bitvec.Vec256) {
	a.tag = a.tag.And(v)
	a.stats.ComputeCycles++
}

// cycleCopyRow copies row src to row dst in one sense-amp cycle.
// Predicated when pred is true.
func (a *Array) cycleCopyRow(src, dst int, pred bool) {
	v := a.rows[src]
	if pred {
		a.setRow(dst, v.Select(a.rows[dst], a.tag))
	} else {
		a.setRow(dst, v)
	}
	a.stats.ComputeCycles++
}

// cycleNotCopyRow copies the complement of row src (sensed on BLB) to dst.
func (a *Array) cycleNotCopyRow(src, dst int, pred bool) {
	v := a.rows[src].Not()
	if pred {
		a.setRow(dst, v.Select(a.rows[dst], a.tag))
	} else {
		a.setRow(dst, v)
	}
	a.stats.ComputeCycles++
}

// cycleWriteImm drives v onto the bit lines from the peripheral data-in
// path and writes it to row dst. Bulk zeroing writes a zero vector.
// Predicated when pred is true.
func (a *Array) cycleWriteImm(dst int, v bitvec.Vec256, pred bool) {
	if pred {
		a.setRow(dst, v.Select(a.rows[dst], a.tag))
	} else {
		a.setRow(dst, v)
	}
	a.stats.ComputeCycles++
}

// cycleShiftCopyRow reads row src and writes it to row dst shifted by
// `shift` bit lines toward lane 0 (shift > 0 moves lane l to lane
// l-shift). This models the inter-bit-line move used by reduction
// (Figure 5), realized with the column mux and sense-amp cycling
// (§III-D); one cycle per row.
func (a *Array) cycleShiftCopyRow(src, dst, shift int, pred bool) {
	v := shiftVec(a.rows[src], shift)
	if pred {
		a.setRow(dst, v.Select(a.rows[dst], a.tag))
	} else {
		a.setRow(dst, v)
	}
	a.stats.ComputeCycles++
}

// shiftVec shifts v by `shift` lanes toward lane 0 (for shift > 0) or away
// from lane 0 (shift < 0), filling with zeros. Treating the vector as a
// 256-bit little-endian integer this is a logical right (shift > 0) or
// left (shift < 0) shift, implemented word-wide.
func shiftVec(v bitvec.Vec256, shift int) bitvec.Vec256 {
	switch {
	case shift == 0:
		return v
	case shift >= bitvec.Bits || shift <= -bitvec.Bits:
		return bitvec.Zero()
	case shift > 0:
		words, rem := shift/64, uint(shift%64)
		var out bitvec.Vec256
		for i := 0; i+words < bitvec.Words; i++ {
			out[i] = v[i+words] >> rem
			if rem != 0 && i+words+1 < bitvec.Words {
				out[i] |= v[i+words+1] << (64 - rem)
			}
		}
		return out
	default: // shift < 0: move away from lane 0
		k := -shift
		words, rem := k/64, uint(k%64)
		var out bitvec.Vec256
		for i := bitvec.Words - 1; i-words >= 0; i-- {
			out[i] = v[i-words] << rem
			if rem != 0 && i-words-1 >= 0 {
				out[i] |= v[i-words-1] >> (64 - rem)
			}
		}
		return out
	}
}

// SetTag overwrites the tag latch directly from the peripheral data-in
// path (one compute cycle). The engine uses it to apply externally
// computed lane masks.
func (a *Array) SetTag(v bitvec.Vec256) {
	a.tag = v
	a.stats.ComputeCycles++
}

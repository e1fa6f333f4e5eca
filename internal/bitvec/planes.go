package bitvec

import "math/bits"

// Bit-plane pack/unpack kernels.
//
// The transposed data layout of a compute SRAM array (§III: element bit i
// of lane l lives in row base+i, bit line l) means staging an element
// vector is a bit-matrix transpose: lanes-by-bits in operand memory,
// bits-by-lanes in the array. The kernels below perform that transpose
// 64 lanes at a time with the classic 8×8 bit-matrix transpose
// (delta-swap) instead of visiting each (lane, bit) cell individually,
// so writing an 8-bit element vector into an array costs a handful of
// word operations per plane rather than 256 SetBit calls.

// transpose8x8 transposes the 8×8 bit matrix packed into x, where byte r
// holds row r and bit c of that byte holds column c. The result has byte
// c holding the original column c. Three delta-swap rounds (Hacker's
// Delight §7-3).
func transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x ^= t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x ^= t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	x ^= t ^ (t << 28)
	return x
}

// Pack64 transposes up to 64 n-bit elements into n bit-plane words: after
// the call, bit l of planes[i] is bit i of vals[l]. Plane bits for lanes
// at or beyond len(vals) are zero, and bits of vals at or above n are
// ignored. n must be in [1, 64], len(vals) at most 64, and len(planes) at
// least n.
func Pack64(vals []uint64, n int, planes []uint64) {
	for i := 0; i < n; i++ {
		planes[i] = 0
	}
	for b := 0; b*8 < n; b++ {
		lim := n - b*8
		if lim > 8 {
			lim = 8
		}
		for g := 0; g*8 < len(vals); g++ {
			rows := len(vals) - g*8
			if rows > 8 {
				rows = 8
			}
			if rows == 8 && lim == 8 {
				pack8x8(vals[g*8:g*8+8], uint(8*b), planes[b*8:b*8+8], uint(8*g))
				continue
			}
			var x uint64
			for r := 0; r < rows; r++ {
				x |= (vals[g*8+r] >> (8 * b) & 0xff) << (8 * r)
			}
			x = transpose8x8(x)
			for c := 0; c < lim; c++ {
				planes[b*8+c] |= (x >> (8 * c) & 0xff) << (8 * g)
			}
		}
	}
}

// pack8x8 is Pack64's unrolled kernel for a full block: it transposes
// byte `shift/8` of eight lanes into eight planes, at bit offset `at`.
func pack8x8(v []uint64, shift uint, p []uint64, at uint) {
	_, _ = v[7], p[7]
	x := v[0]>>shift&0xff |
		(v[1]>>shift&0xff)<<8 |
		(v[2]>>shift&0xff)<<16 |
		(v[3]>>shift&0xff)<<24 |
		(v[4]>>shift&0xff)<<32 |
		(v[5]>>shift&0xff)<<40 |
		(v[6]>>shift&0xff)<<48 |
		(v[7]>>shift&0xff)<<56
	x = transpose8x8(x)
	p[0] |= (x & 0xff) << at
	p[1] |= (x >> 8 & 0xff) << at
	p[2] |= (x >> 16 & 0xff) << at
	p[3] |= (x >> 24 & 0xff) << at
	p[4] |= (x >> 32 & 0xff) << at
	p[5] |= (x >> 40 & 0xff) << at
	p[6] |= (x >> 48 & 0xff) << at
	p[7] |= (x >> 56) << at
}

// Unpack64 is the inverse of Pack64: it gathers bit i of each lane from
// planes[i] and reassembles up to 64 n-bit elements. n must be in
// [1, 64], len(vals) at most 64, and len(planes) at least n.
func Unpack64(planes []uint64, n int, vals []uint64) {
	for l := range vals {
		vals[l] = 0
	}
	for b := 0; b*8 < n; b++ {
		lim := n - b*8
		if lim > 8 {
			lim = 8
		}
		for g := 0; g*8 < len(vals); g++ {
			var x uint64
			for c := 0; c < lim; c++ {
				x |= (planes[b*8+c] >> (8 * g) & 0xff) << (8 * c)
			}
			x = transpose8x8(x)
			rows := len(vals) - g*8
			if rows > 8 {
				rows = 8
			}
			for r := 0; r < rows; r++ {
				vals[g*8+r] |= (x >> (8 * r) & 0xff) << (8 * b)
			}
		}
	}
}

// PackPlanes transposes up to 256 n-bit elements into n Vec256 bit
// planes, one per element bit: bit line l of planes[i] is bit i of
// vals[l]. Lanes at or beyond len(vals) are zero in every plane. n must
// be in [1, 64], len(vals) at most Bits, and len(planes) at least n.
func PackPlanes(vals []uint64, n int, planes []Vec256) {
	for i := 0; i < n; i++ {
		planes[i] = Vec256{}
	}
	var pw [64]uint64
	for w := 0; w*64 < len(vals); w++ {
		lo := w * 64
		hi := lo + 64
		if hi > len(vals) {
			hi = len(vals)
		}
		Pack64(vals[lo:hi], n, pw[:n])
		for i := 0; i < n; i++ {
			planes[i][w] = pw[i]
		}
	}
}

// UnpackPlanes is the inverse of PackPlanes: it reassembles up to 256
// n-bit elements from n Vec256 bit planes. n must be in [1, 64],
// len(vals) at most Bits, and len(planes) at least n.
func UnpackPlanes(planes []Vec256, n int, vals []uint64) {
	var pw [64]uint64
	var lv [64]uint64
	for w := 0; w*64 < len(vals); w++ {
		lo := w * 64
		hi := lo + 64
		if hi > len(vals) {
			hi = len(vals)
		}
		for i := 0; i < n; i++ {
			pw[i] = planes[i][w]
		}
		Unpack64(pw[:n], n, lv[:hi-lo])
		copy(vals[lo:hi], lv[:hi-lo])
	}
}

// PackPlanesRef is the bit-by-bit specification of PackPlanes, kept as
// the oracle for property tests.
func PackPlanesRef(vals []uint64, n int, planes []Vec256) {
	for i := 0; i < n; i++ {
		v := Zero()
		for l, val := range vals {
			v = v.SetBit(l, uint(val>>uint(i))&1)
		}
		planes[i] = v
	}
}

// UnpackPlanesRef is the bit-by-bit specification of UnpackPlanes.
func UnpackPlanesRef(planes []Vec256, n int, vals []uint64) {
	for l := range vals {
		var val uint64
		for i := 0; i < n; i++ {
			val |= uint64(planes[i].Bit(l)) << uint(i)
		}
		vals[l] = val
	}
}

// OnesCountRange returns the number of set bits at positions [lo, hi).
// Bounds are clamped to [0, Bits].
func (v Vec256) OnesCountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > Bits {
		hi = Bits
	}
	n := 0
	for w := 0; w < Words; w++ {
		wlo, whi := w*64, w*64+64
		if hi <= wlo || lo >= whi {
			continue
		}
		word := v[w]
		if lo > wlo {
			word &^= (1 << uint(lo-wlo)) - 1
		}
		if hi < whi {
			word &= (1 << uint(hi-wlo)) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

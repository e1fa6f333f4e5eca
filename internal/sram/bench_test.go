package sram

import "testing"

// Package-level microbenchmarks: host-side simulation speed of the
// stepped bit-serial microcode (how fast the simulator itself runs, as
// opposed to the charged in-cache cycles the ledger reports).

func benchArray() *Array {
	var a Array
	vals := make([]uint64, BitLines)
	for i := range vals {
		vals[i] = uint64(i)
	}
	a.WriteElements(0, 8, vals)
	a.WriteElements(8, 8, vals)
	a.WriteElements(120, 32, vals)
	return &a
}

func BenchmarkAdd8(b *testing.B) {
	a := benchArray()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(0, 8, 16, 8)
	}
}

func BenchmarkMultiply8(b *testing.B) {
	a := benchArray()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Multiply(0, 8, 32, 8)
	}
}

func BenchmarkMulAcc8x24(b *testing.B) {
	a := benchArray()
	a.Zero(200, 32, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.MulAcc(0, 8, 160, 200, 8, 24)
	}
}

func BenchmarkDivide8(b *testing.B) {
	a := benchArray()
	for lane := 0; lane < BitLines; lane++ {
		a.WriteElement(lane, 8, 8, uint64(lane%7)+1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Divide(0, 8, 64, 80, 100, 8)
	}
}

func BenchmarkReduce256Lanes(b *testing.B) {
	a := benchArray()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reduce(120, 160, 32, 256)
	}
}

func BenchmarkMultiplySkipSparse(b *testing.B) {
	a := benchArray()
	// Zero multipliers: the best case for slice skipping.
	a.Zero(8, 64, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.MultiplySkip(0, 8, 32, 8)
	}
}

func BenchmarkWriteElements(b *testing.B) {
	var a Array
	vals := make([]uint64, BitLines)
	for i := range vals {
		vals[i] = uint64(i*3) & 0xff
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.WriteElements(0, 8, vals)
	}
}

// The staging pair measures the word-packed element staging (plane
// transpose kernels) against the bit-by-bit path it replaced, side by
// side; TestPackedStagingOutrunsBitwise fails if the packed path
// regresses toward the bitwise one.
func BenchmarkStagingPacked(b *testing.B) {
	var a Array
	vals := make([]uint64, BitLines)
	for i := range vals {
		vals[i] = uint64(i*7) & 0xff
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.WriteElements(0, 8, vals)
	}
}

func BenchmarkStagingBitwise(b *testing.B) {
	var a Array
	vals := make([]uint64, BitLines)
	for i := range vals {
		vals[i] = uint64(i*7) & 0xff
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeElementsBitwise(&a, 0, 8, vals)
	}
}

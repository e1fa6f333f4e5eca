package bitvec

import (
	"math/rand"
	"testing"
)

func randVals(r *rand.Rand, count, n int) []uint64 {
	vals := make([]uint64, count)
	var mask uint64 = ^uint64(0)
	if n < 64 {
		mask = 1<<uint(n) - 1
	}
	for i := range vals {
		vals[i] = r.Uint64() & mask
	}
	return vals
}

func TestPackPlanesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		count := 1 + r.Intn(Bits)
		vals := randVals(r, count, n)
		got := make([]Vec256, n)
		want := make([]Vec256, n)
		PackPlanes(vals, n, got)
		PackPlanesRef(vals, n, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d count=%d plane %d:\n got %v\nwant %v",
					n, count, i, got[i], want[i])
			}
		}
	}
}

// TestPackPlanesNarrowWidths checks PackPlanes against the bit-by-bit
// reference at every element width up to a byte, for lane counts on both
// sides of each 8-lane block and 64-lane word boundary. Every value has
// bits set at or above n, which must be ignored; planes are handed in
// dirty and must be overwritten, and planes past n must stay untouched.
func TestPackPlanesNarrowWidths(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	patterns := []struct {
		name string
		val  func(lane, n int) uint64
	}{
		{"random", func(_, n int) uint64 { return r.Uint64() | 1<<uint(n) }},
		{"ones", func(int, int) uint64 { return ^uint64(0) }},
		{"one bit", func(lane, n int) uint64 { return 1<<uint(lane%n) | 1<<uint(n+lane%3) }},
	}
	dirty := Vec256{0xdead, 0xbeef, 0xf00d, 0xcafe}
	for n := 1; n <= 8; n++ {
		for _, count := range []int{1, 7, 8, 9, 63, 64, 65, 128, 200, 255, 256} {
			for _, p := range patterns {
				vals := make([]uint64, count)
				for l := range vals {
					vals[l] = p.val(l, n)
				}
				got := make([]Vec256, 9)
				for i := range got {
					got[i] = dirty
				}
				want := make([]Vec256, n)
				PackPlanes(vals, n, got)
				PackPlanesRef(vals, n, want)
				for i := 0; i < n; i++ {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d count=%d plane %d:\n got %v\nwant %v",
							p.name, n, count, i, got[i], want[i])
					}
				}
				for i := n; i < len(got); i++ {
					if got[i] != dirty {
						t.Fatalf("%s n=%d count=%d: plane %d past n was written", p.name, n, count, i)
					}
				}
			}
		}
	}
}

func TestPlanesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		count := 1 + r.Intn(Bits)
		vals := randVals(r, count, n)
		planes := make([]Vec256, n)
		PackPlanes(vals, n, planes)
		back := make([]uint64, count)
		pw := make([]uint64, n)
		for lo := 0; lo < count; lo += 64 {
			for i := range pw {
				pw[i] = planes[i][lo/64]
			}
			Unpack64(pw, n, back[lo:min(lo+64, count)])
		}
		for l := range vals {
			if back[l] != vals[l] {
				t.Fatalf("n=%d count=%d lane %d: round trip %#x -> %#x",
					n, count, l, vals[l], back[l])
			}
		}
	}
}

func TestPack64RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		count := 1 + r.Intn(64)
		vals := randVals(r, count, n)
		planes := make([]uint64, n)
		Pack64(vals, n, planes)
		back := make([]uint64, count)
		Unpack64(planes, n, back)
		for l := range vals {
			if back[l] != vals[l] {
				t.Fatalf("n=%d count=%d lane %d: round trip %#x -> %#x",
					n, count, l, vals[l], back[l])
			}
		}
	}
}

func TestPackPlanesShortLanesAreZero(t *testing.T) {
	vals := []uint64{0xff, 0xff, 0xff}
	planes := make([]Vec256, 8)
	PackPlanes(vals, 8, planes)
	for i, p := range planes {
		if p.OnesCount() != len(vals) {
			t.Fatalf("plane %d has %d set bits, want %d", i, p.OnesCount(), len(vals))
		}
		if p.OnesCountRange(0, len(vals)) != len(vals) {
			t.Fatalf("plane %d set bits outside the staged lanes", i)
		}
	}
}

func TestOnesCountRange(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		v := Vec256{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
		lo := r.Intn(Bits + 1)
		hi := r.Intn(Bits + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for i := lo; i < hi; i++ {
			want += int(v.Bit(i))
		}
		if got := v.OnesCountRange(lo, hi); got != want {
			t.Fatalf("OnesCountRange(%d,%d) = %d, want %d on %v", lo, hi, got, want, v)
		}
	}
	if got := Ones().OnesCountRange(-10, 300); got != Bits {
		t.Fatalf("clamped full range = %d, want %d", got, Bits)
	}
}

// TestPackBytesMatchesReference checks the byte-lane packer against the
// bit-by-bit reference at every width up to a byte, for lane counts on
// both sides of each 8-lane block and 64-lane word boundary. Values carry
// bits at and above n, which must be ignored; planes are handed in dirty
// and must be overwritten, and planes past n must stay untouched.
func TestPackBytesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dirty := Vec256{0xdead, 0xbeef, 0xf00d, 0xcafe}
	for n := 1; n <= 8; n++ {
		for _, count := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 255, 256} {
			for _, density := range []int{0, 1, 4, 8} {
				vals := make([]byte, count)
				for l := range vals {
					// density/8 of the 8-lane blocks hold data, so zero
					// blocks are skipped mid-word as well as at the tail.
					if r.Intn(8) < density {
						vals[l] = byte(r.Intn(256)) | 1<<uint(n%8)
					}
				}
				checkPackBytes(t, vals, n, dirty)
			}
		}
	}
}

func checkPackBytes(t *testing.T, vals []byte, n int, dirty Vec256) {
	t.Helper()
	wide := make([]uint64, len(vals))
	for l, v := range vals {
		wide[l] = uint64(v)
	}
	got := make([]Vec256, 9)
	for i := range got {
		got[i] = dirty
	}
	want := make([]Vec256, n)
	PackBytes(vals, n, got)
	PackPlanesRef(wide, n, want)
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("n=%d count=%d plane %d:\n got %v\nwant %v", n, len(vals), i, got[i], want[i])
		}
	}
	for i := n; i < len(got); i++ {
		if got[i] != dirty {
			t.Fatalf("n=%d count=%d: plane %d past n was written", n, len(vals), i)
		}
	}
}

func TestPackBytesRejectsBadShapes(t *testing.T) {
	planes := make([]Vec256, 9)
	for _, tc := range []struct{ count, n int }{{8, 0}, {8, 9}, {Bits + 1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackBytes of %d lanes at width %d did not panic", tc.count, tc.n)
				}
			}()
			PackBytes(make([]byte, tc.count), tc.n, planes)
		}()
	}
}

// FuzzPackBytes checks the byte-lane packer against the bit-by-bit
// reference on arbitrary lanes: the first 256 bytes of data at width
// 1 + n mod 8.
func FuzzPackBytes(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0xff}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		if len(data) > Bits {
			data = data[:Bits]
		}
		checkPackBytes(t, data, 1+int(n%8), Vec256{1, 2, 3, 4})
	})
}

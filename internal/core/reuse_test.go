package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"neuralcache/internal/bitvec"
	"neuralcache/internal/mapping"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
)

// Tests for the cache pool and the per-layer filter packing: a System
// reuses its simulated caches across runs, and convolutions stage filter
// planes packed once per layer. Neither may leave a trace in any result.

// sameResult fails unless got equals a run of the same net and input on
// a fresh System: output, trace, cycle stats, arrays used and ledgers.
func sameResult(t *testing.T, label string, got *FunctionalResult, net *nn.Network, in *tensor.Quant) {
	t.Helper()
	want, err := smallSystem(t).RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from a fresh System's:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestPooledRunsMatchFreshSystem interleaves every golden net twice on
// one System: each run must equal the same run on a fresh System.
func TestPooledRunsMatchFreshSystem(t *testing.T) {
	sys := smallSystem(t)
	for round := 0; round < 2; round++ {
		for _, g := range goldenNets() {
			got, err := sys.RunFunctional(g.net, g.in)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("round %d %s", round, g.net.Name), got, g.net, g.in)
		}
	}
}

// TestCacheReusedAfterGCOnAnotherGoroutine: a run that follows two
// garbage collections, on a goroutine of its own, leases the cache an
// earlier run returned instead of building the geometry and its arrays
// again, so it allocates under a quarter of what the first run did.
func TestCacheReusedAfterGCOnAnotherGoroutine(t *testing.T) {
	sys := smallSystem(t)
	g := goldenNets()[0]
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		errc := make(chan error)
		go func() {
			_, err := sys.RunFunctional(g.net, g.in)
			errc <- err
		}()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	runtime.GC()
	runtime.GC()
	if second := run(); second*4 >= first {
		t.Fatalf("second run allocated %d B, first %d B: the cache was rebuilt", second, first)
	}
}

// TestFailedRunLeavesPoolClean: a run whose first convolution touches
// arrays (and injects faults into them) before its second convolution
// fails to map must not hand those arrays to the next run.
func TestFailedRunLeavesPoolClean(t *testing.T) {
	bad := &nn.Network{
		Name:  "too_wide",
		Input: tensor.Shape{H: 2, W: 2, C: 8},
		Layers: []nn.Layer{
			&nn.Conv2D{LayerName: "fan_out", R: 3, S: 3, Cin: 8, Cout: 600,
				Stride: 1, PadH: 1, PadW: 1, ReLU: true},
			// 600 channels need 1024 lanes, more than an array pair holds.
			&nn.Conv2D{LayerName: "too_wide", R: 3, S: 3, Cin: 600, Cout: 2, Stride: 1, PadH: 1, PadW: 1},
		},
	}
	bad.InitWeights(3)
	sys := smallSystem(t)
	var touched atomic.Int64 // the injector runs on every worker
	_, err := sys.RunFunctionalFaulty(bad, randQuant(bad.Input, 4), func(ordinal int, a *sram.Array) {
		touched.Add(1)
		a.InjectDeadLane(ordinal % sram.BitLines)
		a.InjectStuckAt(70, (ordinal*7)%sram.BitLines, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "exceeding an array pair") {
		t.Fatalf("err = %v, want the second convolution's mapping error", err)
	}
	if touched.Load() == 0 {
		t.Fatal("the failing run touched no arrays before its error")
	}
	for _, g := range goldenNets() {
		got, err := sys.RunFunctional(g.net, g.in)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "after a failed run: "+g.net.Name, got, g.net, g.in)
	}
}

// TestPackedFiltersMatchPerGroupGather checks every group's packed filter
// planes against a per-group gather of the filter bytes, lane by lane,
// packed by the bit-by-bit reference. The convolutions cover images that
// repeat after several groups, partial last groups inside and past the
// first period, the split-filter and packed 1×1 layouts, 4-bit weights
// and array-pair spills. The synthetic convolutions must also run
// bit-exactly against the reference executor.
func TestPackedFiltersMatchPerGroupGather(t *testing.T) {
	params := mapping.Defaults()
	sys := smallSystem(t)
	var placed []nn.Placed
	for _, g := range goldenNets() {
		placed = append(placed, g.net.Convs()...)
	}
	for _, tc := range []struct {
		in tensor.Shape
		c  *nn.Conv2D
	}{
		{tensor.Shape{H: 9, W: 9, C: 3}, &nn.Conv2D{R: 3, S: 3, Cin: 3, Cout: 10, Stride: 1}},
		{tensor.Shape{H: 6, W: 6, C: 2}, &nn.Conv2D{R: 5, S: 5, Cin: 2, Cout: 6, Stride: 1, PadH: 2, PadW: 2}},
		{tensor.Shape{H: 9, W: 8, C: 24}, &nn.Conv2D{R: 1, S: 1, Cin: 24, Cout: 6, Stride: 1}},
		{tensor.Shape{H: 4, W: 3, C: 5}, &nn.Conv2D{R: 3, S: 3, Cin: 5, Cout: 12, Stride: 1, PadH: 1, PadW: 1, WeightBits: 4}},
		{tensor.Shape{H: 3, W: 3, C: 260}, &nn.Conv2D{R: 3, S: 3, Cin: 260, Cout: 5, Stride: 1, PadH: 1, PadW: 1}},
	} {
		tc.c.LayerName = fmt.Sprintf("synthetic_%dx%dx%d_to_%d", tc.c.R, tc.c.S, tc.c.Cin, tc.c.Cout)
		net := &nn.Network{Name: tc.c.LayerName, Input: tc.in, Layers: []nn.Layer{tc.c}}
		net.InitWeights(int64(tc.c.Cout))
		placed = append(placed, net.Convs()...)
		in := randQuant(tc.in, int64(tc.c.Cin))
		want, _, err := nn.RunQuant(net, in, nn.QuantOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.RunFunctional(net, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Output, want) {
			t.Fatalf("%s: in-cache output differs from the reference", net.Name)
		}
	}
	for _, p := range placed {
		plan, err := mapping.PlanConv(params, p)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Conv()
		L := plan.LanesPerConv
		slotsPer := 1
		if plan.ArraysPerConv == 1 {
			slotsPer = sram.BitLines / L
		}
		total := p.Out.Elems()
		nGroups := (total + slotsPer - 1) / slotsPer
		var fi filterImages
		fi.pack(plan, c, p.Out, slotsPer, nGroups)
		flat := make([]uint64, plan.ArraysPerConv*sram.BitLines)
		want := make([]bitvec.Vec256, plan.WeightBits)
		for g := 0; g < nGroups; g++ {
			slots := min(slotsPer, total-g*slotsPer)
			for j := 0; j < plan.EffFilter; j++ {
				clear(flat)
				for slot := 0; slot < slots; slot++ {
					_, _, m := decodeConv(g*slotsPer+slot, p.Out)
					for lane := 0; lane < L; lane++ {
						pos, ch := operandIndex(plan, lane, j)
						flat[slot*L+lane] = uint64(filterByte(c, m, pos, ch))
					}
				}
				for arr := 0; arr < plan.ArraysPerConv; arr++ {
					bitvec.PackPlanesRef(flat[arr*sram.BitLines:(arr+1)*sram.BitLines], plan.WeightBits, want)
					if got := fi.at(g, j, arr); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s group %d step %d array %d: packed planes differ from the gather", c.LayerName, g, j, arr)
					}
				}
			}
		}
	}
}

// TestPackedFiltersCheckWeightBits: a weight wider than the layer's
// declared WeightBits is rejected when the filters are packed, as
// WriteElements rejects it when staging.
func TestPackedFiltersCheckWeightBits(t *testing.T) {
	net := nn.Int4CNN()
	net.InitWeights(21)
	net.Convs()[1].Conv().Filter.Data[5] = 0x1f
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "exceeds WeightBits=4") {
			t.Fatalf("recovered %v, want the WeightBits panic", r)
		}
	}()
	_, _ = smallSystem(t).RunFunctional(net, randQuant(net.Input, 77))
}

// TestPooledScratchAfterSpill runs layers that stage a group's full lane
// count (batch-norm operands, a non-power-of-two average-pool divisor)
// after a spilled convolution has grown the pooled worker scratch to an
// array pair: the buffers must shrink back to one array's lanes, on the
// first run and on a second run that reuses them.
func TestPooledScratchAfterSpill(t *testing.T) {
	net := &nn.Network{
		Name:  "spill_then_stage",
		Input: tensor.Shape{H: 5, W: 5, C: 300},
		Layers: []nn.Layer{
			&nn.Conv2D{LayerName: "wide", LayerGroup: "wide", R: 3, S: 3, Cin: 300, Cout: 4, Stride: 1},
			&nn.BatchNorm{LayerName: "bn", LayerGroup: "bn", Channels: 4, Gamma: 0.5,
				Beta: []float32{0.1, -0.2, 0, 0.3}, ReLU: true},
			&nn.Pool{LayerName: "gap", LayerGroup: "gap", Kind: nn.AvgPool, R: 3, S: 3, Stride: 1},
			&nn.Conv2D{LayerName: "logits", LayerGroup: "logits", R: 1, S: 1, Cin: 4, Cout: 3,
				Stride: 1, IsLogits: true},
		},
	}
	net.InitWeights(31)
	in := randQuant(net.Input, 37)
	ref, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := smallSystem(t)
	for run := 0; run < 2; run++ {
		got, err := sys.RunFunctional(net, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Output.Data, ref.Data) || !reflect.DeepEqual(got.Trace.Logits, refTr.Logits) {
			t.Fatalf("run %d: logits %v, reference %v", run, got.Trace.Logits, refTr.Logits)
		}
	}
}

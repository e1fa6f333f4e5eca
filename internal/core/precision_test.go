package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"neuralcache/internal/mapping"
	"neuralcache/internal/nn"
	"neuralcache/internal/tensor"
)

// Precision-proportional execution: a 4-bit-weight model must run
// bit-exactly (the narrow weights are real data, not an approximation)
// and in measurably fewer cycles than its 8-bit twin, in both the
// functional engine and the analytic estimate.

func TestInt4MatchesReference(t *testing.T) {
	sys := smallSystem(t)
	net := nn.Int4CNN()
	net.InitWeights(21)
	in := randQuant(net.Input, 77)
	refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunFunctional(net, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refOut.Data {
		if got.Output.Data[i] != refOut.Data[i] {
			t.Fatalf("output byte %d: in-cache %d, reference %d", i, got.Output.Data[i], refOut.Data[i])
		}
	}
	for i := range refTr.Logits {
		if got.Trace.Logits[i] != refTr.Logits[i] {
			t.Fatalf("logit %d: in-cache %d, reference %d", i, got.Trace.Logits[i], refTr.Logits[i])
		}
	}
}

// TestInt4FewerCyclesThanInt8 pins the static win: the dense engine's
// emergent compute cycles are data-independent, so the 4-bit model's MAC
// phase (4 multiplier slices instead of 8) must land strictly below the
// 8-bit twin on the same input, and the analytic estimate must price the
// difference the same way.
func TestInt4FewerCyclesThanInt8(t *testing.T) {
	sys := smallSystem(t)
	n8 := nn.SmallCNN()
	n8.InitWeights(21)
	n4 := nn.Int4CNN()
	n4.InitWeights(21)
	in := randQuant(n8.Input, 77)

	r8, err := sys.RunFunctional(n8, in)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := sys.RunFunctional(n4, in)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.ComputeCycles >= r8.Stats.ComputeCycles {
		t.Errorf("int4 compute cycles %d not below int8's %d",
			r4.Stats.ComputeCycles, r8.Stats.ComputeCycles)
	}
	// Staging shrinks too: 4 filter rows per weight instead of 8.
	if r4.Stats.AccessCycles >= r8.Stats.AccessCycles {
		t.Errorf("int4 access cycles %d not below int8's %d",
			r4.Stats.AccessCycles, r8.Stats.AccessCycles)
	}

	e8, err := sys.Estimate(n8, 1)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := sys.Estimate(n4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e4.Seconds[PhaseMAC] >= e8.Seconds[PhaseMAC] {
		t.Errorf("analytic MAC time: int4 %g s not below int8 %g s",
			e4.Seconds[PhaseMAC], e8.Seconds[PhaseMAC])
	}
	if e4.Latency() >= e8.Latency() {
		t.Errorf("analytic latency: int4 %g s not below int8 %g s",
			e4.Latency(), e8.Latency())
	}
}

// TestMACCyclesWidths pins the charged asymmetric MAC: the paper's 236
// cycles at the 8-bit operating point, 166 at 4-bit weights, and exact
// agreement between the width-aware forms and their symmetric ancestors.
func TestMACCyclesWidths(t *testing.T) {
	c := DefaultCost()
	if got := c.MACCyclesWidths(8); got != 236 {
		t.Errorf("MACCyclesWidths(8) = %d, want 236", got)
	}
	if got := c.MACCyclesWidths(4); got != 166 {
		t.Errorf("MACCyclesWidths(4) = %d, want 166", got)
	}
	if c.MACCyclesWidths(8) != c.MACCycles() {
		t.Error("MACCyclesWidths(8) diverges from MACCycles")
	}
	for _, d := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if c.MACCyclesWidthsDensity(8, d) != c.MACCyclesDensity(d) {
			t.Errorf("MACCyclesWidthsDensity(8, %g) diverges from MACCyclesDensity", d)
		}
	}
	// The density discount at 4-bit weights removes (1−d)·4 slices of
	// ActBits+1 cycles each.
	if got, want := c.MACCyclesWidthsDensity(4, 0.5), c.MACCyclesWidths(4)-18; got != want {
		t.Errorf("MACCyclesWidthsDensity(4, 0.5) = %d, want %d", got, want)
	}
}

// actBits4Net is a two-layer net whose first convolution declares 4-bit
// activations: a 3×3 convolution keeps its inputs resident, a 1×1 over
// several channels packs them and streams its inputs.
func actBits4Net(streamed bool) *nn.Network {
	first := &nn.Conv2D{LayerName: "narrow", LayerGroup: "narrow", R: 3, S: 3, Cin: 4, Cout: 8,
		Stride: 1, PadH: 1, PadW: 1, ReLU: true, ActBits: 4}
	in := tensor.Shape{H: 6, W: 6, C: 4}
	if streamed {
		first = &nn.Conv2D{LayerName: "narrow", LayerGroup: "narrow", R: 1, S: 1, Cin: 8, Cout: 8,
			Stride: 1, ReLU: true, ActBits: 4}
		in.C = 8
	}
	return &nn.Network{
		Name:  "act4",
		Input: in,
		Layers: []nn.Layer{
			first,
			&nn.Conv2D{LayerName: "logits", LayerGroup: "logits", R: 1, S: 1, Cin: 8, Cout: 3,
				Stride: 1, IsLogits: true},
		},
	}
}

// TestActBits4MatchesReference drives a 4-bit-activation convolution
// through the engine in both input layouts: staged at 4 bits it must
// still reproduce the integer reference bit for bit, and an input byte
// wider than 4 bits must panic before it is packed.
func TestActBits4MatchesReference(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		sys := smallSystem(t)
		net := actBits4Net(streamed)
		net.InitWeights(5)
		placed := net.Flatten()[0]
		plan, err := mapping.PlanConv(sys.Config().Mapping, placed)
		if err != nil {
			t.Fatal(err)
		}
		if plan.InputStreamed != streamed || plan.ActBits != 4 {
			t.Fatalf("streamed=%v: plan has InputStreamed=%v ActBits=%d", streamed, plan.InputStreamed, plan.ActBits)
		}
		in := randQuant(net.Input, 9)
		for i := range in.Data {
			in.Data[i] &= 0x0f
		}
		refOut, refTr, err := nn.RunQuant(net, in, nn.QuantOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.RunFunctional(net, in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Output.Data, refOut.Data) || !slices.Equal(got.Trace.Logits, refTr.Logits) {
			t.Fatalf("streamed=%v: in-cache logits %v, reference %v", streamed, got.Trace.Logits, refTr.Logits)
		}

		// One worker, so the panic surfaces on this goroutine.
		cfg := sys.Config()
		cfg.Workers = 1
		seq, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in.Data[len(in.Data)/2] = 0x10
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "exceeds ActBits=4") {
					t.Errorf("streamed=%v: over-width input panicked with %q, want an ActBits panic", streamed, msg)
				}
			}()
			seq.RunFunctional(net, in)
		}()
	}
}

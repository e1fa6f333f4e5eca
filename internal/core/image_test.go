package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"neuralcache/internal/bitvec"
	"neuralcache/internal/mapping"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
)

// FuzzConvInputImage draws a plain-layout convolution (no filter split or
// packing) and checks its once-per-layer input image two ways. Staging:
// for every group and MAC step, the planes the image stages must equal
// the group's per-lane operand bytes (inputByte) packed by the bit-by-bit
// reference packer. End to end: the convolution followed by a logits
// layer must reproduce the integer reference executor at one worker and
// at three. The draws span slot widths below, at and above a 64-bit word
// and the 512-lane array-pair spill, output channels below and above the
// slots per group, strides, padding and ActBits 1–8.
func FuzzConvInputImage(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(5), uint16(2), uint8(7), uint8(2), uint8(2), uint8(0), uint8(4), uint8(7), false)
	systems := make([]*System, 2)
	for i, workers := range []int{1, 3} {
		cfg := DefaultConfig().WithSlices(1)
		cfg.Workers = workers
		sys, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		systems[i] = sys
	}
	f.Fuzz(func(t *testing.T, seed int64, h, w uint8, cin uint16, cout, r, s, stride, pad, actBits uint8, relu bool) {
		in := tensor.Shape{H: 1 + int(h)%12, W: 1 + int(w)%12, C: 1 + int(cin)%300}
		L := 1 << bits.Len(uint(in.C-1))
		slotsPer := max(1, sram.BitLines/L)
		c := &nn.Conv2D{LayerName: "conv", LayerGroup: "conv",
			R: 1 + int(r)%3, S: 1 + int(s)%3, Cin: in.C, Cout: 1 + int(cout)%(2*slotsPer+8),
			Stride: 1 + int(stride)%3, PadH: int(pad) % 3, PadW: int(pad) / 3 % 3,
			ReLU: relu, ActBits: 1 + int(actBits)%8}
		c.R = min(c.R, in.H+2*c.PadH)
		c.S = min(c.S, in.W+2*c.PadW)
		if c.R*c.S == 1 && c.Cin > 1 {
			// A 1×1 convolution over several channels would pack.
			c.S = 2
			if in.W+2*c.PadW < 2 {
				c.PadW = 1
			}
		}
		net := &nn.Network{
			Name:  fmt.Sprintf("image_%dx%dx%d_%dx%d_to_%d", in.H, in.W, in.C, c.R, c.S, c.Cout),
			Input: in,
			Layers: []nn.Layer{c, &nn.Conv2D{LayerName: "logits", LayerGroup: "logits",
				R: 1, S: 1, Cin: c.Cout, Cout: 3, Stride: 1, IsLogits: true}},
		}
		net.InitWeights(seed)
		x := tensor.NewQuant(in, 1.0/255)
		rnd := rand.New(rand.NewSource(seed))
		for i := range x.Data {
			x.Data[i] = uint8(rnd.Intn(1 << c.ActBits))
		}

		placed := net.Convs()[0]
		plan, err := mapping.PlanConv(systems[0].Config().Mapping, placed)
		if err != nil {
			t.Fatal(err)
		}
		if plan.PackFactor != 1 || plan.SplitFactor != 1 || plan.LanesPerConv != L {
			t.Fatalf("%s: plan %+v is not the plain layout at %d lanes", net.Name, plan, L)
		}
		checkImageStaging(t, plan, c, placed.Out, x, slotsPer)

		want, wantTr, err := nn.RunQuant(net, x, nn.QuantOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range systems {
			got, err := sys.RunFunctional(net, x)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Output.Data, want.Data) || !slices.Equal(got.Trace.Logits, wantTr.Logits) {
				t.Fatalf("%s workers=%d: in-cache logits %v, reference %v",
					net.Name, sys.Config().Workers, got.Trace.Logits, wantTr.Logits)
			}
		}
	})
}

// checkImageStaging compares, for every group and MAC step of a plain
// convolution, the input planes its image stages with the per-lane
// gather packed by bitvec.PackPlanesRef.
func checkImageStaging(t *testing.T, plan *mapping.ConvPlan, c *nn.Conv2D, out tensor.Shape, x *tensor.Quant, slotsPer int) {
	t.Helper()
	L, ab, arrays := plan.LanesPerConv, plan.ActBits, plan.ArraysPerConv
	var im inputImage
	im.pack(x, L, ab)
	total := out.Elems()
	nGroups := (total + slotsPer - 1) / slotsPer
	lanes := make([]uint64, arrays*sram.BitLines)
	got := make([]bitvec.Vec256, arrays*ab)
	want := make([]bitvec.Vec256, ab)
	var runs [sram.BitLines]slotRun
	for g := 0; g < nGroups; g++ {
		base := g * slotsPer
		slots := min(slotsPer, total-base)
		groupRuns := slotRuns(runs[:0], c, out, base, slots)
		for j := 0; j < plan.EffFilter; j++ {
			clear(lanes)
			for slot := 0; slot < slots; slot++ {
				e, fw, _ := decodeConv(base+slot, out)
				for lane := 0; lane < L; lane++ {
					pos, ch := operandIndex(plan, lane, j)
					lanes[slot*L+lane] = uint64(inputByte(c, x, e*c.Stride-c.PadH, fw*c.Stride-c.PadW, pos, ch))
				}
			}
			for i := range got {
				got[i] = bitvec.Ones() // stage must not depend on what the grid held
			}
			im.stage(groupRuns, j/c.S, j%c.S, got)
			for p := 0; p < arrays; p++ {
				bitvec.PackPlanesRef(lanes[p*sram.BitLines:(p+1)*sram.BitLines], ab, want)
				if !reflect.DeepEqual(got[p*ab:(p+1)*ab], want) {
					t.Fatalf("%s group %d step %d array %d: staged planes\n%v\nwant\n%v",
						c.LayerName, g, j, p, got[p*ab:(p+1)*ab], want)
				}
			}
		}
	}
}

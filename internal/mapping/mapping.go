// Package mapping implements Neural Cache's data layout engine (§IV-A and
// §IV-B of the paper): how each layer's filters, inputs, scratch, partial
// sums and outputs are arranged on the bit lines of the 8 KB compute
// arrays, and how the layer's convolutions are divided between parallel
// lanes and serial iterations across the cache.
//
// The three layout techniques of §IV-A are implemented: filter *splitting*
// (filters above 9 bytes split across bit lines, multiplying the effective
// channel count), filter *packing* (1×1 filters pack up to 16 channels per
// bit line, dividing it), and rounding the effective channel count to the
// next power of two so reduction trees stay uniform. Channels of one
// convolution always fit the 512 lanes of a sense-amp-sharing array pair.
package mapping

import (
	"fmt"
	"math/bits"

	"neuralcache/internal/geometry"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
)

// Params tunes the layout engine. Defaults() matches the paper.
type Params struct {
	Geometry geometry.Config
	// SplitThreshold is the filter size in bytes above which filters are
	// split across bit lines (9 in §IV-A).
	SplitThreshold int
	// PackLimit is the maximum channels packed into one bit line for 1×1
	// filters (16 in §IV-A).
	PackLimit int
	// PackingEnabled disables filter packing when false (ablation).
	PackingEnabled bool
}

// Defaults returns the paper's layout parameters on the Xeon E5 geometry.
func Defaults() Params {
	return Params{
		Geometry:       geometry.XeonE5(),
		SplitThreshold: 9,
		PackLimit:      16,
		PackingEnabled: true,
	}
}

// Layout is the per-bit-line row map of a convolution layer (Figure 10).
// Operand regions are element counts times per-element bit widths — the
// precision plumbing that lets a 4-bit-weight layer genuinely occupy, and
// execute in, fewer rows. The scratch, accumulator and reduction regions
// keep the fixed widths of the accumulate path (24/32/32 rows, §IV-A's
// 3+4+4 bytes); at 8-bit operands every row count and base matches the
// historical byte-granular layout exactly.
type Layout struct {
	WeightBits  int // element width of the resident filter weights
	ActBits     int // element width of the activations
	FilterElems int // resident filter weights per bit line (R'·S')
	InputElems  int // resident input elements per bit line (1 when streamed)
	ScratchRows int // multiply product + zero pad (24)
	PartialRows int // accumulator, doubling as reduction operand A (32)
	ReduceRows  int // reduction operand B (32)
	OutputBytes int // stash for serially produced outputs
}

// Rows returns the word lines consumed per bit line.
func (l Layout) Rows() int {
	return l.WeightBits*l.FilterElems + l.ActBits*l.InputElems +
		l.ScratchRows + l.PartialRows + l.ReduceRows + 8*l.OutputBytes
}

// Row bases (in word lines) for the engine's microcode.
func (l Layout) FilterRow() int  { return 0 }
func (l Layout) InputRow() int   { return l.WeightBits * l.FilterElems }
func (l Layout) ScratchRow() int { return l.InputRow() + l.ActBits*l.InputElems }
func (l Layout) PartialRow() int { return l.ScratchRow() + l.ScratchRows }
func (l Layout) ReduceRow() int  { return l.PartialRow() + l.PartialRows }
func (l Layout) OutputRow() int  { return l.ReduceRow() + l.ReduceRows }

// ConvPlan is the complete schedule of one convolution layer.
type ConvPlan struct {
	Name    string
	In, Out tensor.Shape
	R, S, C int // original filter geometry
	M       int // output channels
	Stride  int

	SplitFactor  int // bit-line segments per filter (1 = no split)
	PackFactor   int // channels packed per bit line (1 = no packing)
	EffFilter    int // R'·S': filter bytes per bit line
	EffChannels  int // C': bit lines per convolution before rounding
	LanesPerConv int // C' rounded to the next power of two
	// ArraysPerConv is the number of 8 KB arrays one convolution's lanes
	// span: 1 when the lanes fit a single array, 2 when they spill onto
	// the sense-amp-sharing partner (the 512-lane array-pair case). The
	// functional engine reduces each array's lane segment locally and
	// routes the cross-array partial-sum merge over the interconnect.
	ArraysPerConv int

	ConvsPerPair  int // convolutions computed by one array pair (512 lanes)
	ParallelConvs int // across the whole cache
	TotalConvs    int // E·F·M
	SerialIters   int
	Utilization   float64

	// WeightBits and ActBits are the layer's declared element widths
	// (Conv2D.WeightBits / Conv2D.ActBits, 8 when unset): the number of
	// multiplier slices each MAC executes and the staged element widths.
	WeightBits int
	ActBits    int

	ReduceSteps int // log₂(LanesPerConv)
	Layout      Layout

	// InputStreamed marks layouts whose inputs are streamed one byte at a
	// time instead of kept resident (packed 1×1 filters).
	InputStreamed bool
	// WindowBytes is the unique input footprint of one convolution window.
	WindowBytes int
	// ReuseFraction is the share of a window shared with the previous
	// serial window at the same array (input locality, §IV-A).
	ReuseFraction float64
}

// PlanConv lays out one convolution layer. It panics only on geometry that
// can never map (programming errors); resource-driven failures return
// errors.
func PlanConv(p Params, placed nn.Placed) (ConvPlan, error) {
	c := placed.Conv()
	if c == nil {
		return ConvPlan{}, fmt.Errorf("mapping: %s is not a convolution", placed.Layer.Name())
	}
	if err := p.Geometry.Validate(); err != nil {
		return ConvPlan{}, err
	}
	rs := c.R * c.S
	plan := ConvPlan{
		Name: c.LayerName, In: placed.In, Out: placed.Out,
		R: c.R, S: c.S, C: c.Cin, M: c.Cout, Stride: c.Stride,
		SplitFactor: 1, PackFactor: 1,
	}

	switch {
	case rs == 1 && p.PackingEnabled && c.Cin > 1:
		plan.PackFactor = p.PackLimit
		if c.Cin < plan.PackFactor {
			plan.PackFactor = c.Cin
		}
		plan.EffFilter = plan.PackFactor
		plan.EffChannels = (c.Cin + plan.PackFactor - 1) / plan.PackFactor
		plan.InputStreamed = true
	case rs > p.SplitThreshold:
		plan.SplitFactor = (rs + p.SplitThreshold - 1) / p.SplitThreshold
		plan.EffFilter = (rs + plan.SplitFactor - 1) / plan.SplitFactor
		plan.EffChannels = c.Cin * plan.SplitFactor
	default:
		plan.EffFilter = rs
		plan.EffChannels = c.Cin
	}

	plan.LanesPerConv = nextPow2(plan.EffChannels)
	pairLanes := 2 * sram.BitLines
	if plan.LanesPerConv > pairLanes {
		return ConvPlan{}, fmt.Errorf("mapping: %s needs %d lanes per convolution, exceeding an array pair (%d)",
			c.LayerName, plan.LanesPerConv, pairLanes)
	}
	plan.ArraysPerConv = 1
	if plan.LanesPerConv > sram.BitLines {
		plan.ArraysPerConv = plan.LanesPerConv / sram.BitLines
	}
	plan.ConvsPerPair = pairLanes / plan.LanesPerConv
	pairs := p.Geometry.ComputeArrays() / 2
	plan.ParallelConvs = pairs * plan.ConvsPerPair
	plan.TotalConvs = placed.Out.H * placed.Out.W * c.Cout
	if plan.ParallelConvs > plan.TotalConvs {
		plan.ParallelConvs = plan.TotalConvs // partial occupancy
		plan.SerialIters = 1
	} else {
		plan.SerialIters = ceilDiv(plan.TotalConvs, plan.ParallelConvs)
	}
	plan.Utilization = float64(plan.TotalConvs) /
		(float64(plan.SerialIters) * float64(pairs*plan.ConvsPerPair))
	plan.ReduceSteps = bits.TrailingZeros(uint(plan.LanesPerConv))

	plan.WeightBits = elemWidth(c.WeightBits)
	plan.ActBits = elemWidth(c.ActBits)
	inputResident := plan.EffFilter
	if plan.InputStreamed {
		inputResident = 1
	}
	plan.Layout = Layout{
		WeightBits:  plan.WeightBits,
		ActBits:     plan.ActBits,
		FilterElems: plan.EffFilter,
		InputElems:  inputResident,
		ScratchRows: 24,
		PartialRows: 32,
		ReduceRows:  32,
	}
	spare := (sram.WordLines - plan.Layout.Rows()) / 8
	plan.Layout.OutputBytes = clamp(spare, 1, 8)
	if plan.Layout.Rows() > sram.WordLines {
		return ConvPlan{}, fmt.Errorf("mapping: %s layout needs %d rows, array has %d",
			c.LayerName, plan.Layout.Rows(), sram.WordLines)
	}

	plan.WindowBytes = c.R * c.S * c.Cin
	if c.Stride < c.S {
		plan.ReuseFraction = float64(c.S-c.Stride) / float64(c.S)
	}
	return plan, nil
}

// MACsPerIter returns the bit-serial MAC count one lane performs per
// serial iteration (R'·S' 8-bit MACs, §IV-A).
func (p *ConvPlan) MACsPerIter() int { return p.EffFilter }

// PoolPlan schedules a pooling layer: every output element gets one lane,
// inputs stream one byte at a time with a running max (or running sum and
// a final divide), exactly §IV-D's description.
type PoolPlan struct {
	Name        string
	In, Out     tensor.Shape
	Kind        nn.PoolKind
	Window      int // R·S elements reduced per output
	TotalOuts   int // E·F·C
	ParallelOut int
	SerialIters int
	// DivideShift is set for power-of-two average windows (divide becomes
	// a shift); -1 means a true in-cache divide is needed.
	DivideShift int
}

// PlanPool lays out one pooling layer.
func PlanPool(p Params, placed nn.Placed) (PoolPlan, error) {
	l := placed.Pooling()
	if l == nil {
		return PoolPlan{}, fmt.Errorf("mapping: %s is not a pool", placed.Layer.Name())
	}
	plan := PoolPlan{
		Name: l.LayerName, In: placed.In, Out: placed.Out, Kind: l.Kind,
		Window:    l.R * l.S,
		TotalOuts: placed.Out.Elems(),
	}
	plan.ParallelOut = p.Geometry.ComputeArrays() * sram.BitLines
	if plan.ParallelOut > plan.TotalOuts {
		plan.ParallelOut = plan.TotalOuts
	}
	plan.SerialIters = ceilDiv(plan.TotalOuts, plan.ParallelOut)
	plan.DivideShift = -1
	if l.Kind == nn.AvgPool {
		if w := uint(plan.Window); w&(w-1) == 0 {
			plan.DivideShift = bits.TrailingZeros(w)
		}
	}
	return plan, nil
}

// elemWidth normalizes a declared Conv2D element width: widths outside
// (0, 8) mean the full 8-bit operating point.
func elemWidth(bits int) int {
	if bits <= 0 || bits > 8 {
		return 8
	}
	return bits
}

func nextPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

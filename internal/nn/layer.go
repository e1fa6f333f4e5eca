// Package nn defines the network substrate of the reproduction: layer
// types, the network graph (sequences with concatenated branches, which is
// exactly Inception v3's structure), deterministic synthetic weights,
// float and bit-exact integer reference executors, and the full Inception
// v3 builder whose parameters reproduce Table I of the paper.
package nn

import (
	"fmt"

	"neuralcache/internal/tensor"
)

// Layer is one element of a network sequence: a convolution, a pooling
// window, or a concatenation of parallel branches.
type Layer interface {
	// Name identifies the layer uniquely within its network.
	Name() string
	// Group is the Table I row the layer belongs to (e.g. "Mixed_5b").
	Group() string
	// OutShape propagates an input activation shape.
	OutShape(in tensor.Shape) tensor.Shape
}

// Conv2D is a quantized 2-D convolution (a fully connected layer is a 1×1
// convolution over a 1×1 input, which is how TensorFlow lowers it and how
// the paper treats it, §IV-D).
type Conv2D struct {
	LayerName  string
	LayerGroup string
	R, S       int // kernel height, width
	Cin, Cout  int
	Stride     int
	PadH, PadW int  // symmetric zero padding
	ReLU       bool // ReLU folded after the accumulation (§IV-D)
	IsLogits   bool // final classifier: raw accumulators are the output
	// WeightBits, when in (0, 8), is the layer's declared weight element
	// width: InitWeights confines the quantized filter bytes to that many
	// low bits, and the compute engine stages the weights in that many
	// word-line rows and runs that many multiplier slices per MAC
	// (Stripes-style precision-proportional execution). 0 means full 8-bit
	// weights.
	WeightBits int
	// ActBits, when in (0, 8), is the declared activation element width,
	// threaded the same way through layout and MAC slicing. The engine
	// does not narrow the activations — the knob is only honored for
	// layers whose quantized inputs already fit the width. 0 means 8.
	ActBits int
	// CoarseBits, when in (0, 8), makes InitWeights zero that many LOW
	// bits of each filter byte — weights become multiples of 2^k, so the
	// bottom multiplier bit-columns are zero across every lane: the §VII
	// sparsity the zero-skipping engine elides. Unlike WeightBits it does
	// not change the execution width; both engines read the same bytes, so
	// the knob changes data, never correctness.
	CoarseBits int

	// Filter and Bias are populated by Network.InitWeights. Bias is the
	// float batch-norm fold; it is quantized against the input scale at
	// execution time, matching §IV-D's CPU-computed per-channel scalars.
	Filter *tensor.Filter
	Bias   []float32
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Group implements Layer.
func (c *Conv2D) Group() string { return c.LayerGroup }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in tensor.Shape) tensor.Shape {
	if in.C != c.Cin {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %v", c.LayerName, c.Cin, in))
	}
	return tensor.Shape{
		H: outDim(in.H, c.R, c.PadH, c.Stride),
		W: outDim(in.W, c.S, c.PadW, c.Stride),
		C: c.Cout,
	}
}

// FilterBytes returns the 8-bit filter size (Table I's "Filter Size").
func (c *Conv2D) FilterBytes() int { return c.R * c.S * c.Cin * c.Cout }

// PoolKind distinguishes max from average pooling.
type PoolKind int

// Pooling kinds.
const (
	MaxPool PoolKind = iota
	AvgPool
)

// String names the pooling kind.
func (k PoolKind) String() string {
	if k == MaxPool {
		return "max"
	}
	return "avg"
}

// Pool is a pooling window. Average pooling divides by the full window
// size (padding counted as zero), which keeps the divisor a small
// constant the in-cache divider handles (§IV-D notes the Inception v3
// divisor is only 4 bits for the in-module pools; the final global pool's
// 64 is a power of two and reduces to a shift).
type Pool struct {
	LayerName  string
	LayerGroup string
	Kind       PoolKind
	R, S       int
	Stride     int
	PadH, PadW int
}

// Name implements Layer.
func (p *Pool) Name() string { return p.LayerName }

// Group implements Layer.
func (p *Pool) Group() string { return p.LayerGroup }

// OutShape implements Layer.
func (p *Pool) OutShape(in tensor.Shape) tensor.Shape {
	return tensor.Shape{
		H: outDim(in.H, p.R, p.PadH, p.Stride),
		W: outDim(in.W, p.S, p.PadW, p.Stride),
		C: in.C,
	}
}

// Concat runs parallel branches on the same input and concatenates their
// outputs along the channel dimension (an Inception module; branches may
// nest further Concats, as Mixed_7b/7c do).
type Concat struct {
	LayerName  string
	LayerGroup string
	Branches   [][]Layer
}

// Name implements Layer.
func (c *Concat) Name() string { return c.LayerName }

// Group implements Layer.
func (c *Concat) Group() string { return c.LayerGroup }

// OutShape implements Layer.
func (c *Concat) OutShape(in tensor.Shape) tensor.Shape {
	var out tensor.Shape
	for i, b := range c.Branches {
		out = c.join(i, out, seqShape(b, in))
	}
	return out
}

// join folds branch i's output shape s into out, the concatenation of
// the branches before it.
func (c *Concat) join(i int, out, s tensor.Shape) tensor.Shape {
	if i == 0 {
		return s
	}
	if s.H != out.H || s.W != out.W {
		panic(fmt.Sprintf("nn: %s branch %d output %v mismatches %v", c.LayerName, i, s, out))
	}
	out.C += s.C
	return out
}

// seqShape propagates in through a sequence of layers.
func seqShape(layers []Layer, in tensor.Shape) tensor.Shape {
	for _, l := range layers {
		in = l.OutShape(in)
	}
	return in
}

func outDim(in, k, pad, stride int) int {
	d := (in+2*pad-k)/stride + 1
	if d <= 0 {
		panic(fmt.Sprintf("nn: non-positive output dim from in=%d k=%d pad=%d stride=%d", in, k, pad, stride))
	}
	return d
}

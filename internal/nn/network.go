package nn

import (
	"fmt"
	"math/rand"

	"neuralcache/internal/tensor"
)

// Network is a sequence of layers with a fixed input shape. Branching
// happens inside Concat layers, so a sequence models Inception v3 exactly.
type Network struct {
	Name   string
	Input  tensor.Shape
	Layers []Layer
}

// OutputShape propagates the input shape through every layer.
func (n *Network) OutputShape() tensor.Shape {
	s := n.Input
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	return s
}

// Placed is a leaf layer (Conv2D or Pool) with its resolved activation
// shapes — the unit of work the mapper schedules onto the cache.
type Placed struct {
	Layer    Layer
	In, Out  tensor.Shape
	GroupIdx int // index of the top-level layer this leaf belongs to
}

// Conv returns the layer as a convolution, or nil.
func (p Placed) Conv() *Conv2D {
	c, _ := p.Layer.(*Conv2D)
	return c
}

// Pooling returns the layer as a pool, or nil.
func (p Placed) Pooling() *Pool {
	l, _ := p.Layer.(*Pool)
	return l
}

// Flatten resolves every leaf layer's shapes, descending into Concat
// branches (which all read the Concat's input).
func (n *Network) Flatten() []Placed {
	var out []Placed
	s := n.Input
	for i, l := range n.Layers {
		flattenInto(&out, l, s, i)
		s = l.OutShape(s)
	}
	return out
}

func flattenInto(out *[]Placed, l Layer, in tensor.Shape, group int) {
	flattenSeq := func(layers []Layer) {
		s := in
		for _, bl := range layers {
			flattenInto(out, bl, s, group)
			s = bl.OutShape(s)
		}
	}
	switch t := l.(type) {
	case *Concat:
		for _, b := range t.Branches {
			flattenSeq(b)
		}
	case *Residual:
		flattenSeq(t.Body)
		flattenSeq(t.Shortcut)
	default:
		*out = append(*out, Placed{Layer: l, In: in, Out: l.OutShape(in), GroupIdx: group})
	}
}

// Convs returns the flattened convolution leaves only.
func (n *Network) Convs() []Placed {
	var out []Placed
	for _, p := range n.Flatten() {
		if p.Conv() != nil {
			out = append(out, p)
		}
	}
	return out
}

// MACs returns the total multiply-accumulates of one inference:
// Σ over convolutions of E·F·M·R·S·C.
func (n *Network) MACs() int64 {
	var total int64
	for _, p := range n.Convs() {
		c := p.Conv()
		total += int64(p.Out.H) * int64(p.Out.W) * int64(c.Cout) *
			int64(c.R) * int64(c.S) * int64(c.Cin)
	}
	return total
}

// FilterBytes returns the total 8-bit weight footprint.
func (n *Network) FilterBytes() int {
	total := 0
	for _, p := range n.Convs() {
		total += p.Conv().FilterBytes()
	}
	return total
}

// Validate checks that shapes propagate and, if weights are initialized,
// that filters match their layers.
func (n *Network) Validate() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nn: invalid network: %v", r)
		}
	}()
	s := n.Input
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	for _, p := range n.Flatten() {
		c := p.Conv()
		if c == nil {
			continue
		}
		if c.Filter != nil {
			f := c.Filter
			if f.R != c.R || f.S != c.S || f.C != c.Cin || f.M != c.Cout {
				return fmt.Errorf("nn: %s filter %dx%dx%dx%d mismatches layer %dx%dx%dx%d",
					c.LayerName, f.R, f.S, f.C, f.M, c.R, c.S, c.Cin, c.Cout)
			}
			if c.Bias != nil && len(c.Bias) != c.Cout {
				return fmt.Errorf("nn: %s has %d biases for %d output channels",
					c.LayerName, len(c.Bias), c.Cout)
			}
		}
	}
	return nil
}

// CheckWeights reports an error when a convolution has no filter, which
// is the state of every bundled network until InitWeights runs.
// Executing a network needs weights; estimating it does not.
func (n *Network) CheckWeights() error {
	for _, p := range n.Convs() {
		if c := p.Conv(); c.Filter == nil {
			return fmt.Errorf("nn: %s of %s has no weights; call InitWeights", c.LayerName, n.Name)
		}
	}
	return nil
}

// InitWeights populates every convolution with deterministic synthetic
// weights (He-scaled Gaussians) and small biases, quantized to the
// asymmetric unsigned scheme. Timing and data movement are shape-derived,
// so synthetic weights reproduce every paper result that does not depend
// on trained-model accuracy (see DESIGN.md §4).
func (n *Network) InitWeights(seed int64) {
	r := rand.New(rand.NewSource(seed))
	for _, p := range n.Flatten() {
		c := p.Conv()
		if c == nil {
			continue
		}
		fanIn := float64(c.R * c.S * c.Cin)
		std := 1.0
		if fanIn > 0 {
			std = 1.41421356 / fanIn // gentler than He so deep stacks stay in range
		}
		w := make([]float32, c.R*c.S*c.Cin*c.Cout)
		for i := range w {
			w[i] = float32(r.NormFloat64() * std)
		}
		c.Filter = tensor.QuantizeFilter(c.R, c.S, c.Cin, c.Cout, w)
		if c.WeightBits > 0 && c.WeightBits < 8 {
			// Confine the quantized bytes to the low WeightBits so the layer
			// genuinely executes at the declared width (see
			// Conv2D.WeightBits). The zero point must stay representable or
			// every masked weight would decode with the wrong sign.
			mask := uint8(1<<c.WeightBits - 1)
			for i := range c.Filter.Data {
				c.Filter.Data[i] &= mask
			}
			if c.Filter.Zero > mask {
				c.Filter.Zero = mask >> 1
			}
		}
		if c.CoarseBits > 0 && c.CoarseBits < 8 {
			// Zero the low CoarseBits of every filter byte — weights become
			// multiples of 2^k, so the bottom multiplier bit-columns are
			// zero across every lane (see Conv2D.CoarseBits). The zero
			// point must stay on the coarse grid or masked weights would
			// decode with a fractional offset the reference executor lacks.
			low := uint8(1<<c.CoarseBits - 1)
			for i := range c.Filter.Data {
				c.Filter.Data[i] &^= low
			}
			c.Filter.Zero &^= low
		}
		c.Bias = make([]float32, c.Cout)
		for i := range c.Bias {
			c.Bias[i] = float32(r.NormFloat64() * std * fanIn / 8)
		}
	}
}

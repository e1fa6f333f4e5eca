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
// branches (which all read the Concat's input). Leaves come in top-level
// order: every leaf of Layers[i] precedes every leaf of Layers[i+1].
func (n *Network) Flatten() []Placed {
	leaves := 0
	for _, l := range n.Layers {
		eachLeaf(l, func(Layer) { leaves++ })
	}
	out := make([]Placed, 0, leaves)
	n.walk(func(p Placed) {
		switch p.Layer.(type) {
		case *Concat, *Residual:
		default:
			out = append(out, p)
		}
	})
	return out
}

// Walk validates the network as Validate does and calls fn on every
// layer with its resolved shapes, folding each container's branches
// once. Leaves come in Flatten's order, and a container comes after
// everything under it, so a top-level layer is the last of its group.
// fn is not called again after it returns an error. A shape error takes
// precedence over a filter mismatch, and both over fn's error.
func (n *Network) Walk(fn func(Placed) error) (err error) {
	inFn := false
	defer func() {
		if r := recover(); r != nil {
			if inFn {
				panic(r)
			}
			err = fmt.Errorf("nn: invalid network: %v", r)
		}
	}()
	var filterErr, fnErr error
	n.walk(func(p Placed) {
		if filterErr == nil {
			filterErr = checkFilter(p.Layer)
		}
		if fnErr == nil {
			inFn = true
			fnErr = fn(p)
			inFn = false
		}
	})
	if filterErr != nil {
		return filterErr
	}
	return fnErr
}

// walk resolves every layer's shapes in one pass and calls fn on each,
// in Walk's order. It panics where OutShape would.
func (n *Network) walk(fn func(Placed)) {
	w := walker{fn: fn}
	s := n.Input
	for i, l := range n.Layers {
		w.group = i
		s = w.layer(l, s)
	}
}

type walker struct {
	fn    func(Placed)
	group int
}

func (w *walker) layer(l Layer, in tensor.Shape) tensor.Shape {
	var out tensor.Shape
	switch t := l.(type) {
	case *Concat:
		for i, b := range t.Branches {
			out = t.join(i, out, w.seq(b, in))
		}
	case *Residual:
		out = t.join(w.seq(t.Body, in), w.seq(t.Shortcut, in))
	default:
		out = l.OutShape(in)
	}
	w.fn(Placed{Layer: l, In: in, Out: out, GroupIdx: w.group})
	return out
}

func (w *walker) seq(layers []Layer, in tensor.Shape) tensor.Shape {
	for _, l := range layers {
		in = w.layer(l, in)
	}
	return in
}

// eachLeaf calls fn on every leaf layer under l, in Flatten's order,
// without resolving shapes.
func eachLeaf(l Layer, fn func(Layer)) {
	switch t := l.(type) {
	case *Concat:
		for _, b := range t.Branches {
			for _, bl := range b {
				eachLeaf(bl, fn)
			}
		}
	case *Residual:
		for _, bl := range t.Body {
			eachLeaf(bl, fn)
		}
		for _, bl := range t.Shortcut {
			eachLeaf(bl, fn)
		}
	default:
		fn(l)
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
	for _, l := range n.Layers {
		eachLeaf(l, func(leaf Layer) {
			if c, ok := leaf.(*Conv2D); ok {
				total += c.FilterBytes()
			}
		})
	}
	return total
}

// Validate checks that shapes propagate and, if weights are initialized,
// that filters match their layers.
func (n *Network) Validate() error {
	return n.Walk(func(Placed) error { return nil })
}

// checkFilter reports a convolution whose initialized weights mismatch
// its geometry.
func checkFilter(l Layer) error {
	c, ok := l.(*Conv2D)
	if !ok || c.Filter == nil {
		return nil
	}
	f := c.Filter
	if f.R != c.R || f.S != c.S || f.C != c.Cin || f.M != c.Cout {
		return fmt.Errorf("nn: %s filter %dx%dx%dx%d mismatches layer %dx%dx%dx%d",
			c.LayerName, f.R, f.S, f.C, f.M, c.R, c.S, c.Cin, c.Cout)
	}
	if c.Bias != nil && len(c.Bias) != c.Cout {
		return fmt.Errorf("nn: %s has %d biases for %d output channels",
			c.LayerName, len(c.Bias), c.Cout)
	}
	return nil
}

// CheckWeights reports an error when a convolution has no filter, which
// is the state of every bundled network until InitWeights runs.
// Executing a network needs weights; estimating it does not.
func (n *Network) CheckWeights() (err error) {
	for _, l := range n.Layers {
		eachLeaf(l, func(leaf Layer) {
			if c, ok := leaf.(*Conv2D); ok && c.Filter == nil && err == nil {
				err = fmt.Errorf("nn: %s of %s has no weights; call InitWeights", c.LayerName, n.Name)
			}
		})
	}
	return err
}

// InitWeights populates every convolution with deterministic synthetic
// weights (He-scaled Gaussians) and small biases, quantized to the
// asymmetric unsigned scheme. Timing and data movement are shape-derived,
// so synthetic weights reproduce every paper result that does not depend
// on trained-model accuracy.
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

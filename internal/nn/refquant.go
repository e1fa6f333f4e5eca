package nn

import (
	"fmt"
	"math"

	"neuralcache/internal/tensor"
)

// The integer reference executor. It is the oracle the in-cache functional
// engine is verified against (the paper verified its simulator against
// instrumented TensorFlow traces; see DESIGN.md §4). Every arithmetic step
// here has an exact in-cache counterpart:
//
//	ACC  = Σ q_a·q_w            bit-serial MACs + channel reduction
//	SA   = Σ q_a                 the same reduction applied to inputs
//	acc  = ACC − zero_w·SA + b   in-cache multiply by the CPU scalar zero_w,
//	                             subtract, per-channel scalar add (§IV-D's
//	                             batch-norm path)
//	ReLU                         MSB-masked selective zero (§IV-D)
//	max                          in-cache max reduction, shipped to the CPU
//	requantize                   in-cache multiply / add / shift with the
//	                             CPU's two returned integers (§IV-D)

// ConvDecision records the CPU-side scalars chosen while executing one
// convolution, so tests can assert the engine derives identical integers.
type ConvDecision struct {
	Name     string
	AccScale float64
	Bias     []int32
	MaxAcc   int64
	Requant  tensor.Requant
	OutScale float64
}

// RescaleDecision records the realignment of one concat branch to the
// module's common output scale.
type RescaleDecision struct {
	Concat  string
	Branch  int
	Requant tensor.Requant
}

// Trace captures everything observable about a quantized inference.
type Trace struct {
	Convs    []*ConvDecision
	Rescales []RescaleDecision
	Logits   []int32 // raw accumulators of the IsLogits layer, if any
	// Activations holds each named leaf layer's output when capture is
	// enabled (memory-heavy; used by verification tests).
	Activations map[string]*tensor.Quant
}

// Decision returns the recorded decision for a conv layer name, or nil.
func (t *Trace) Decision(name string) *ConvDecision {
	for _, d := range t.Convs {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// QuantOptions tunes RunQuant.
type QuantOptions struct {
	CaptureActivations bool
}

// RunQuant executes the network on a quantized input and returns the
// quantized output plus the trace of CPU-side decisions.
func RunQuant(n *Network, in *tensor.Quant, opts QuantOptions) (*tensor.Quant, *Trace, error) {
	if in.Shape != n.Input {
		return nil, nil, fmt.Errorf("nn: input shape %v, network expects %v", in.Shape, n.Input)
	}
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if err := n.CheckWeights(); err != nil {
		return nil, nil, err
	}
	tr := &Trace{}
	if opts.CaptureActivations {
		tr.Activations = make(map[string]*tensor.Quant)
	}
	out, err := runSeq(n.Layers, in, tr)
	return out, tr, err
}

func runSeq(layers []Layer, x *tensor.Quant, tr *Trace) (*tensor.Quant, error) {
	var err error
	for _, l := range layers {
		switch t := l.(type) {
		case *Conv2D:
			x, err = runConv(t, x, tr)
		case *Pool:
			x, err = runPool(t, x, tr)
		case *BatchNorm:
			x, err = runBatchNorm(t, x, tr)
		case *Residual:
			x, err = runResidual(t, x, tr)
		case *Concat:
			x, err = runConcat(t, x, tr)
		default:
			err = fmt.Errorf("nn: unknown layer type %T", l)
		}
		if err != nil {
			return nil, err
		}
		if tr.Activations != nil {
			if _, isConcat := l.(*Concat); !isConcat {
				tr.Activations[l.Name()] = x
			}
		}
	}
	return x, nil
}

// ConvAccumulators computes the raw pre-ReLU accumulators of a
// convolution on a quantized input: the in-cache engine's MAC+reduce+
// correction phases must reproduce exactly these integers. Output is in
// (e, f, m) order. Exported for the engine's verification path.
func ConvAccumulators(c *Conv2D, x *tensor.Quant, bias []int32) []int64 {
	if c.Filter == nil {
		panic(fmt.Sprintf("nn: %s has no weights; call InitWeights", c.LayerName))
	}
	out := c.OutShape(x.Shape)
	f := c.Filter
	zw := int64(f.Zero)
	accs := make([]int64, out.H*out.W*out.C)
	for e := 0; e < out.H; e++ {
		for fw := 0; fw < out.W; fw++ {
			// Window input sum SA is m-independent: one in-cache reduction.
			var sa int64
			h0 := e*c.Stride - c.PadH
			w0 := fw*c.Stride - c.PadW
			for r := 0; r < c.R; r++ {
				h := h0 + r
				if h < 0 || h >= x.Shape.H {
					continue
				}
				for s := 0; s < c.S; s++ {
					w := w0 + s
					if w < 0 || w >= x.Shape.W {
						continue
					}
					for ch := 0; ch < c.Cin; ch++ {
						sa += int64(x.At(h, w, ch))
					}
				}
			}
			for m := 0; m < c.Cout; m++ {
				var acc int64
				for r := 0; r < c.R; r++ {
					h := h0 + r
					if h < 0 || h >= x.Shape.H {
						continue
					}
					for s := 0; s < c.S; s++ {
						w := w0 + s
						if w < 0 || w >= x.Shape.W {
							continue
						}
						for ch := 0; ch < c.Cin; ch++ {
							acc += int64(x.At(h, w, ch)) * int64(f.At(m, r, s, ch))
						}
					}
				}
				acc -= zw * sa
				if bias != nil {
					acc += int64(bias[m])
				}
				accs[(e*out.W+fw)*out.C+m] = acc
			}
		}
	}
	return accs
}

// QuantizeBias converts the float batch-norm fold to the accumulator
// scale, the per-channel scalar integers §IV-D's CPU step produces.
func QuantizeBias(bias []float32, accScale float64) []int32 {
	if bias == nil {
		return nil
	}
	out := make([]int32, len(bias))
	for i, b := range bias {
		out[i] = int32(math.Round(float64(b) / accScale))
	}
	return out
}

// FinishConv applies the §IV-D post-accumulation pipeline — ReLU, layer
// min/max, the CPU's requantization scalars, and the per-element
// requantize — to raw accumulators. The reference executor and the
// in-cache functional engine both call this, so their outputs agree bit
// for bit by construction.
func FinishConv(c *Conv2D, outShape tensor.Shape, accScale float64, bias []int32, accs []int64, tr *Trace) *tensor.Quant {
	if c.ReLU {
		for i, a := range accs {
			if a < 0 {
				accs[i] = 0
			}
		}
	}
	var maxAcc int64
	for _, a := range accs {
		if a > maxAcc {
			maxAcc = a
		}
	}
	rq, outScale := tensor.RequantForLayer(accScale, maxAcc)
	out := tensor.NewQuant(outShape, outScale)
	for i, a := range accs {
		out.Data[i] = rq.Apply(a)
	}
	tr.Convs = append(tr.Convs, &ConvDecision{
		Name: c.LayerName, AccScale: accScale, Bias: bias,
		MaxAcc: maxAcc, Requant: rq, OutScale: outScale,
	})
	if c.IsLogits {
		tr.Logits = make([]int32, len(accs))
		for i, a := range accs {
			tr.Logits[i] = int32(a)
		}
	}
	return out
}

func runConv(c *Conv2D, x *tensor.Quant, tr *Trace) (*tensor.Quant, error) {
	accScale := x.Scale * c.Filter.Scale
	bias := QuantizeBias(c.Bias, accScale)
	accs := ConvAccumulators(c, x, bias)
	return FinishConv(c, c.OutShape(x.Shape), accScale, bias, accs, tr), nil
}

// PoolOutput computes a pooling layer's quantized output; max pooling
// keeps the input scale, average pooling divides the window sum by the
// full window size (floor), exactly the in-cache divide/shift.
func PoolOutput(p *Pool, x *tensor.Quant) *tensor.Quant {
	out := tensor.NewQuant(p.OutShape(x.Shape), x.Scale)
	count := int64(p.R * p.S)
	for e := 0; e < out.Shape.H; e++ {
		for f := 0; f < out.Shape.W; f++ {
			for ch := 0; ch < out.Shape.C; ch++ {
				h0 := e*p.Stride - p.PadH
				w0 := f*p.Stride - p.PadW
				var maxV uint8
				var sum int64
				for r := 0; r < p.R; r++ {
					h := h0 + r
					if h < 0 || h >= x.Shape.H {
						continue
					}
					for s := 0; s < p.S; s++ {
						w := w0 + s
						if w < 0 || w >= x.Shape.W {
							continue
						}
						v := x.At(h, w, ch)
						if v > maxV {
							maxV = v
						}
						sum += int64(v)
					}
				}
				if p.Kind == MaxPool {
					out.Set(e, f, ch, maxV)
				} else {
					out.Set(e, f, ch, uint8(sum/count))
				}
			}
		}
	}
	return out
}

func runPool(p *Pool, x *tensor.Quant, tr *Trace) (*tensor.Quant, error) {
	return PoolOutput(p, x), nil
}

// ConcatRescale returns the per-branch requantizers aligning branch output
// scales to the common (maximum) scale, plus that scale.
func ConcatRescale(scales []float64) ([]tensor.Requant, float64) {
	common := 0.0
	for _, s := range scales {
		if s > common {
			common = s
		}
	}
	rqs := make([]tensor.Requant, len(scales))
	for i, s := range scales {
		rqs[i] = tensor.ChooseRequant(s / common)
	}
	return rqs, common
}

func runConcat(c *Concat, x *tensor.Quant, tr *Trace) (*tensor.Quant, error) {
	outs := make([]*tensor.Quant, len(c.Branches))
	for i, b := range c.Branches {
		o, err := runSeq(b, x, tr)
		if err != nil {
			return nil, err
		}
		outs[i] = o
	}
	return MergeConcat(c, x.Shape, outs, tr), nil
}

// MergeConcat realigns branch outputs to the common (maximum) scale and
// concatenates them along the channel dimension. Shared by the reference
// executor and the functional engine.
func MergeConcat(c *Concat, inShape tensor.Shape, outs []*tensor.Quant, tr *Trace) *tensor.Quant {
	scales := make([]float64, len(outs))
	for i, o := range outs {
		scales[i] = o.Scale
	}
	rqs, common := ConcatRescale(scales)
	out := tensor.NewQuant(c.OutShape(inShape), common)
	cOff := 0
	for i, o := range outs {
		rq := rqs[i]
		exact := o.Scale == common
		for e := 0; e < o.Shape.H; e++ {
			for f := 0; f < o.Shape.W; f++ {
				for ch := 0; ch < o.Shape.C; ch++ {
					v := o.At(e, f, ch)
					if !exact {
						v = rq.Apply(int64(v))
					}
					out.Set(e, f, cOff+ch, v)
				}
			}
		}
		if !exact {
			tr.Rescales = append(tr.Rescales, RescaleDecision{Concat: c.LayerName, Branch: i, Requant: rq})
		}
		cOff += o.Shape.C
	}
	return out
}

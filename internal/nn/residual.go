package nn

import (
	"fmt"

	"neuralcache/internal/tensor"
)

// Residual is a ResNet-style block: a body path and a shortcut path run
// on the same input and their outputs add element-wise. The paper's
// §II-A notes Neural Cache targets the broader class of DNNs; the
// shortcut add is the one primitive Inception v3 lacks, and it maps
// directly onto the in-cache element-wise adder (a 256-lane 8-bit add per
// array). An empty Shortcut is the identity connection.
type Residual struct {
	LayerName  string
	LayerGroup string
	Body       []Layer
	Shortcut   []Layer
}

// Name implements Layer.
func (r *Residual) Name() string { return r.LayerName }

// Group implements Layer.
func (r *Residual) Group() string { return r.LayerGroup }

// OutShape implements Layer.
func (r *Residual) OutShape(in tensor.Shape) tensor.Shape {
	return r.join(seqShape(r.Body, in), seqShape(r.Shortcut, in))
}

// join checks that the body's and the shortcut's output shapes agree.
func (r *Residual) join(body, short tensor.Shape) tensor.Shape {
	if body != short {
		panic(fmt.Sprintf("nn: %s body %v and shortcut %v disagree", r.LayerName, body, short))
	}
	return body
}

// ResidualCombine realigns the two paths to a common scale, adds them
// element-wise (the in-cache 8-bit adds; sums fit 9 bits), and
// requantizes via the layer max. Shared by the reference executor and the
// functional engine; the engine substitutes its in-array adder for the
// host loop and must produce these exact integers.
func ResidualCombine(name string, a, b *tensor.Quant, sums []int64, tr *Trace) *tensor.Quant {
	if a.Shape != b.Shape {
		panic(fmt.Sprintf("nn: residual shapes %v and %v differ", a.Shape, b.Shape))
	}
	common := a.Scale
	if b.Scale > common {
		common = b.Scale
	}
	rqA := tensor.ChooseRequant(a.Scale / common)
	rqB := tensor.ChooseRequant(b.Scale / common)
	if sums == nil {
		sums = make([]int64, len(a.Data))
		for i := range a.Data {
			sums[i] = int64(rqA.Apply(int64(a.Data[i]))) + int64(rqB.Apply(int64(b.Data[i])))
		}
	}
	var maxSum int64
	for _, s := range sums {
		if s > maxSum {
			maxSum = s
		}
	}
	rq, outScale := tensor.RequantForLayer(common, maxSum)
	out := tensor.NewQuant(a.Shape, outScale)
	for i, s := range sums {
		out.Data[i] = rq.Apply(s)
	}
	tr.Convs = append(tr.Convs, &ConvDecision{
		Name: name, AccScale: common, MaxAcc: maxSum, Requant: rq, OutScale: outScale,
	})
	return out
}

// ResidualOperands realigns both paths to the common scale and returns
// the byte operands of the element-wise add (the engine writes these to
// the lanes) plus the requantizers used, so engine and reference share
// every integer.
func ResidualOperands(a, b *tensor.Quant) (qa, qb []uint8) {
	common := a.Scale
	if b.Scale > common {
		common = b.Scale
	}
	rqA := tensor.ChooseRequant(a.Scale / common)
	rqB := tensor.ChooseRequant(b.Scale / common)
	qa = make([]uint8, len(a.Data))
	qb = make([]uint8, len(b.Data))
	for i := range a.Data {
		qa[i] = rqA.Apply(int64(a.Data[i]))
		qb[i] = rqB.Apply(int64(b.Data[i]))
	}
	return qa, qb
}

func runResidual(r *Residual, x *tensor.Quant, tr *Trace) (*tensor.Quant, error) {
	body, err := runSeq(r.Body, x, tr)
	if err != nil {
		return nil, err
	}
	short, err := runSeq(r.Shortcut, x, tr)
	if err != nil {
		return nil, err
	}
	return ResidualCombine(r.LayerName, body, short, nil, tr), nil
}

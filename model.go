package neuralcache

import (
	"fmt"
	"strings"

	"neuralcache/internal/nn"
	"neuralcache/internal/tensor"
)

// Model is a quantized network the system can estimate or run. Its
// shape never changes after construction (InitWeights sets only its
// weights), so a System keeps one walk of a Model per replica-group
// size and prices every batch from it.
type Model struct {
	net *nn.Network
}

// InceptionV3 builds the paper's evaluation model (94 convolutional
// sub-layers in 20 top-level layers; Table I). Weights are uninitialized;
// call InitWeights before running inference (estimation is shape-only).
func InceptionV3() *Model { return &Model{net: nn.InceptionV3()} }

// SmallCNN builds a LeNet-scale network for fast bit-accurate runs.
func SmallCNN() *Model { return &Model{net: nn.SmallCNN()} }

// BranchyCNN builds a miniature Inception-style network exercising
// branches, concatenation rescaling and global pooling.
func BranchyCNN() *Model { return &Model{net: nn.BranchyCNN()} }

// WideCNN builds a verification network whose first convolution spills
// across an array pair (512 lanes), exercising the cross-array
// partial-sum reduce of the functional engine.
func WideCNN() *Model { return &Model{net: nn.WideCNN()} }

// BNNet builds a verification network with a standalone §IV-D batch-norm
// layer (scalar multiply + shift + per-channel adds + requantize).
func BNNet() *Model { return &Model{net: nn.BNNet()} }

// SparseCNN builds SmallCNN with every convolution's weights coarsened
// to multiples of 16 — a net whose filter bit-columns are half zeros, so
// a Config.SkipZeroSlices run completes in strictly fewer compute cycles
// than the dense engine while producing byte-identical outputs.
func SparseCNN() *Model { return &Model{net: nn.SparseCNN()} }

// Int4CNN builds SmallCNN with every convolution declared 4-bit-weight:
// the engine stages four filter rows per weight and runs four multiplier
// slices per MAC, so the net completes in fewer compute cycles than its
// 8-bit twin independent of data — precision-proportional execution.
func Int4CNN() *Model { return &Model{net: nn.Int4CNN()} }

// ResNet18 builds a quantized ResNet-18 — the extension model exercising
// residual shortcut adds (identity and strided projections) on the
// in-cache element-wise adder.
func ResNet18() *Model { return &Model{net: nn.ResNet18()} }

// SmallResNet builds a residual verification network sized for
// bit-accurate functional runs.
func SmallResNet() *Model { return &Model{net: nn.SmallResNet()} }

// ModelNames lists the bundled models ModelByName accepts.
func ModelNames() []string {
	return []string{"inception", "resnet", "small", "smallresnet", "branchy", "wide", "bn", "sparse", "int4"}
}

// ModelByName builds a bundled model from its CLI name.
func ModelByName(name string) (*Model, error) {
	switch name {
	case "inception":
		return InceptionV3(), nil
	case "resnet":
		return ResNet18(), nil
	case "small":
		return SmallCNN(), nil
	case "smallresnet":
		return SmallResNet(), nil
	case "branchy":
		return BranchyCNN(), nil
	case "wide":
		return WideCNN(), nil
	case "bn":
		return BNNet(), nil
	case "sparse":
		return SparseCNN(), nil
	case "int4":
		return Int4CNN(), nil
	}
	return nil, fmt.Errorf("neuralcache: unknown model %q (have %s)",
		name, strings.Join(ModelNames(), ", "))
}

// Name returns the model name.
func (m *Model) Name() string { return m.net.Name }

// InputShape returns the H, W, C the model expects.
func (m *Model) InputShape() (h, w, c int) {
	return m.net.Input.H, m.net.Input.W, m.net.Input.C
}

// InitWeights populates deterministic synthetic quantized weights.
func (m *Model) InitWeights(seed int64) { m.net.InitWeights(seed) }

// MACs returns the multiply-accumulate count of one inference.
func (m *Model) MACs() int64 { return m.net.MACs() }

// FilterBytes returns the total 8-bit weight footprint.
func (m *Model) FilterBytes() int { return m.net.FilterBytes() }

// LayerParams is one row of the model's layer-parameter table (the
// paper's Table I for Inception v3).
type LayerParams struct {
	Name         string
	H, E         int
	RSMin, RSMax int
	CMin, CMax   int
	MMin, MMax   int
	Convolutions int
	FilterBytes  int
	InputBytes   int
}

// LayerTable derives the per-layer parameter table from the model's
// shapes.
func (m *Model) LayerTable() []LayerParams {
	rows := nn.TableI(m.net)
	out := make([]LayerParams, len(rows))
	for i, r := range rows {
		out[i] = LayerParams{
			Name: r.Name, H: r.H, E: r.E,
			RSMin: r.RSMin, RSMax: r.RSMax,
			CMin: r.CMin, CMax: r.CMax,
			MMin: r.MMin, MMax: r.MMax,
			Convolutions: r.Convs,
			FilterBytes:  r.FilterBytes,
			InputBytes:   r.InputBytes,
		}
	}
	return out
}

// Tensor is a quantized activation tensor in NHWC order with zero point 0
// (real value = Scale · Data[i]).
type Tensor struct {
	H, W, C int
	Scale   float64
	Data    []uint8
}

// NewTensor allocates a zeroed tensor.
func NewTensor(h, w, c int, scale float64) *Tensor {
	return &Tensor{H: h, W: w, C: c, Scale: scale, Data: make([]uint8, h*w*c)}
}

// At returns element (h, w, c).
func (t *Tensor) At(h, w, c int) uint8 { return t.Data[(h*t.W+w)*t.C+c] }

// Set stores element (h, w, c).
func (t *Tensor) Set(h, w, c int, v uint8) { t.Data[(h*t.W+w)*t.C+c] = v }

func (t *Tensor) internal() *tensor.Quant {
	q := tensor.NewQuant(tensor.Shape{H: t.H, W: t.W, C: t.C}, t.Scale)
	copy(q.Data, t.Data)
	return q
}

func runReference(net *nn.Network, q *tensor.Quant) (*tensor.Quant, *nn.Trace, error) {
	return nn.RunQuant(net, q, nn.QuantOptions{})
}

func fromInternal(q *tensor.Quant) *Tensor {
	out := &Tensor{H: q.Shape.H, W: q.Shape.W, C: q.Shape.C, Scale: q.Scale,
		Data: make([]uint8, len(q.Data))}
	copy(out.Data, q.Data)
	return out
}

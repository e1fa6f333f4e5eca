package neuralcache

import (
	"fmt"

	"neuralcache/internal/core"
	"neuralcache/internal/sram"
)

// InferenceResult is the outcome of a bit-accurate in-cache run.
type InferenceResult struct {
	Output *Tensor
	// Logits holds the classifier layer's raw accumulators when the model
	// ends in a logits layer; argmax over it is the predicted class.
	Logits []int32
	// ComputeCycles / AccessCycles are the emergent stepped-microcode
	// counters summed over all simulated arrays.
	ComputeCycles uint64
	AccessCycles  uint64
	ArraysUsed    int
	// FabricBusCycles is the intra-slice bus time charged for cross-array
	// partial-sum reduction; nonzero only when a convolution's lanes
	// spill across an array pair (for example Model WideCNN).
	FabricBusCycles uint64
	// SkipZeroSlices reports whether the run used the zero-skipping
	// multiply ops (Config.SkipZeroSlices). When false the skip counters
	// below are zero.
	SkipZeroSlices bool
	// SkippedSlices / TotalSlices count multiplier bit-slices elided and
	// issued across every multiply of the run; one slice is one multiplier
	// bit position on one array, skippable only when all 256 lanes hold a
	// zero there. SkipCyclesSaved is the exact compute-cycle reduction
	// versus the dense engine on the same input.
	SkippedSlices   uint64
	TotalSlices     uint64
	SkipCyclesSaved uint64
	// LayerSkips breaks the elisions down per layer, in execution order.
	LayerSkips []LayerSkip
}

// LayerSkip is one layer's share of the zero-slice elisions.
type LayerSkip struct {
	Layer           string
	SkippedSlices   uint64
	TotalSlices     uint64
	SkipCyclesSaved uint64
}

// SliceDensity returns the fraction of multiplier bit-slices that could
// not be skipped (1 = fully dense, also returned when no slices were
// counted). It is the measured bit-column density EstimateDensity prices.
func (r *InferenceResult) SliceDensity() float64 {
	if r.TotalSlices == 0 {
		return 1
	}
	return 1 - float64(r.SkippedSlices)/float64(r.TotalSlices)
}

// Run executes the model bit-accurately on simulated compute arrays. The
// model must have weights (InitWeights) and the input must match its
// shape; otherwise Run returns an error. A layer's independent work
// groups run in parallel on Config.Workers goroutines; convolutions
// whose effective channels exceed 256 lanes spill across an array pair
// with the partial-sum reduction routed over the modeled interconnect,
// so every bundled verification model runs bit-accurately (Inception v3
// remains Estimate-scale).
//
// Run is safe for concurrent use. Each call executes on a simulated
// cache of its own, leased from a pool the System keeps: a finished run
// resets the arrays it touched before returning the cache, so every call
// starts on zeroed, fault-free arrays, and results never depend on
// earlier or concurrent calls.
func (s *System) Run(m *Model, in *Tensor) (*InferenceResult, error) {
	if err := checkInput(m, in); err != nil {
		return nil, err
	}
	res, err := s.core.RunFunctional(m.net, in.internal())
	if err != nil {
		return nil, err
	}
	return newInferenceResult(res), nil
}

// checkInput rejects a nil input, one whose Data does not hold exactly
// H·W·C bytes, and one that does not match the model's input shape.
func checkInput(m *Model, in *Tensor) error {
	if in == nil {
		return fmt.Errorf("neuralcache: nil input tensor for model %s", m.Name())
	}
	if n := in.H * in.W * in.C; len(in.Data) != n {
		return fmt.Errorf("neuralcache: input %dx%dx%d holds %d data bytes, want %d",
			in.H, in.W, in.C, len(in.Data), n)
	}
	h, w, c := m.InputShape()
	if in.H != h || in.W != w || in.C != c {
		return fmt.Errorf("neuralcache: input %dx%dx%d, model %s expects %dx%dx%d",
			in.H, in.W, in.C, m.Name(), h, w, c)
	}
	return nil
}

// newInferenceResult marshals a functional-engine result into the facade
// type, copying the output tensor and logits.
func newInferenceResult(res *core.FunctionalResult) *InferenceResult {
	out := &InferenceResult{
		Output:          fromInternal(res.Output),
		ComputeCycles:   res.Stats.ComputeCycles,
		AccessCycles:    res.Stats.AccessCycles,
		ArraysUsed:      res.ArraysUsed,
		FabricBusCycles: res.FabricCycles,
	}
	if res.Trace.Logits != nil {
		out.Logits = append([]int32(nil), res.Trace.Logits...)
	}
	if res.Skip.Enabled {
		out.SkipZeroSlices = true
		out.SkippedSlices = res.Skip.SkippedSlices
		out.TotalSlices = res.Skip.TotalSlices
		out.SkipCyclesSaved = res.Skip.CyclesSaved
		for _, l := range res.Skip.Layers {
			out.LayerSkips = append(out.LayerSkips, LayerSkip{
				Layer:           l.Layer,
				SkippedSlices:   l.SkippedSlices,
				TotalSlices:     l.TotalSlices,
				SkipCyclesSaved: l.CyclesSaved,
			})
		}
	}
	return out
}

// FaultKind selects an injected hardware defect for fault campaigns.
type FaultKind int

// Supported defects (see internal/sram: stuck cells re-assert after every
// write-back; a dead lane's peripheral never writes back).
const (
	FaultStuckAt0 FaultKind = iota
	FaultStuckAt1
	FaultDeadLane
)

// Fault is one injected defect, addressed by the functional engine's
// compute-array ordinal.
type Fault struct {
	Array int // round-robin compute-array ordinal
	Row   int // word line (ignored for FaultDeadLane)
	Lane  int // bit line
	Kind  FaultKind
}

// RunWithFaults executes the model bit-accurately with hardware defects
// injected before any data lands, for blast-radius studies: compare
// against Run on the same input to see which outputs a defect corrupts.
// A fault with an unknown kind, or a lane or row outside an array, is an
// error.
func (s *System) RunWithFaults(m *Model, in *Tensor, faults []Fault) (*InferenceResult, error) {
	if err := checkInput(m, in); err != nil {
		return nil, err
	}
	for i, f := range faults {
		switch {
		case f.Kind < FaultStuckAt0 || f.Kind > FaultDeadLane:
			return nil, fmt.Errorf("neuralcache: fault %d has unknown kind %d", i, f.Kind)
		case f.Lane < 0 || f.Lane >= sram.BitLines:
			return nil, fmt.Errorf("neuralcache: fault %d lane %d outside [0,%d)", i, f.Lane, sram.BitLines)
		case f.Kind != FaultDeadLane && (f.Row < 0 || f.Row >= sram.WordLines):
			return nil, fmt.Errorf("neuralcache: fault %d row %d outside [0,%d)", i, f.Row, sram.WordLines)
		}
	}
	inject := func(ordinal int, a *sram.Array) {
		for _, f := range faults {
			if f.Array != ordinal {
				continue
			}
			switch f.Kind {
			case FaultStuckAt0:
				a.InjectStuckAt(f.Row, f.Lane, 0)
			case FaultStuckAt1:
				a.InjectStuckAt(f.Row, f.Lane, 1)
			case FaultDeadLane:
				a.InjectDeadLane(f.Lane)
			}
		}
	}
	res, err := s.core.RunFunctionalFaulty(m.net, in.internal(), core.FaultInjector(inject))
	if err != nil {
		return nil, err
	}
	return newInferenceResult(res), nil
}

// RunReference executes the model on the host integer reference executor
// — the oracle the in-cache engine is verified against. It returns the
// same result type with zero cycle counters; System.Run must produce
// byte-identical Output and Logits. It rejects the inputs and models Run
// rejects.
func (m *Model) RunReference(in *Tensor) (*InferenceResult, error) {
	if err := checkInput(m, in); err != nil {
		return nil, err
	}
	out, tr, err := runReference(m.net, in.internal())
	if err != nil {
		return nil, err
	}
	res := &InferenceResult{Output: fromInternal(out)}
	if tr.Logits != nil {
		res.Logits = append([]int32(nil), tr.Logits...)
	}
	return res, nil
}

// Argmax returns the index of the largest logit, or -1 when there are
// none.
func (r *InferenceResult) Argmax() int {
	best := -1
	for i, v := range r.Logits {
		if best < 0 || v > r.Logits[best] {
			best = i
		}
	}
	return best
}

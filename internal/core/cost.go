// Package core implements the Neural Cache engine — the paper's primary
// contribution (§IV): scheduling a quantized DNN onto the compute arrays
// of a last-level cache. It has two modes sharing one mapping:
//
//   - Analytic: the deterministic cycle/energy ledger (the paper's
//     "cycle-accurate simulator based on the deterministic computation
//     model", §V), which regenerates Figures 13–16 and Tables III–IV.
//   - Functional: bit-accurate execution on instantiated SRAM arrays,
//     verified against the integer reference executor on small networks.
package core

import (
	"math"

	"neuralcache/internal/isa"
)

// CostModel converts mapped work into charged cycles. The charged costs
// are the paper's published closed forms (isa.ChargedCycles); the stepped
// microcode is slightly cheaper for some ops.
type CostModel struct {
	// FreqGHz is the compute-mode clock (§V: 2.5 GHz, conservative versus
	// the 4 GHz SRAM-mode arrays).
	FreqGHz float64
	// ActBits is the operand precision (8 in the paper; the bit-serial
	// ablation sweeps it).
	ActBits int
	// AccBits is the per-lane partial-sum width (24 = 3 bytes, §IV-A).
	AccBits int
	// ReduceBits is the fixed reduction operand width (32 = 4 bytes).
	ReduceBits int
}

// DefaultCost returns the paper's configuration.
func DefaultCost() CostModel {
	return CostModel{FreqGHz: 2.5, ActBits: 8, AccBits: 24, ReduceBits: 32}
}

// Seconds converts charged cycles to wall-clock time.
func (c CostModel) Seconds(cycles uint64) float64 {
	return float64(cycles) / (c.FreqGHz * 1e9)
}

// MACCycles is the cost of one bit-serial multiply-accumulate; 236 cycles
// at the paper's 8-bit/24-bit operating point (§VI-A).
func (c CostModel) MACCycles() uint64 {
	return c.MACCyclesWidths(c.ActBits)
}

// MACCyclesWidths is MACCycles for a layer whose weights are wBits wide:
// wBits multiplier slices over an ActBits multiplicand (the asymmetric
// charged form of isa.OpMulAcc). wBits = ActBits reproduces MACCycles
// exactly; a 4-bit-weight layer at the paper's operating point charges
// 166 cycles instead of 236 — Stripes-style precision-proportional cost.
func (c CostModel) MACCyclesWidths(wBits int) uint64 {
	return uint64(isa.ChargedCycles(isa.Instruction{
		Op: isa.OpMulAcc, Width: c.ActBits, WidthB: wBits, AccWidth: c.AccBits,
	}))
}

// MACCyclesDensity is MACCycles discounted for measured multiplier
// bit-column density d (the fraction of bit-slices the zero-skipping
// engine could not elide, InferenceResult.SliceDensity): each of the
// (1−d)·ActBits skipped slices saves its ActBits+1-cycle predicated add,
// the exact per-slice saving of sram.MulAccSkip. d = 1 is the dense
// MACCycles; d = 0 leaves the slice-scan and accumulate floor.
func (c CostModel) MACCyclesDensity(d float64) uint64 {
	return c.MACCyclesWidthsDensity(c.ActBits, d)
}

// MACCyclesWidthsDensity composes the width-proportional MAC cost with the
// density discount: a wBits-weight MAC scans wBits multiplier slices, and
// each of the (1−d)·wBits elided slices saves its ActBits+1-cycle
// predicated add. wBits = ActBits reproduces MACCyclesDensity exactly.
func (c CostModel) MACCyclesWidthsDensity(wBits int, d float64) uint64 {
	return c.discount(c.MACCyclesWidths(wBits), wBits, d)
}

// discount prices a wBits-weight MAC that costs dense cycles at density
// d: each of the (1−d)·wBits elided slices saves its ActBits+1 cycles.
func (c CostModel) discount(dense uint64, wBits int, d float64) uint64 {
	if d >= 1 {
		return dense
	}
	if d < 0 {
		d = 0
	}
	saved := uint64(math.Round((1 - d) * float64(wBits) * float64(c.ActBits+1)))
	if saved >= dense {
		return 0
	}
	return dense - saved
}

// ReduceStepCycles is the cost of one reduction tree step at the fixed
// 4-byte width: 132 cycles, so a 32-channel reduction is the paper's 660.
func (c CostModel) ReduceStepCycles() uint64 {
	return uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpReduceStep, Width: c.ReduceBits}))
}

// AddCycles is an n-bit add (n+1).
func (c CostModel) AddCycles(n int) uint64 {
	return uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpAdd, Width: n}))
}

// MaxCycles is one running-max step at activation precision (§IV-D's
// subtract + MSB-masked selective copy).
func (c CostModel) MaxCycles() uint64 {
	return uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpMax, Width: c.ActBits}))
}

// DivideCycles is the in-cache divide used by non-power-of-two average
// pooling windows (the paper's 1.5n²+5.5n).
func (c CostModel) DivideCycles() uint64 {
	return uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpDivide, Width: c.ActBits}))
}

// RequantBatchCycles is the per-lane-batch cost of the §IV-D output
// pipeline: bias add at accumulator width, ReLU mask, fixed-point multiply
// by the CPU's 16-bit scalar, rounding add and shift-copy of the result
// byte.
func (c CostModel) RequantBatchCycles() uint64 {
	bias := c.AddCycles(c.ReduceBits)
	relu := uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpReLU, Width: c.ReduceBits}))
	mul := uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpMultiply, Width: 2 * c.ActBits}))
	round := c.AddCycles(c.ReduceBits)
	shift := uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpCopy, Width: c.ActBits}))
	return bias + relu + mul + round + shift
}

// MinMaxLayerCycles is the once-per-layer cost of computing the layer's
// min and max in-cache (§IV-D): an in-array compare tree over the 256
// lanes plus the bus-level reduction to a single value. It happens once
// per layer, so the paper notes the penalty is small.
func (c CostModel) MinMaxLayerCycles() uint64 {
	tree := uint64(8) * (4*uint64(c.ReduceBits) + 4) // log2(256) compare steps
	const busReduce = 2000                           // staged reduction over arrays/ways/slices
	const cpuRoundTrip = 1000                        // ship min/max, receive two scalars
	return 2*tree + busReduce + cpuRoundTrip
}

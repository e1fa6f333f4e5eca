package core

import (
	"fmt"
	"sort"

	"neuralcache/internal/energy"
)

// Phase identifies one component of Neural Cache's execution time,
// matching Figure 14's breakdown.
type Phase int

// Execution phases.
const (
	PhaseFilterLoad Phase = iota
	PhaseInputStream
	PhaseMAC
	PhaseReduce
	PhaseQuant
	PhasePool
	PhaseOutput
	PhaseDRAMDump // batched output spill/reload (§IV-E)
	phaseCount
)

var phaseNames = [phaseCount]string{
	"filter-load", "input-stream", "mac", "reduce", "quant", "pool", "output", "dram-dump",
}

// String names the phase.
func (p Phase) String() string {
	if p < 0 || p >= phaseCount {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Phases lists all phases in display order.
func Phases() []Phase {
	out := make([]Phase, phaseCount)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Breakdown maps phases to seconds.
type Breakdown [phaseCount]float64

// Total returns the summed seconds.
func (b Breakdown) Total() float64 {
	t := 0.0
	for _, v := range b {
		t += v
	}
	return t
}

// Fraction returns phase p's share of the total.
func (b Breakdown) Fraction(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b[p] / t
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	for i := range b {
		b[i] += other[i]
	}
}

// LayerReport is the engine's accounting for one top-level layer.
type LayerReport struct {
	Name    string
	Seconds Breakdown
	// ParallelConvs/SerialIters/Utilization summarize the mapping of the
	// layer's dominant convolution (reporting aid; modules contain many).
	SerialIters int
	Utilization float64
	Convs       int
}

// Report is the engine's full accounting for one inference (or one batch).
type Report struct {
	Model     string
	BatchSize int
	Layers    []LayerReport
	// Seconds is the end-to-end breakdown (sum of layers).
	Seconds Breakdown
	// Ledger counts energy-relevant events; Energy prices them.
	Ledger energy.Ledger
	Energy energy.Breakdown
	// DRAMEnergyJ is kept separate: the paper's package-power comparison
	// (RAPL's package domain) excludes it.
	DRAMEnergyJ float64
	// Sockets scales throughput: Neural Cache throughput scales linearly
	// with the host CPUs of the node (§VI-B).
	Sockets int
}

// Latency returns end-to-end seconds for the whole batch.
func (r *Report) Latency() float64 { return r.Seconds.Total() }

// Throughput returns inferences/second across all sockets.
func (r *Report) Throughput() float64 {
	l := r.Latency()
	if l == 0 {
		return 0
	}
	return float64(r.BatchSize*r.Sockets) / l
}

// AveragePowerWatts returns the package average power over the run.
func (r *Report) AveragePowerWatts() float64 {
	return energy.AveragePower(r.Energy, r.Latency())
}

// TotalEnergyJ returns the package energy for the whole batch.
func (r *Report) TotalEnergyJ() float64 { return r.Energy.Total() }

// EnergyPerInferenceJ returns package joules per inference.
func (r *Report) EnergyPerInferenceJ() float64 {
	if r.BatchSize == 0 {
		return 0
	}
	return r.Energy.Total() / float64(r.BatchSize)
}

// TopPhases returns phases sorted by descending share, for display.
func (r *Report) TopPhases() []Phase {
	ps := Phases()
	sort.SliceStable(ps, func(i, j int) bool {
		return r.Seconds[ps[i]] > r.Seconds[ps[j]]
	})
	return ps
}

// LayerSeconds returns the per-layer total latencies in order (Figure 13's
// Neural Cache series).
func (r *Report) LayerSeconds() []float64 {
	out := make([]float64, len(r.Layers))
	for i := range r.Layers {
		out[i] = r.Layers[i].Seconds.Total()
	}
	return out
}

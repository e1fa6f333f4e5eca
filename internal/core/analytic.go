package core

import (
	"fmt"

	"neuralcache/internal/interconnect"
	"neuralcache/internal/isa"
	"neuralcache/internal/mapping"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
	"neuralcache/internal/transpose"
)

// The analytic performance model: the deterministic computation model of
// §IV priced with the charged-cycle cost table and the fabric/DRAM
// models. All arrays execute the same instruction at the same time
// (§IV-F), so wall-clock compute time is the per-lane instruction stream
// length; data movement is bus/ring serialization; filter loading runs at
// the measured-equivalent DRAM effective bandwidth.

// Estimate prices one batch of inferences end to end.
func (s *System) Estimate(net *nn.Network, batch int) (*Report, error) {
	return s.EstimateDensity(net, batch, 1)
}

// EstimateDensity prices one batch with the convolution MAC phase
// discounted for a measured multiplier bit-column density (the fraction
// of bit-slices the zero-skipping engine cannot elide; see
// CostModel.MACCyclesDensity). density 1 is Estimate's dense pricing.
// Only the conv MAC phase is discounted: batch-norm multiplies also
// skip at run time, but their share of an estimate is negligible and
// their density is unrelated to the filters', so the analytic model
// keeps them dense.
func (s *System) EstimateDensity(net *nn.Network, batch int, density float64) (*Report, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("core: batch size %d", batch)
	}
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("core: slice density %g outside (0, 1]", density)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	rep := &Report{Model: net.Name, BatchSize: batch, Sockets: cfg.Sockets}
	placed := net.Flatten()

	var traffic interconnect.Traffic
	ioCapacity := cfg.Geometry.IOWayBytesPerSlice() * cfg.Geometry.Slices

	for gi, top := range net.Layers {
		lr := LayerReport{Name: top.Name()}
		for _, p := range placed {
			if p.GroupIdx != gi {
				continue
			}
			switch l := p.Layer.(type) {
			case *nn.Conv2D:
				if err := s.convCost(&lr, rep, &traffic, p, gi == 0, batch, density); err != nil {
					return nil, err
				}
			case *nn.Pool:
				if err := s.poolCost(&lr, rep, &traffic, p, batch); err != nil {
					return nil, err
				}
			case *nn.BatchNorm:
				s.batchNormCost(&lr, rep, &traffic, p, batch)
			default:
				return nil, fmt.Errorf("core: no cost model for layer type %T", l)
			}
		}
		// Residual shortcut adds: element-wise realign + add + requantize
		// for every Residual container in this top-level layer.
		s.residualCombineCosts(&lr, rep, &traffic, top, placedInputShape(net, gi), batch)

		// Batched output staging: what does not fit the reserved ways is
		// dumped to DRAM and reloaded for the next layer (§IV-E).
		outShape := top.OutShape(placedInputShape(net, gi))
		outBytes := outShape.Elems()
		if spill := batch*outBytes - ioCapacity; spill > 0 {
			// The dump is a contiguous stream (peak bandwidth); the reload
			// is the same set-strided walk as filter loading (effective
			// bandwidth).
			dumpSec := cfg.DRAM.PeakStreamSeconds(spill) + cfg.DRAM.StreamSeconds(spill)
			lr.Seconds[PhaseDRAMDump] += dumpSec
			rep.Ledger.DRAMBytes += uint64(2 * spill)
		}
		rep.Seconds.Add(lr.Seconds)
		rep.Layers = append(rep.Layers, lr)
	}

	rep.Ledger.BusBytes += traffic.BusBytes
	rep.Ledger.RingBytes += traffic.RingBytes
	rep.Energy = cfg.Energy.Price(rep.Ledger, rep.Latency())
	rep.DRAMEnergyJ = cfg.DRAM.EnergyJoules(rep.Ledger.DRAMBytes)
	if cfg.IncludeDRAMEnergy {
		rep.Energy.AccessJ += rep.DRAMEnergyJ
	}
	return rep, nil
}

// repeatBus prices n intra-slice bus transfers of the same bytes: one
// Fabric.BusCycles call into a scratch ledger, its cycles and traffic
// then multiplied by n. Integer-exact, it charges what n calls would.
func repeatBus(fabric interconnect.Config, traffic *interconnect.Traffic, n, bytes int, replicated bool) uint64 {
	var one interconnect.Traffic
	cycles := fabric.BusCycles(&one, bytes, replicated)
	traffic.BusBytes += uint64(n) * one.BusBytes
	return uint64(n) * cycles
}

func placedInputShape(net *nn.Network, gi int) tensor.Shape {
	sh := net.Input
	for i := 0; i < gi; i++ {
		sh = net.Layers[i].OutShape(sh)
	}
	return sh
}

func (s *System) convCost(lr *LayerReport, rep *Report, traffic *interconnect.Traffic,
	p nn.Placed, firstLayer bool, batch int, density float64) error {
	cfg := s.cfg
	plan, err := mapping.PlanConv(cfg.Mapping, p)
	if err != nil {
		return err
	}
	cost := cfg.Cost
	slices := cfg.Geometry.Slices
	activeLanes := plan.ParallelConvs * plan.LanesPerConv
	activeArrays := (activeLanes + sram.BitLines - 1) / sram.BitLines
	fBatch := float64(batch)

	// --- Filter loading (once per layer regardless of batch, §IV-E) ---
	filterBytes := plan.R * plan.S * plan.C * plan.M
	lr.Seconds[PhaseFilterLoad] += cfg.DRAM.StreamSeconds(filterBytes)
	rep.Ledger.DRAMBytes += uint64(filterBytes)
	cfg.Fabric.RingBroadcastCycles(traffic, filterBytes)
	repeatBus(cfg.Fabric, traffic, slices, filterBytes/slices, false)
	rep.Ledger.ArrayAccessCycles += uint64(activeArrays) *
		uint64(plan.Layout.FilterElems*plan.Layout.WeightBits)

	// --- Input streaming (per image) ---
	// Per serial iteration every active lane receives R'·S' fresh input
	// bytes, discounted by window reuse across consecutive serial outputs
	// and by the achievable multicast (bank latch via the fabric model,
	// plus partial cross-bank multicast of M-replicated windows).
	depositPerSlice := float64(activeLanes*plan.EffFilter) / float64(slices)
	depositPerSlice *= (1 - plan.ReuseFraction)
	depositPerSlice /= cfg.InputMulticastFactor
	inputCycles := repeatBus(cfg.Fabric, traffic, plan.SerialIters, int(depositPerSlice), true)
	lr.Seconds[PhaseInputStream] += fBatch * cost.Seconds(inputCycles)
	rep.Ledger.ArrayAccessCycles += uint64(fBatch) * uint64(activeArrays) *
		uint64(plan.SerialIters*plan.EffFilter*plan.Layout.ActBits)
	if firstLayer {
		// The first layer's inputs come from DRAM through the TMU gateway.
		inBytes := p.In.Elems()
		lr.Seconds[PhaseInputStream] += fBatch * cfg.DRAM.StreamSeconds(inBytes)
		lr.Seconds[PhaseInputStream] += fBatch * cost.Seconds(transpose.GatewayCycles(inBytes))
		rep.Ledger.DRAMBytes += uint64(batch * inBytes)
	}

	// --- MACs ---
	macCycles := uint64(plan.SerialIters) * uint64(plan.MACsPerIter()) *
		cost.MACCyclesWidthsDensity(plan.WeightBits, density)
	lr.Seconds[PhaseMAC] += fBatch * cost.Seconds(macCycles)
	rep.Ledger.ArrayComputeCycles += uint64(fBatch) * macCycles * uint64(activeArrays)

	// --- Channel reduction ---
	redCycles := uint64(plan.SerialIters) * uint64(plan.ReduceSteps) * cost.ReduceStepCycles()
	lr.Seconds[PhaseReduce] += fBatch * cost.Seconds(redCycles)
	rep.Ledger.ArrayComputeCycles += uint64(fBatch) * redCycles * uint64(activeArrays)

	// --- Quantization (§IV-D) ---
	// Per iteration: the Σq_a correction pass (window adds + a 16-bit
	// reduction tree) and the running min/max update; per layer: the
	// global min/max reduction and CPU round trip; per output batch: the
	// bias/ReLU/multiply/shift requantize pipeline.
	saIter := uint64(plan.MACsPerIter())*cost.AddCycles(2*cost.ActBits) +
		uint64(plan.ReduceSteps)*(4*uint64(2*cost.ActBits)+4)
	minmaxIter := 2 * (4*uint64(cost.ReduceBits) + 4)
	quantCycles := uint64(plan.SerialIters) * (saIter + minmaxIter)
	quantCycles += cost.MinMaxLayerCycles()
	outBatches := uint64((plan.TotalConvs + activeLanes - 1) / activeLanes)
	quantCycles += outBatches * cost.RequantBatchCycles()
	lr.Seconds[PhaseQuant] += fBatch * cost.Seconds(quantCycles)
	rep.Ledger.ArrayComputeCycles += uint64(fBatch) * quantCycles * uint64(activeArrays)

	// --- Output transfer to the reserved way ---
	// Pre-quantization accumulators (4 B) move out per iteration; the
	// requantized bytes (1 B) return. The overhead factor covers the
	// gather and transpose-gateway passes.
	outBytesPerSlice := (plan.TotalConvs*5 + slices - 1) / slices
	outCycles := cfg.Fabric.BusCycles(traffic, outBytesPerSlice, false)
	outSec := float64(outCycles) * cfg.OutputPathOverhead / (cost.FreqGHz * 1e9)
	// Neighboring slices exchange halo rows for the next layer (§IV-C).
	haloBytes := plan.R * p.Out.W * p.Out.C
	haloCycles := cfg.Fabric.NeighborExchangeCycles(traffic, haloBytes)
	lr.Seconds[PhaseOutput] += fBatch * (outSec + cost.Seconds(haloCycles))
	rep.Ledger.ArrayAccessCycles += uint64(fBatch) * uint64(activeArrays) * uint64(plan.SerialIters*5*8/plan.LanesPerConv+1)

	if plan.SerialIters > lr.SerialIters {
		lr.SerialIters = plan.SerialIters
		lr.Utilization = plan.Utilization
	}
	lr.Convs += plan.TotalConvs
	return nil
}

// residualCombineCosts walks a layer's containers and prices every
// Residual's element-wise combine: two realign multiplies, the 8-bit add
// and the requantize, element-parallel across the cache's lanes, plus the
// operand round trip on the bus.
func (s *System) residualCombineCosts(lr *LayerReport, rep *Report, traffic *interconnect.Traffic,
	l nn.Layer, in tensor.Shape, batch int) {
	switch t := l.(type) {
	case *nn.Residual:
		walkSeq := func(layers []nn.Layer) {
			sh := in
			for _, inner := range layers {
				s.residualCombineCosts(lr, rep, traffic, inner, sh, batch)
				sh = inner.OutShape(sh)
			}
		}
		walkSeq(t.Body)
		walkSeq(t.Shortcut)
		s.elementwiseCombineCost(lr, rep, traffic, t.OutShape(in).Elems(), batch)
	case *nn.Concat:
		for _, b := range t.Branches {
			sh := in
			for _, inner := range b {
				s.residualCombineCosts(lr, rep, traffic, inner, sh, batch)
				sh = inner.OutShape(sh)
			}
		}
	}
}

func (s *System) elementwiseCombineCost(lr *LayerReport, rep *Report, traffic *interconnect.Traffic,
	elems, batch int) {
	cfg := s.cfg
	cost := cfg.Cost
	lanes := cfg.Geometry.ComputeArrays() * sram.BitLines
	iters := (elems + lanes - 1) / lanes
	activeArrays := min((elems+sram.BitLines-1)/sram.BitLines, cfg.Geometry.ComputeArrays())
	perIter := 2*uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpMultiply, Width: 2 * cost.ActBits})) +
		cost.AddCycles(cost.ActBits) + cost.RequantBatchCycles()
	cycles := uint64(iters) * perIter
	lr.Seconds[PhaseQuant] += float64(batch) * cost.Seconds(cycles)
	rep.Ledger.ArrayComputeCycles += uint64(batch) * cycles * uint64(activeArrays)
	ioPerSlice := (3*elems + cfg.Geometry.Slices - 1) / cfg.Geometry.Slices
	ioCycles := cfg.Fabric.BusCycles(traffic, ioPerSlice, false)
	lr.Seconds[PhaseOutput] += float64(batch) * cost.Seconds(ioCycles) * cfg.OutputPathOverhead
}

// batchNormCost prices the §IV-D batch-norm sequence: inputs stream one
// byte per lane, the 16×16 multiply / round / shift / per-channel add /
// ReLU pipeline runs element-parallel, outputs requantize like a
// convolution's.
func (s *System) batchNormCost(lr *LayerReport, rep *Report, traffic *interconnect.Traffic,
	p nn.Placed, batch int) {
	cfg := s.cfg
	cost := cfg.Cost
	slices := cfg.Geometry.Slices
	total := p.Out.Elems()
	lanes := cfg.Geometry.ComputeArrays() * sram.BitLines
	iters := (total + lanes - 1) / lanes
	activeArrays := min((total+sram.BitLines-1)/sram.BitLines, cfg.Geometry.ComputeArrays())
	fBatch := float64(batch)

	perIter := uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpMultiply, Width: 2 * cost.ActBits})) +
		2*cost.AddCycles(cost.ReduceBits) + // rounding + beta
		uint64(cost.ReduceBits) + // shift via row-offset copy
		uint64(cost.ReduceBits+1) // ReLU
	bnCycles := uint64(iters) * perIter
	bnCycles += cost.MinMaxLayerCycles()
	lr.Seconds[PhaseQuant] += fBatch * cost.Seconds(bnCycles)
	rep.Ledger.ArrayComputeCycles += uint64(fBatch) * bnCycles * uint64(activeArrays)

	// Input bytes in, output bytes back out.
	ioPerSlice := (2*total + slices - 1) / slices
	ioCycles := cfg.Fabric.BusCycles(traffic, ioPerSlice, false)
	lr.Seconds[PhaseOutput] += fBatch * cost.Seconds(ioCycles) * cfg.OutputPathOverhead
	if iters > lr.SerialIters {
		lr.SerialIters = iters
	}
}

func (s *System) poolCost(lr *LayerReport, rep *Report, traffic *interconnect.Traffic,
	p nn.Placed, batch int) error {
	cfg := s.cfg
	plan, err := mapping.PlanPool(cfg.Mapping, p)
	if err != nil {
		return err
	}
	cost := cfg.Cost
	slices := cfg.Geometry.Slices
	activeArrays := (plan.ParallelOut + sram.BitLines - 1) / sram.BitLines
	fBatch := float64(batch)

	// Inputs stream one byte per window element per lane.
	depositPerSlice := plan.ParallelOut * plan.Window / slices
	depositPerSlice = int(float64(depositPerSlice) / cfg.InputMulticastFactor)
	inputCycles := repeatBus(cfg.Fabric, traffic, plan.SerialIters, depositPerSlice, true)
	lr.Seconds[PhaseInputStream] += fBatch * cost.Seconds(inputCycles)

	// Running max (or running sum + divide/shift) per window element.
	var perIter uint64
	if plan.Kind == nn.MaxPool {
		perIter = uint64(plan.Window-1) * cost.MaxCycles()
	} else {
		perIter = uint64(plan.Window) * cost.AddCycles(2*cost.ActBits)
		if plan.DivideShift >= 0 {
			perIter += uint64(cost.ActBits) // shift = row-offset copy
		} else {
			perIter += cost.DivideCycles()
		}
	}
	poolCycles := uint64(plan.SerialIters) * perIter
	lr.Seconds[PhasePool] += fBatch * cost.Seconds(poolCycles)
	rep.Ledger.ArrayComputeCycles += uint64(fBatch) * poolCycles * uint64(activeArrays)

	// Outputs are single bytes at the input scale: no requantization.
	outPerSlice := (plan.TotalOuts + slices - 1) / slices
	outCycles := cfg.Fabric.BusCycles(traffic, outPerSlice, false)
	lr.Seconds[PhaseOutput] += fBatch * float64(outCycles) * cfg.OutputPathOverhead / (cost.FreqGHz * 1e9)

	if plan.SerialIters > lr.SerialIters {
		lr.SerialIters = plan.SerialIters
	}
	return nil
}

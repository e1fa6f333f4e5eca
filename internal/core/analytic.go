package core

import (
	"fmt"

	"neuralcache/internal/energy"
	"neuralcache/internal/interconnect"
	"neuralcache/internal/isa"
	"neuralcache/internal/mapping"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
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
//
// It walks the network once (Price) and replays the walk at batch and
// density (Report). A caller that prices one network at several batch
// sizes or densities should keep the Priced and call Report.
func (s *System) EstimateDensity(net *nn.Network, batch int, density float64) (*Report, error) {
	if err := CheckBatch(batch, density); err != nil {
		return nil, err
	}
	p, err := s.Price(net)
	if err != nil {
		return nil, err
	}
	return p.Report(batch, density)
}

// CheckBatch reports a batch size or slice density no estimate prices:
// the batch must be positive and the density in (0, 1].
func CheckBatch(batch int, density float64) error {
	if batch <= 0 {
		return fmt.Errorf("core: batch size %d", batch)
	}
	if density <= 0 || density > 1 {
		return fmt.Errorf("core: slice density %g outside (0, 1]", density)
	}
	return nil
}

// Priced is one batch-independent walk of a network on a System: the
// analytic side of a per-layer, per-phase ledger. The model charges
// filter loading once per layer regardless of batch and every other
// phase per image (§IV-E, §VI-B), so Report prices any batch size and
// density by replaying the walk. A Priced is immutable once Price
// returns, and concurrent Reports are safe.
type Priced struct {
	cfg    *Config
	model  string
	layers []pricedLayer
	// terms are every addend of a layer's phase seconds, in walk order.
	terms []term
	// macs are the MAC terms' operands, in walk order.
	macs []macTerm
	// fixed is the ledger charged once per batch, fabric traffic
	// included; perImage is charged once per image, except the MAC
	// phase's compute cycles, which depend on density.
	fixed, perImage energy.Ledger
}

// pricedLayer is one top-level layer of a walk: its report with the
// seconds left empty, its output size for the batched spill, and the end
// of its terms.
type pricedLayer struct {
	LayerReport
	outElems int
	end      int
}

// termKind is the expression a term replays, with b the batch size, a
// the term's value, o the output-path overhead and c the clock in Hz.
type termKind uint8

const (
	termConst    termKind = iota // a
	termBatch                    // b·a
	termOutput                   // (b·a)·o
	termOutputHz                 // ((b·a)·o)/c
	termMAC                      // b·Seconds(MACs × cycles per MAC at the density)
)

type term struct {
	a     float64
	phase uint8
	kind  termKind
}

// macTerm is a conv's MAC phase: macs bit-serial MACs at perMAC dense
// cycles each on arrays arrays, with weights wBits wide.
type macTerm struct {
	macs, perMAC, arrays uint64
	wBits                int
}

// Terms each leaf and combine records, in the order its cost function
// adds them.
const (
	convTerms      = 6 // filter load, input, MAC, reduce, quant, output
	firstConvTerms = 2 // the first layer's DRAM input and gateway pass
	poolTerms      = 3 // input, pool, output
	batchNormTerms = 2 // quant, output
	combineTerms   = 2 // quant, output
)

// Price walks net once and records every cost the analytic model
// charges for it, batch-independent, so Report can price any batch.
func (s *System) Price(net *nn.Network) (*Priced, error) {
	var n walkSize
	for i, l := range net.Layers {
		n.add(l, i == 0)
	}
	p := &Priced{
		cfg:    &s.cfg,
		model:  net.Name,
		layers: make([]pricedLayer, len(net.Layers)),
		terms:  make([]term, 0, n.terms),
		macs:   make([]macTerm, 0, n.macs),
	}
	cost := s.cfg.Cost
	requant := cost.RequantBatchCycles()
	mul := uint64(isa.ChargedCycles(isa.Instruction{Op: isa.OpMultiply, Width: 2 * cost.ActBits}))
	w := walker{
		net: net, p: p,
		requant:    requant,
		minMax:     cost.MinMaxLayerCycles(),
		reduceStep: cost.ReduceStepCycles(),
		add2Act:    cost.AddCycles(2 * cost.ActBits),
		// A residual combine's two realign multiplies, 8-bit add and
		// requantize, and batch norm's multiply, rounding and beta adds,
		// shift and ReLU, per element.
		combineIter: 2*mul + cost.AddCycles(cost.ActBits) + requant,
		bnIter: mul + 2*cost.AddCycles(cost.ReduceBits) +
			uint64(cost.ReduceBits) + uint64(cost.ReduceBits+1),
	}
	if err := net.Walk(w.visit); err != nil {
		return nil, err
	}
	p.fixed.BusBytes += w.traffic.BusBytes
	p.fixed.RingBytes += w.traffic.RingBytes
	return p, nil
}

// Report prices one batch of batch images at a multiplier bit-column
// density (see EstimateDensity) by replaying the walk: each term
// evaluates the expression the cost model charges, with the same float
// operations in the same order, then each layer adds its batched output
// spill (§IV-E) and the ledger is priced in joules.
func (p *Priced) Report(batch int, density float64) (*Report, error) {
	if err := CheckBatch(batch, density); err != nil {
		return nil, err
	}
	cfg := p.cfg
	cost := cfg.Cost
	fBatch, b := float64(batch), uint64(batch)
	overhead, hz := cfg.OutputPathOverhead, cost.FreqGHz*1e9
	ioCapacity := cfg.Geometry.IOWayBytesPerSlice() * cfg.Geometry.Slices
	rep := &Report{Model: p.model, BatchSize: batch, Sockets: cfg.Sockets,
		Layers: make([]LayerReport, len(p.layers)), Ledger: p.fixed}
	rep.Ledger.Add(scaled(p.perImage, b))
	macs, t := p.macs, 0
	for i := range p.layers {
		pl := &p.layers[i]
		lr := &rep.Layers[i]
		*lr = pl.LayerReport
		for ; t < pl.end; t++ {
			tm := &p.terms[t]
			var sec float64
			switch tm.kind {
			case termConst:
				sec = tm.a
			case termBatch:
				sec = fBatch * tm.a
			case termOutput:
				sec = fBatch * tm.a * overhead
			case termOutputHz:
				sec = fBatch * tm.a * overhead / hz
			case termMAC:
				m := &macs[0]
				macs = macs[1:]
				cycles := m.macs * cost.discount(m.perMAC, m.wBits, density)
				sec = fBatch * cost.Seconds(cycles)
				rep.Ledger.ArrayComputeCycles += b * cycles * m.arrays
			}
			lr.Seconds[tm.phase] += sec
		}
		// Batched output staging: what does not fit the reserved ways is
		// dumped to DRAM and reloaded for the next layer (§IV-E).
		if spill := batch*pl.outElems - ioCapacity; spill > 0 {
			// The dump is a contiguous stream (peak bandwidth); the reload
			// is the same set-strided walk as filter loading (effective
			// bandwidth).
			dumpSec := cfg.DRAM.PeakStreamSeconds(spill) + cfg.DRAM.StreamSeconds(spill)
			lr.Seconds[PhaseDRAMDump] += dumpSec
			rep.Ledger.DRAMBytes += uint64(2 * spill)
		}
		rep.Seconds.Add(lr.Seconds)
	}

	rep.Energy = cfg.Energy.Price(rep.Ledger, rep.Latency())
	rep.DRAMEnergyJ = cfg.DRAM.EnergyJoules(rep.Ledger.DRAMBytes)
	if cfg.IncludeDRAMEnergy {
		rep.Energy.AccessJ += rep.DRAMEnergyJ
	}
	return rep, nil
}

// scaled is l charged n times.
func scaled(l energy.Ledger, n uint64) energy.Ledger {
	return energy.Ledger{
		ArrayComputeCycles: n * l.ArrayComputeCycles,
		ArrayAccessCycles:  n * l.ArrayAccessCycles,
		BusBytes:           n * l.BusBytes,
		RingBytes:          n * l.RingBytes,
		DRAMBytes:          n * l.DRAMBytes,
	}
}

// walkSize counts what Price records under a layer, so its slices are
// allocated once.
type walkSize struct{ terms, macs int }

func (n *walkSize) add(l nn.Layer, first bool) {
	switch t := l.(type) {
	case *nn.Concat:
		for _, b := range t.Branches {
			for _, bl := range b {
				n.add(bl, first)
			}
		}
	case *nn.Residual:
		for _, bl := range t.Body {
			n.add(bl, first)
		}
		for _, bl := range t.Shortcut {
			n.add(bl, first)
		}
		n.terms += combineTerms
	case *nn.Conv2D:
		n.terms += convTerms
		n.macs++
		if first {
			n.terms += firstConvTerms
		}
	case *nn.Pool:
		n.terms += poolTerms
	case *nn.BatchNorm:
		n.terms += batchNormTerms
	}
}

// walker is Price's state while it walks one network.
type walker struct {
	net     *nn.Network
	p       *Priced
	traffic interconnect.Traffic
	// Cycle constants of the configuration.
	requant, minMax, reduceStep, add2Act, combineIter, bnIter uint64
}

func (w *walker) add(phase Phase, kind termKind, a float64) {
	w.p.terms = append(w.p.terms, term{a: a, phase: uint8(phase), kind: kind})
}

// visit prices one layer of the walk. A Residual comes after its body
// and shortcut, so its combine follows their costs; a top-level layer
// comes after everything under it and closes its layer.
func (w *walker) visit(p nn.Placed) error {
	pl := &w.p.layers[p.GroupIdx]
	var err error
	switch l := p.Layer.(type) {
	case *nn.Conv2D:
		err = w.convCost(&pl.LayerReport, p, p.GroupIdx == 0)
	case *nn.Pool:
		err = w.poolCost(&pl.LayerReport, p)
	case *nn.BatchNorm:
		w.batchNormCost(&pl.LayerReport, p)
	case *nn.Residual:
		w.elementwiseCombineCost(p.Out.Elems())
	case *nn.Concat:
	default:
		err = fmt.Errorf("core: no cost model for layer type %T", l)
	}
	if err != nil || p.Layer != w.net.Layers[p.GroupIdx] {
		return err
	}
	pl.Name = p.Layer.Name()
	pl.outElems = p.Out.Elems()
	pl.end = len(w.p.terms)
	return nil
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

func (w *walker) convCost(lr *LayerReport, p nn.Placed, firstLayer bool) error {
	cfg := w.p.cfg
	plan, err := mapping.PlanConv(cfg.Mapping, p)
	if err != nil {
		return err
	}
	cost := cfg.Cost
	slices := cfg.Geometry.Slices
	activeLanes := plan.ParallelConvs * plan.LanesPerConv
	activeArrays := (activeLanes + sram.BitLines - 1) / sram.BitLines
	fixed, perImage := &w.p.fixed, &w.p.perImage

	// --- Filter loading (once per layer regardless of batch, §IV-E) ---
	filterBytes := plan.R * plan.S * plan.C * plan.M
	w.add(PhaseFilterLoad, termConst, cfg.DRAM.StreamSeconds(filterBytes))
	fixed.DRAMBytes += uint64(filterBytes)
	cfg.Fabric.RingBroadcastCycles(&w.traffic, filterBytes)
	repeatBus(cfg.Fabric, &w.traffic, slices, filterBytes/slices, false)
	fixed.ArrayAccessCycles += uint64(activeArrays) *
		uint64(plan.Layout.FilterElems*plan.Layout.WeightBits)

	// --- Input streaming (per image) ---
	// Per serial iteration every active lane receives R'·S' fresh input
	// bytes, discounted by window reuse across consecutive serial outputs
	// and by the achievable multicast (bank latch via the fabric model,
	// plus partial cross-bank multicast of M-replicated windows).
	depositPerSlice := float64(activeLanes*plan.EffFilter) / float64(slices)
	depositPerSlice *= (1 - plan.ReuseFraction)
	depositPerSlice /= cfg.InputMulticastFactor
	inputCycles := repeatBus(cfg.Fabric, &w.traffic, plan.SerialIters, int(depositPerSlice), true)
	w.add(PhaseInputStream, termBatch, cost.Seconds(inputCycles))
	perImage.ArrayAccessCycles += uint64(activeArrays) *
		uint64(plan.SerialIters*plan.EffFilter*plan.Layout.ActBits)
	if firstLayer {
		// The first layer's inputs come from DRAM through the TMU gateway.
		inBytes := p.In.Elems()
		w.add(PhaseInputStream, termBatch, cfg.DRAM.StreamSeconds(inBytes))
		w.add(PhaseInputStream, termBatch, cost.Seconds(transpose.GatewayCycles(inBytes)))
		perImage.DRAMBytes += uint64(inBytes)
	}

	// --- MACs (the density discount applies at replay) ---
	w.p.macs = append(w.p.macs, macTerm{
		macs:   uint64(plan.SerialIters) * uint64(plan.MACsPerIter()),
		perMAC: cost.MACCyclesWidths(plan.WeightBits),
		arrays: uint64(activeArrays),
		wBits:  plan.WeightBits,
	})
	w.add(PhaseMAC, termMAC, 0)

	// --- Channel reduction ---
	redCycles := uint64(plan.SerialIters) * uint64(plan.ReduceSteps) * w.reduceStep
	w.add(PhaseReduce, termBatch, cost.Seconds(redCycles))
	perImage.ArrayComputeCycles += redCycles * uint64(activeArrays)

	// --- Quantization (§IV-D) ---
	// Per iteration: the Σq_a correction pass (window adds + a 16-bit
	// reduction tree) and the running min/max update; per layer: the
	// global min/max reduction and CPU round trip; per output batch: the
	// bias/ReLU/multiply/shift requantize pipeline.
	saIter := uint64(plan.MACsPerIter())*w.add2Act +
		uint64(plan.ReduceSteps)*(4*uint64(2*cost.ActBits)+4)
	minmaxIter := 2 * (4*uint64(cost.ReduceBits) + 4)
	quantCycles := uint64(plan.SerialIters) * (saIter + minmaxIter)
	quantCycles += w.minMax
	outBatches := uint64((plan.TotalConvs + activeLanes - 1) / activeLanes)
	quantCycles += outBatches * w.requant
	w.add(PhaseQuant, termBatch, cost.Seconds(quantCycles))
	perImage.ArrayComputeCycles += quantCycles * uint64(activeArrays)

	// --- Output transfer to the reserved way ---
	// Pre-quantization accumulators (4 B) move out per iteration; the
	// requantized bytes (1 B) return. The overhead factor covers the
	// gather and transpose-gateway passes.
	outBytesPerSlice := (plan.TotalConvs*5 + slices - 1) / slices
	outCycles := cfg.Fabric.BusCycles(&w.traffic, outBytesPerSlice, false)
	outSec := float64(outCycles) * cfg.OutputPathOverhead / (cost.FreqGHz * 1e9)
	// Neighboring slices exchange halo rows for the next layer (§IV-C).
	haloBytes := plan.R * p.Out.W * p.Out.C
	haloCycles := cfg.Fabric.NeighborExchangeCycles(&w.traffic, haloBytes)
	w.add(PhaseOutput, termBatch, outSec+cost.Seconds(haloCycles))
	perImage.ArrayAccessCycles += uint64(activeArrays) * uint64(plan.SerialIters*5*8/plan.LanesPerConv+1)

	if plan.SerialIters > lr.SerialIters {
		lr.SerialIters = plan.SerialIters
		lr.Utilization = plan.Utilization
	}
	lr.Convs += plan.TotalConvs
	return nil
}

// elementwiseCombineCost prices a Residual's element-wise combine of
// elems outputs: two realign multiplies, the 8-bit add and the
// requantize, element-parallel across the cache's lanes, plus the
// operand round trip on the bus.
func (w *walker) elementwiseCombineCost(elems int) {
	cfg := w.p.cfg
	cost := cfg.Cost
	lanes := cfg.Geometry.ComputeArrays() * sram.BitLines
	iters := (elems + lanes - 1) / lanes
	activeArrays := min((elems+sram.BitLines-1)/sram.BitLines, cfg.Geometry.ComputeArrays())
	cycles := uint64(iters) * w.combineIter
	w.add(PhaseQuant, termBatch, cost.Seconds(cycles))
	w.p.perImage.ArrayComputeCycles += cycles * uint64(activeArrays)
	ioPerSlice := (3*elems + cfg.Geometry.Slices - 1) / cfg.Geometry.Slices
	ioCycles := cfg.Fabric.BusCycles(&w.traffic, ioPerSlice, false)
	w.add(PhaseOutput, termOutput, cost.Seconds(ioCycles))
}

// batchNormCost prices the §IV-D batch-norm sequence: inputs stream one
// byte per lane, the 16×16 multiply / round / shift / per-channel add /
// ReLU pipeline runs element-parallel, outputs requantize like a
// convolution's.
func (w *walker) batchNormCost(lr *LayerReport, p nn.Placed) {
	cfg := w.p.cfg
	cost := cfg.Cost
	slices := cfg.Geometry.Slices
	total := p.Out.Elems()
	lanes := cfg.Geometry.ComputeArrays() * sram.BitLines
	iters := (total + lanes - 1) / lanes
	activeArrays := min((total+sram.BitLines-1)/sram.BitLines, cfg.Geometry.ComputeArrays())

	bnCycles := uint64(iters) * w.bnIter
	bnCycles += w.minMax
	w.add(PhaseQuant, termBatch, cost.Seconds(bnCycles))
	w.p.perImage.ArrayComputeCycles += bnCycles * uint64(activeArrays)

	// Input bytes in, output bytes back out.
	ioPerSlice := (2*total + slices - 1) / slices
	ioCycles := cfg.Fabric.BusCycles(&w.traffic, ioPerSlice, false)
	w.add(PhaseOutput, termOutput, cost.Seconds(ioCycles))
	if iters > lr.SerialIters {
		lr.SerialIters = iters
	}
}

func (w *walker) poolCost(lr *LayerReport, p nn.Placed) error {
	cfg := w.p.cfg
	plan, err := mapping.PlanPool(cfg.Mapping, p)
	if err != nil {
		return err
	}
	cost := cfg.Cost
	slices := cfg.Geometry.Slices
	activeArrays := (plan.ParallelOut + sram.BitLines - 1) / sram.BitLines

	// Inputs stream one byte per window element per lane.
	depositPerSlice := plan.ParallelOut * plan.Window / slices
	depositPerSlice = int(float64(depositPerSlice) / cfg.InputMulticastFactor)
	inputCycles := repeatBus(cfg.Fabric, &w.traffic, plan.SerialIters, depositPerSlice, true)
	w.add(PhaseInputStream, termBatch, cost.Seconds(inputCycles))

	// Running max (or running sum + divide/shift) per window element.
	var perIter uint64
	if plan.Kind == nn.MaxPool {
		perIter = uint64(plan.Window-1) * cost.MaxCycles()
	} else {
		perIter = uint64(plan.Window) * w.add2Act
		if plan.DivideShift >= 0 {
			perIter += uint64(cost.ActBits) // shift = row-offset copy
		} else {
			perIter += cost.DivideCycles()
		}
	}
	poolCycles := uint64(plan.SerialIters) * perIter
	w.add(PhasePool, termBatch, cost.Seconds(poolCycles))
	w.p.perImage.ArrayComputeCycles += poolCycles * uint64(activeArrays)

	// Outputs are single bytes at the input scale: no requantization.
	outPerSlice := (plan.TotalOuts + slices - 1) / slices
	outCycles := cfg.Fabric.BusCycles(&w.traffic, outPerSlice, false)
	w.add(PhaseOutput, termOutputHz, float64(outCycles))

	if plan.SerialIters > lr.SerialIters {
		lr.SerialIters = plan.SerialIters
	}
	return nil
}

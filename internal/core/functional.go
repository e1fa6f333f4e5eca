package core

import (
	"fmt"
	"runtime"
	"sync"

	"neuralcache/internal/bitvec"
	"neuralcache/internal/geometry"
	"neuralcache/internal/interconnect"
	"neuralcache/internal/mapping"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
)

// Functional mode: bit-accurate in-cache execution. Every MAC, channel
// reduction, window-sum (Σq_a) and pooling comparison runs as stepped
// bit-serial microcode on instantiated SRAM arrays; the host performs only
// the §IV-D scalar steps the paper also assigns to the CPU (choosing the
// requantization scalars) plus the correction/requantize arithmetic, using
// exactly the code shared with the integer reference executor
// (nn.FinishConv, nn.MergeConcat), so a bit-exact match with the reference
// validates the in-array compute path end to end.
//
// The engine mirrors the hardware's parallelism in software: a layer's
// independent work groups (each group owning the array, or array pair, its
// lanes live on) are partitioned across a worker pool bounded by
// Config.Workers (default GOMAXPROCS). No array is ever shared between
// goroutines — groups that reuse an array via cursor wrap-around are
// pinned to the same worker in ascending group order, so every array sees
// exactly the op stream a single-worker run would issue. Layers form
// barriers: the host-side scalar steps (requantization decisions, trace
// entries) run on the calling goroutine between layers, and cycle stats
// are summed over arrays in fixed index order after all workers quiesce.
// Output bytes, trace, stats and ArraysUsed are therefore bit-identical
// for every worker count.
//
// Convolutions are no longer limited to one array: a convolution whose
// effective channels exceed 256 lanes spills onto the sense-amp-sharing
// partner array (LanesPerConv = 512). Each array reduces its own 256-lane
// segment in-array; the segment partial sums (and Σq_a in the resident-
// input layouts) are then shipped to the group's lead array over the
// intra-slice bus — the §IV-D inter-array reduce — and the final add runs
// in-array on the lead. The bus traffic and cycles of those transfers are
// reported in FunctionalResult.Fabric / FabricCycles.

// FunctionalResult is the outcome of a bit-accurate run.
type FunctionalResult struct {
	Output *tensor.Quant
	Trace  *nn.Trace
	// Stats aggregates the emergent microcode cycles across all arrays.
	Stats sram.Stats
	// ArraysUsed counts distinct compute arrays touched.
	ArraysUsed int
	// Fabric is the interconnect traffic of cross-array partial-sum
	// reduction — nonzero only when a convolution's lanes spill across an
	// array pair (LanesPerConv > 256).
	Fabric interconnect.Traffic
	// FabricCycles is the intra-slice bus time charged for those
	// inter-array reduce transfers.
	FabricCycles uint64
	// Skip reports what zero-slice skipping elided; Enabled (and the
	// counters) only when Config.SkipZeroSlices is set.
	Skip SkipReport
}

// SkipLayer is one layer's zero-slice-skipping tally: how many multiplier
// bit-slices the wired-OR flag elided, out of how many the layer's
// multiplies examined, and the compute cycles those elisions saved
// (n+1 per skipped slice of an n-bit multiply).
type SkipLayer struct {
	Layer         string
	SkippedSlices uint64
	TotalSlices   uint64
	CyclesSaved   uint64
}

// SkipReport aggregates zero-slice skipping over a run. The counters are
// deterministic for every worker count (folded in ascending group order,
// like the fabric ledger), and CyclesSaved equals exactly the difference
// between the dense and skipping engines' emergent compute cycles on the
// same input.
type SkipReport struct {
	Enabled       bool
	SkippedSlices uint64
	TotalSlices   uint64
	CyclesSaved   uint64
	// Layers lists per-layer tallies in execution order (convolutions and
	// batch-norm layers; pooling and residual adds have no multiplies).
	Layers []SkipLayer
}

// Density returns the executed fraction of multiplier bit-slices — the
// measured bit-column density a serving estimate can price via
// System.EstimateDensity. 1 when nothing was counted (dense runs).
func (r SkipReport) Density() float64 {
	if r.TotalSlices == 0 {
		return 1
	}
	return 1 - float64(r.SkippedSlices)/float64(r.TotalSlices)
}

// FaultInjector mutates a compute array the first time the functional
// engine touches it (fault-campaign hook); ordinal is the round-robin
// compute-array index. With Workers > 1 the injector may be invoked from
// multiple goroutines concurrently, but never for the same ordinal twice
// and never while any other goroutine holds that array.
type FaultInjector func(ordinal int, a *sram.Array)

// RunFunctional executes the network bit-accurately on instantiated
// compute arrays.
func (s *System) RunFunctional(net *nn.Network, in *tensor.Quant) (*FunctionalResult, error) {
	return s.RunFunctionalFaulty(net, in, nil)
}

// RunFunctionalFaulty is RunFunctional with defect injection: inject is
// called once per compute array on first use, before any data lands.
//
// The run leases a simulated cache from the System's free list and
// returns it once the run has finished, with or without an error, after
// resetting every array the run touched (data, latches, counters and
// injected faults). Every run therefore starts on zeroed, fault-free
// arrays, as on a fresh geometry.New. A run that panics never returns
// its cache.
func (s *System) RunFunctionalFaulty(net *nn.Network, in *tensor.Quant, inject FaultInjector) (*FunctionalResult, error) {
	if in.Shape != net.Input {
		return nil, fmt.Errorf("core: input shape %v, network expects %v", in.Shape, net.Input)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := net.CheckWeights(); err != nil {
		return nil, err
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rc := s.lease()
	f := &funcExec{
		sys:     s,
		rc:      rc,
		tr:      &nn.Trace{},
		inject:  inject,
		workers: workers,
	}
	f.skip.Enabled = s.cfg.SkipZeroSlices
	out, err := f.seq(net.Layers, in)
	stats := rc.cache.Stats()
	used := rc.reset()
	s.release(rc)
	if err != nil {
		return nil, err
	}
	return &FunctionalResult{
		Output:       out,
		Trace:        f.tr,
		Stats:        stats,
		ArraysUsed:   used,
		Fabric:       f.fabric,
		FabricCycles: f.fabricCycles,
		Skip:         f.skip,
	}, nil
}

// runCache is a simulated cache leased to one functional run, with the
// run's per-ordinal first-use table. It also carries the host buffers
// the runs that lease it reuse, each grown on demand: one scratch per
// worker index, the group ledgers of a parallel section, and a
// convolution's raw accumulators, transposed input image and packed
// filter images. Layers run one at a time, so one of each serves every
// convolution of a run; a steady-state run allocates none of them.
type runCache struct {
	cache   *geometry.Cache
	touched []bool
	scratch []*scratch
	shares  []groupShare
	errs    []error
	accs    []int64
	input   inputImage
	filters filterImages
}

// zeroed returns buf resliced to n zero elements, reallocating it when
// its capacity is short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reset restores every array the last run touched to the zero state,
// clears the first-use table and returns how many arrays the run
// touched. Arrays the run never touched are still zero from an earlier
// reset, or not yet allocated.
func (rc *runCache) reset() (touched int) {
	for i, t := range rc.touched {
		if t {
			rc.cache.ComputeArray(i).Reset()
			rc.touched[i] = false
			touched++
		}
	}
	return touched
}

type funcExec struct {
	sys     *System
	rc      *runCache // leased cache, first-use table and worker scratch
	tr      *nn.Trace
	next    int // round-robin compute array cursor (ordinal)
	inject  FaultInjector
	workers int

	// Inter-array reduce and zero-skip accounting, merged from per-group
	// shares in ascending group order after each parallel section.
	fabric       interconnect.Traffic
	fabricCycles uint64
	skip         SkipReport
}

// groupShare is one group's contribution to the run ledgers: interconnect
// traffic/cycles of inter-array reduces, and the zero-slice-skipping
// tallies. Each group writes only its own share; runGroups folds the
// shares into the engine totals in ascending group order after the
// barrier, so every ledger is identical for any worker count.
type groupShare struct {
	traffic interconnect.Traffic
	cycles  uint64

	skippedSlices uint64 // multiplier bit-slices the wired-OR flag elided
	totalSlices   uint64 // bit-slices the skipping ops examined
	skipSaved     uint64 // compute cycles the elided slices would have cost
}

// arrayFor hands out the compute array with the given ordinal. An array
// is zero and fault-free at its first use in a run (the leased cache was
// reset), and it is not cleared between the groups of a run that reuse
// it: every group fully overwrites the regions it computes in, exactly
// as the stationary-filter schedule does. The caller must own the
// ordinal (runGroups pins each ordinal to one worker per section), which
// makes the first-touch bookkeeping race-free.
func (f *funcExec) arrayFor(ordinal int) *sram.Array {
	arr := f.rc.cache.ComputeArray(ordinal)
	if !f.rc.touched[ordinal] {
		f.rc.touched[ordinal] = true
		if f.inject != nil {
			f.inject(ordinal, arr)
		}
	}
	return arr
}

// scratch is one runGroups worker's host-side staging buffers. The
// leased runCache keeps one per worker index, so the buffers are reused
// across the groups, layers and runs that worker index executes; a group
// must not rely on any content left by an earlier group, layer or run.
// Only arrs, lanes and bytes grow with the group's array count; the
// arrays are sized for the widest group (an array pair of 8-bit planes)
// and the most slots a group holds.
type scratch struct {
	arrs   []*sram.Array          // the group's arrays
	lanes  []uint64               // one element per lane of the group's arrays
	bytes  []byte                 // one byte per lane of the group's arrays
	planes [8]bitvec.Vec256       // one packed column of up to 8-bit elements
	grid   [2 * 8]bitvec.Vec256   // a MAC step's input planes: array p's plane i at p·ab+i
	sums   [sram.BitLines]int64   // per-slot host sums
	origin [sram.BitLines]window  // per-slot window origin
	runs   [sram.BitLines]slotRun // a convolution group's slots, by window origin
}

// window is one output slot's receptive-field origin (top-left input
// row and column, before padding is clipped) and channel.
type window struct{ h, w, ch int }

// slotRun is a run of a convolution group's consecutive slots [lo, hi)
// whose windows share the origin o.
type slotRun struct {
	o      window
	lo, hi int
}

// sized re-slices the buffers to the lanes of k arrays, growing them
// when k exceeds every earlier group size. Callers rely on the exact
// lengths: len(lanes) is the lane count a group stages.
func (sc *scratch) sized(k int) *scratch {
	n := k * sram.BitLines
	if cap(sc.lanes) < n {
		sc.arrs = make([]*sram.Array, k)
		sc.lanes = make([]uint64, n)
		sc.bytes = make([]byte, n)
	}
	sc.arrs = sc.arrs[:k]
	sc.lanes = sc.lanes[:n]
	sc.bytes = sc.bytes[:n]
	return sc
}

// runGroups executes nGroups independent work groups, each owning
// arraysPerGroup consecutive compute arrays from the round-robin cursor,
// across the worker pool. Scheduling is deterministic: group g gets the
// ordinals a single-worker run would hand it, and groups whose ordinals
// collide through cursor wrap-around (g ≡ g' mod computeArrays/K) belong
// to the same collision class and are pinned to one worker, which
// processes them in ascending order. Every array therefore receives
// exactly the sequential op stream, for any worker count.
func (f *funcExec) runGroups(nGroups, arraysPerGroup int, fn func(g int, arrs []*sram.Array, acct *groupShare, sc *scratch) error) error {
	if nGroups <= 0 {
		return nil
	}
	n := len(f.rc.touched)
	if arraysPerGroup > n {
		return fmt.Errorf("core: a work group needs %d arrays, cache has only %d compute arrays",
			arraysPerGroup, n)
	}
	// Align multi-array groups to an array-pair boundary so spill lanes
	// land on the sense-amp partner of the lead array.
	if rem := f.next % arraysPerGroup; rem != 0 {
		f.next += arraysPerGroup - rem
	}
	start := f.next
	f.next += nGroups * arraysPerGroup

	w := f.workers
	if w > nGroups {
		w = nGroups
	}
	if n%arraysPerGroup != 0 {
		// Wrap-around would not preserve collision classes; irregular
		// geometries fall back to in-order execution.
		w = 1
	}
	cycle := n / arraysPerGroup

	f.rc.shares = zeroed(f.rc.shares, nGroups)
	f.rc.errs = zeroed(f.rc.errs, nGroups)
	shares, errs := f.rc.shares, f.rc.errs
	for len(f.rc.scratch) < w {
		f.rc.scratch = append(f.rc.scratch, new(scratch))
	}
	run := func(worker int) {
		sc := f.rc.scratch[worker].sized(arraysPerGroup)
		arrs := sc.arrs
		for g := 0; g < nGroups; g++ {
			if w > 1 && (g%cycle)%w != worker {
				continue
			}
			for j := range arrs {
				arrs[j] = f.arrayFor((start + g*arraysPerGroup + j) % n)
			}
			if err := fn(g, arrs, &shares[g], sc); err != nil {
				errs[g] = err
				return
			}
		}
	}
	if w <= 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for worker := 0; worker < w; worker++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				run(worker)
			}(worker)
		}
		wg.Wait()
	}
	for g := range shares {
		f.fabric.Add(shares[g].traffic)
		f.fabricCycles += shares[g].cycles
		f.skip.SkippedSlices += shares[g].skippedSlices
		f.skip.TotalSlices += shares[g].totalSlices
		f.skip.CyclesSaved += shares[g].skipSaved
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *funcExec) seq(layers []nn.Layer, x *tensor.Quant) (*tensor.Quant, error) {
	var err error
	for _, l := range layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			x, err = f.conv(t, x)
		case *nn.Pool:
			x, err = f.pool(t, x)
		case *nn.BatchNorm:
			x, err = f.batchNorm(t, x)
		case *nn.Residual:
			x, err = f.residual(t, x)
		case *nn.Concat:
			outs := make([]*tensor.Quant, len(t.Branches))
			for i, b := range t.Branches {
				outs[i], err = f.seq(b, x)
				if err != nil {
					return nil, err
				}
			}
			x = nn.MergeConcat(t, x.Shape, outs, f.tr)
		default:
			err = fmt.Errorf("core: unknown layer type %T", l)
		}
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

func (f *funcExec) conv(c *nn.Conv2D, x *tensor.Quant) (*tensor.Quant, error) {
	placed := nn.Placed{Layer: c, In: x.Shape, Out: c.OutShape(x.Shape)}
	plan, err := mapping.PlanConv(f.sys.cfg.Mapping, placed)
	if err != nil {
		return nil, err
	}
	accScale := x.Scale * c.Filter.Scale
	bias := nn.QuantizeBias(c.Bias, accScale)
	var accs []int64
	err = f.recordSkip(c.Name(), func() error {
		accs, err = f.convAccs(plan, c, x, bias)
		return err
	})
	if err != nil {
		return nil, err
	}
	return nn.FinishConv(c, placed.Out, accScale, bias, accs, f.tr), nil
}

// recordSkip runs fn and, when zero-slice skipping is on, appends the
// layer's delta of the run-wide skip counters as a per-layer tally.
// Layers execute sequentially on the calling goroutine (runGroups folds
// its shares before returning), so the deltas and their order are
// deterministic for every worker count.
func (f *funcExec) recordSkip(name string, fn func() error) error {
	if !f.sys.cfg.SkipZeroSlices {
		return fn()
	}
	before := f.skip
	if err := fn(); err != nil {
		return err
	}
	f.skip.Layers = append(f.skip.Layers, SkipLayer{
		Layer:         name,
		SkippedSlices: f.skip.SkippedSlices - before.SkippedSlices,
		TotalSlices:   f.skip.TotalSlices - before.TotalSlices,
		CyclesSaved:   f.skip.CyclesSaved - before.CyclesSaved,
	})
	return nil
}

// convAccs produces the raw accumulators by running the mapped microcode
// on real arrays. Work is split into independent groups: one array per
// group when the convolution fits 256 lanes (256/L convolutions per
// group), or an array pair per group when it spills (one convolution per
// group, 256 lanes per array). Per group: load filters and inputs
// transposed, run R'·S' MulAccs, an in-array Σq_a pass, and the log₂
// reduction trees; a spilled convolution then ships each partner array's
// segment sums to the lead array over the intra-slice bus and finishes
// the add in-array. Finally the group reads back ACC and Σq_a from every
// slot's first lane in one strided read each and applies the correction
// zero_w·Σq_a and bias.
//
// Inputs stay bytes on the host, as the TMU would see them, and every
// byte of the layer's input is checked against ActBits before any group
// runs. A plain layout (no filter split or packing) transposes its input
// once per layer into an inputImage, as the gateway does (§IV-C), and
// each group assembles a MAC step's input planes from it with word-wide
// masked ORs, one per run of slots that share a window. Split and packed
// layouts gather each step's operands lane by lane into the worker's
// byte column and pack them with bitvec.PackBytes. Each group records
// its slots' window runs once.
func (f *funcExec) convAccs(plan *mapping.ConvPlan, c *nn.Conv2D, x *tensor.Quant, bias []int32) ([]int64, error) {
	L := plan.LanesPerConv
	lay := plan.Layout
	wb := plan.WeightBits
	ab := plan.ActBits
	out := c.OutShape(x.Shape)
	total := out.H * out.W * c.Cout
	// FinishConv consumes the accumulators before the next layer runs,
	// so one pooled buffer serves every convolution of the run.
	f.rc.accs = zeroed(f.rc.accs, total)
	accs := f.rc.accs
	zw := int64(c.Filter.Zero)

	arraysPer := plan.ArraysPerConv
	slotsPer := 1
	if arraysPer == 1 {
		slotsPer = sram.BitLines / L
	}
	lanesPerArray := min(L, sram.BitLines)
	nGroups := (total + slotsPer - 1) / slotsPer
	fabric := f.sys.cfg.Fabric
	filters := &f.rc.filters
	filters.pack(plan, c, out, slotsPer, nGroups)
	checkActBits(c, x, ab)
	plain := plan.PackFactor == 1 && plan.SplitFactor == 1
	img := &f.rc.input
	if plain {
		img.pack(x, L, ab)
	}

	skipZero := f.sys.cfg.SkipZeroSlices
	return accs, f.runGroups(nGroups, arraysPer, func(g int, arrs []*sram.Array, acct *groupShare, sc *scratch) error {
		base := g * slotsPer
		slots := min(slotsPer, total-base)
		// Flat byte column across the group's arrays: array p stages the
		// 256-lane window [p·256, (p+1)·256).
		col := sc.bytes
		grid := sc.grid[:arraysPer*ab]
		saHost := sc.sums[:slots]
		clear(saHost)
		runs := slotRuns(sc.runs[:0], c, out, base, slots)

		// stage assembles MAC step j's input planes in grid, array p's at
		// grid[p·ab:]: from the image for a plain layout, else by sampling
		// each lane's operand byte and packing the byte column.
		stage := func(j int) {
			if plain {
				img.stage(runs, j/c.S, j%c.S, grid)
				return
			}
			clear(col)
			for _, rn := range runs {
				for slot := rn.lo; slot < rn.hi; slot++ {
					dst := col[slot*L : slot*L+L]
					for lane := range dst {
						pos, ch := operandIndex(plan, lane, j)
						dst[lane] = inputByte(c, x, rn.o.h, rn.o.w, pos, ch)
					}
				}
			}
			for p := range arrs {
				bitvec.PackBytes(col[p*sram.BitLines:(p+1)*sram.BitLines], ab, grid[p*ab:(p+1)*ab])
			}
		}

		for j := 0; j < plan.EffFilter; j++ {
			for p, arr := range arrs {
				arr.WritePlanes(lay.FilterRow()+wb*j, wb, filters.at(g, j, p), sram.BitLines)
			}
			if !plan.InputStreamed {
				stage(j)
				for p, arr := range arrs {
					arr.WritePlanes(lay.InputRow()+ab*j, ab, grid[p*ab:(p+1)*ab], sram.BitLines)
				}
			}
		}

		// MAC phase.
		for _, arr := range arrs {
			arr.Zero(lay.PartialRow(), 32, false)
			arr.Zero(lay.ScratchRow(), 24, false)
		}
		for j := 0; j < plan.EffFilter; j++ {
			inRow := lay.InputRow() + ab*j
			if plan.InputStreamed {
				// Stream this MAC step's input byte for every lane: pack
				// the bit planes once, stage them, and fold the same planes
				// into the host's Σq_a by popcounting each plane over the
				// slot's lane window (Σ 2^i · ones(plane_i)) — the word-
				// packed replacement for a per-lane accumulation loop.
				stage(j)
				inRow = lay.InputRow()
				for p, arr := range arrs {
					planes := grid[p*ab : (p+1)*ab]
					arr.WritePlanes(inRow, ab, planes, sram.BitLines)
					plo := p * sram.BitLines
					for slot := 0; slot < slots; slot++ {
						lo := slot*L - plo
						for i, plane := range planes {
							saHost[slot] += int64(plane.OnesCountRange(lo, lo+L)) << uint(i)
						}
					}
				}
			}
			// The filter plane is the multiplier (bBase): weight bytes are
			// where bit-column sparsity lives — a weight bit-column that is
			// zero across the array's lanes elides its predicated add,
			// BitWave-style — and a constant multiplier makes the skip
			// count input-independent, so a measured density stays valid
			// across requests. Both modes share the operand order (the
			// product is commutative and Multiply's cost value-independent,
			// so the dense engine is unchanged), which also keeps fault
			// blast radii identical between dense and skipping runs. The
			// multiplier runs wb slices over an ab-bit multiplicand, so a
			// narrow-weight layer pays proportionally fewer cycles.
			for _, arr := range arrs {
				if skipZero {
					sk := arr.MulAccSkipAsym(inRow, lay.FilterRow()+wb*j, lay.ScratchRow(), lay.PartialRow(), ab, wb, 24)
					acct.skippedSlices += uint64(sk)
					acct.totalSlices += uint64(wb)
					acct.skipSaved += uint64(sk) * uint64(ab+1)
				} else {
					arr.MulAccAsym(inRow, lay.FilterRow()+wb*j, lay.ScratchRow(), lay.PartialRow(), ab, wb, 24)
				}
			}
		}

		// Σq_a pass (in-array for resident inputs): accumulate the window
		// bytes into a 24-bit sum in the freed scratch region (wide enough
		// for the cross-lane reduction), staging zero-extended bytes in
		// the reduction operand area.
		if !plan.InputStreamed {
			for _, arr := range arrs {
				arr.Zero(lay.ScratchRow(), 24, false)
				for j := 0; j < plan.EffFilter; j++ {
					arr.Zero(lay.ReduceRow(), 24, false)
					arr.Copy(lay.InputRow()+ab*j, lay.ReduceRow(), ab, false)
					arr.AddTrunc(lay.ScratchRow(), lay.ReduceRow(), lay.ScratchRow(), 24)
				}
			}
		}

		// Channel reduction trees over each array's lane segment.
		if lanesPerArray > 1 {
			for _, arr := range arrs {
				arr.Reduce(lay.PartialRow(), lay.ReduceRow(), 32, lanesPerArray)
				if !plan.InputStreamed {
					arr.Reduce(lay.ScratchRow(), lay.ReduceRow(), 24, lanesPerArray)
				}
			}
		}

		// Inter-array reduce (§IV-D) for spilled convolutions: ship each
		// partner array's segment sums to the lead array over the
		// intra-slice bus and finish the adds in-array on the lead.
		lead := arrs[0]
		for _, partner := range arrs[1:] {
			part := partner.ReadElement(0, lay.PartialRow(), 32)
			acct.cycles += fabric.BusCycles(&acct.traffic, 4, false)
			lead.Zero(lay.ReduceRow(), 32, false)
			lead.WriteElement(0, lay.ReduceRow(), 32, part)
			lead.AddTrunc(lay.PartialRow(), lay.ReduceRow(), lay.PartialRow(), 32)
			if !plan.InputStreamed {
				sa := partner.ReadElement(0, lay.ScratchRow(), 24)
				acct.cycles += fabric.BusCycles(&acct.traffic, 3, false)
				lead.Zero(lay.ReduceRow(), 24, false)
				lead.WriteElement(0, lay.ReduceRow(), 24, sa)
				lead.AddTrunc(lay.ScratchRow(), lay.ReduceRow(), lay.ScratchRow(), 24)
			}
		}

		// Read back and apply the correction and bias. Each slot's sums
		// sit on its first lane; a spilled convolution's on lane 0 of the
		// lead array.
		read := sc.lanes[:slots]
		if !plan.InputStreamed {
			lead.ReadLanes(lay.ScratchRow(), 24, 0, lanesPerArray, read)
			for slot, v := range read {
				saHost[slot] = int64(v)
			}
		}
		lead.ReadLanes(lay.PartialRow(), 32, 0, lanesPerArray, read)
		for slot, v := range read {
			acc := int64(v) - zw*saHost[slot]
			if bias != nil {
				acc += int64(bias[(base+slot)%c.Cout])
			}
			accs[base+slot] = acc
		}
		return nil
	})
}

// filterImages holds a convolution's filter operands, gathered and
// packed into bit planes once per layer rather than once per group. Group
// g stages the output channels m = (g·slotsPer + slot) mod Cout of its
// slots, so its filter image repeats every Cout/gcd(Cout, slotsPer)
// groups. A partial last group leaves the lanes beyond its slots zero,
// so it gets an image of its own unless it falls in the first period.
// The leased runCache keeps one, so data and col are reused by every
// convolution of every run that leases it, grown on demand.
type filterImages struct {
	period  int // images per repetition, at most the group count
	partial int // a partial last group past the first period, or -1
	stride  int // planes per image: EffFilter × arrays × wb
	step    int // planes per MAC step: arrays × wb
	wb      int // planes per MAC step and array
	data    []bitvec.Vec256
	col     []byte // one MAC step's weight bytes across a group's lanes
}

// at returns the wb filter planes group g stages on its array p for MAC
// step j.
func (fi *filterImages) at(g, j, p int) []bitvec.Vec256 {
	img := g % fi.period
	if g == fi.partial {
		img = fi.period
	}
	off := img*fi.stride + j*fi.step + p*fi.wb
	return fi.data[off : off+fi.wb]
}

// pack gathers and packs the filter image of each distinct group of a
// convolution into fi, straight from the filter bytes. Every weight must
// fit the plan's WeightBits.
func (fi *filterImages) pack(plan *mapping.ConvPlan, c *nn.Conv2D, out tensor.Shape, slotsPer, nGroups int) {
	L := plan.LanesPerConv
	wb := plan.WeightBits
	arrays := plan.ArraysPerConv
	total := out.Elems()
	fi.period = min(c.Cout/gcd(c.Cout, slotsPer), nGroups)
	fi.partial = -1
	fi.step = arrays * wb
	fi.wb = wb
	fi.stride = plan.EffFilter * fi.step
	images := fi.period
	if last := nGroups - 1; total%slotsPer != 0 && last >= fi.period {
		fi.partial = last
		images++
	}
	fi.data = zeroed(fi.data, images*fi.stride)
	fi.col = zeroed(fi.col, arrays*sram.BitLines)
	flat := fi.col
	for img := 0; img < images; img++ {
		g := img
		if img == fi.period {
			g = fi.partial
		}
		base := g * slotsPer
		slots := min(slotsPer, total-base)
		for j := 0; j < plan.EffFilter; j++ {
			clear(flat)
			for slot := 0; slot < slots; slot++ {
				m := (base + slot) % c.Cout
				dst := flat[slot*L : slot*L+L]
				if plan.PackFactor == 1 && plan.SplitFactor == 1 {
					copy(dst[:min(L, c.Cin)], c.Filter.Data[(m*c.R*c.S+j)*c.Cin:])
					continue
				}
				for lane := range dst {
					pos, ch := operandIndex(plan, lane, j)
					dst[lane] = filterByte(c, m, pos, ch)
				}
			}
			for lane, v := range flat {
				if v>>uint(wb) != 0 {
					panic(fmt.Sprintf("core: %s weight %#x at lane %d exceeds WeightBits=%d",
						c.LayerName, v, lane, wb))
				}
			}
			for p := 0; p < arrays; p++ {
				bitvec.PackBytes(flat[p*sram.BitLines:(p+1)*sram.BitLines], wb, fi.at(g, j, p))
			}
		}
	}
}

// inputImage is a plain-layout convolution's input tensor transposed
// once per layer. For every input position and activation bit it holds
// the position's slot field: the bit of each of its Cin channels, in
// lane order, zero up to the L lanes of a slot. A field narrower than a
// word (L < 64) is tiled across the word, so each slot a plane word
// holds finds the field at its own lanes; a wider one takes L/64 words.
// The leased runCache keeps one, grown on demand; it is built on the
// calling goroutine before a layer's groups run, which only read it.
type inputImage struct {
	h, w   int      // input height and width
	lanes  int      // L, lanes per slot
	ab     int      // bits per element: the layer's ActBits
	words  int      // words per field: max(1, L/64)
	flat   []uint64 // the tensor's bit planes: bit i of element e at flat[i·len/ab + e/64]
	fields []uint64 // word k of position p's bit-i field at fields[(p·words+k)·ab+i]
}

// pack transposes x into the image for slots of L lanes at ab bits: the
// tensor is packed into flat bit planes 256 bytes at a time
// (bitvec.PackBytes), and each position's field is cut from them. Bits
// of x at or above ab are ignored.
func (im *inputImage) pack(x *tensor.Quant, L, ab int) {
	n := len(x.Data)
	chunks := (n + bitvec.Bits - 1) / bitvec.Bits
	stride := chunks * bitvec.Words
	im.flat = zeroed(im.flat, ab*stride)
	var planes [8]bitvec.Vec256
	for k := 0; k < chunks; k++ {
		bitvec.PackBytes(x.Data[k*bitvec.Bits:min(n, (k+1)*bitvec.Bits)], ab, planes[:ab])
		for i, plane := range planes[:ab] {
			copy(im.flat[i*stride+k*bitvec.Words:], plane[:])
		}
	}

	im.h, im.w, im.lanes, im.ab = x.Shape.H, x.Shape.W, L, ab
	im.words = max(1, L/64)
	// Multiplying an L-bit field by Σ_k 2^(kL) repeats it every L bits.
	tile := uint64(1)
	if L < 64 {
		tile = ^uint64(0) / (1<<uint(L) - 1)
	}
	C := x.Shape.C
	positions := im.h * im.w
	im.fields = zeroed(im.fields, positions*im.words*ab)
	for p := 0; p < positions; p++ {
		for k := 0; k < im.words && 64*k < C; k++ {
			word := im.fields[(p*im.words+k)*ab:][:ab]
			for i := range word {
				word[i] = tile * bitsAt(im.flat[i*stride:(i+1)*stride], p*C+64*k, min(64, C-64*k))
			}
		}
	}
}

// stage assembles MAC step (r, s)'s input planes for a group's slot runs
// into grid, array p's plane i at grid[p·ab+i]. Every run whose shifted
// position lies inside the image ORs the position's field, masked to the
// run's lanes, into each plane word the run covers; a padding position
// leaves its run's lanes zero.
func (im *inputImage) stage(runs []slotRun, r, s int, grid []bitvec.Vec256) {
	clear(grid)
	ab, words := im.ab, im.words
	for _, rn := range runs {
		h, w := rn.o.h+r, rn.o.w+s
		if h < 0 || h >= im.h || w < 0 || w >= im.w {
			continue
		}
		field := im.fields[(h*im.w+w)*words*ab:][:words*ab]
		lo, hi := rn.lo*im.lanes, rn.hi*im.lanes
		for gw := lo / 64; gw*64 < hi; gw++ {
			mask := ^uint64(0)
			if d := lo - gw*64; d > 0 {
				mask <<= uint(d)
			}
			if d := gw*64 + 64 - hi; d > 0 {
				mask &= ^uint64(0) >> uint(d)
			}
			src := field[gw%words*ab:][:ab]
			planes := grid[gw/bitvec.Words*ab:][:len(src)]
			col := uint(gw) % bitvec.Words
			for i, v := range src {
				planes[i][col] |= v & mask
			}
		}
	}
}

// bitsAt returns the n ≤ 64 bits of the bit string words starting at bit
// at, the first in the least significant position.
func bitsAt(words []uint64, at, n int) uint64 {
	w, off := at/64, uint(at%64)
	v := words[w] >> off
	if off != 0 && int(off)+n > 64 {
		v |= words[w+1] << (64 - off)
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// slotRuns records the slots [base, base+slots) of a convolution group as
// runs of consecutive slots whose windows share an origin, appended to
// dst. Slots are ordered m-fastest, so a run is one output position's
// channels within the group, up to Cout slots, and each run's origin is
// decoded once.
func slotRuns(dst []slotRun, c *nn.Conv2D, out tensor.Shape, base, slots int) []slotRun {
	for slot := 0; slot < slots; {
		e, fw, m := decodeConv(base+slot, out)
		hi := min(slots, slot+out.C-m)
		dst = append(dst, slotRun{o: window{h: e*c.Stride - c.PadH, w: fw*c.Stride - c.PadW}, lo: slot, hi: hi})
		slot = hi
	}
	return dst
}

// checkActBits panics unless every byte of the convolution's input fits
// its staged width ab: the engine does not narrow activations
// (Conv2D.ActBits).
func checkActBits(c *nn.Conv2D, x *tensor.Quant, ab int) {
	if ab >= 8 {
		return
	}
	for i, v := range x.Data {
		if v>>uint(ab) != 0 {
			panic(fmt.Sprintf("core: %s input %#x at element %d exceeds ActBits=%d",
				c.LayerName, v, i, ab))
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// decodeConv converts a flat convolution index to (e, f, m), matching the
// reference executor's output order ((e·W + f)·C + m).
func decodeConv(idx int, out tensor.Shape) (e, fw, m int) {
	m = idx % out.C
	idx /= out.C
	fw = idx % out.W
	e = idx / out.W
	return e, fw, m
}

// pool executes a pooling layer in-array per §IV-D: window bytes stream
// one at a time into every output's lane; max pooling keeps a running
// maximum via subtract + MSB-masked selective copy (the sram.Max
// microcode), average pooling keeps a running 16-bit sum and finishes
// with an in-array divide (or a row-offset copy when the window is a
// power of two). Each 256-output group runs on its own array, in
// parallel across the worker pool.
func (f *funcExec) pool(p *nn.Pool, x *tensor.Quant) (*tensor.Quant, error) {
	placed := nn.Placed{Layer: p, In: x.Shape, Out: p.OutShape(x.Shape)}
	plan, err := mapping.PlanPool(f.sys.cfg.Mapping, placed)
	if err != nil {
		return nil, err
	}
	out := tensor.NewQuant(placed.Out, x.Scale)
	total := placed.Out.Elems()

	// Row map: input slot, accumulator, then divide operands/scratch.
	const (
		inRow   = 0
		accRow  = 8
		divRow  = 24 // 16-bit divisor
		quotRow = 40
		remRow  = 56 // n+1 rows
		scrRow  = 80 // n+2 rows for divide; 9 rows suffice for max
	)

	nGroups := (total + sram.BitLines - 1) / sram.BitLines
	return out, f.runGroups(nGroups, 1, func(g int, arrs []*sram.Array, _ *groupShare, sc *scratch) error {
		arr := arrs[0]
		base := g * sram.BitLines
		slots := min(sram.BitLines, total-base)
		col := sc.bytes
		origin := sc.origin[:slots]
		for slot := range origin {
			e, fw, ch := decodeConv(base+slot, placed.Out)
			origin[slot] = window{h: e*p.Stride - p.PadH, w: fw*p.Stride - p.PadW, ch: ch}
		}
		width := 8
		if p.Kind == nn.AvgPool {
			width = 16
		}
		arr.Zero(accRow, width, false)
		for wpos := 0; wpos < plan.Window; wpos++ {
			r, s := wpos/p.S, wpos%p.S
			clear(col)
			for slot, o := range origin {
				h, w := o.h+r, o.w+s
				if h >= 0 && h < x.Shape.H && w >= 0 && w < x.Shape.W {
					col[slot] = x.At(h, w, o.ch)
				}
			}
			bitvec.PackBytes(col, 8, sc.planes[:])
			arr.WritePlanes(inRow, 8, sc.planes[:], sram.BitLines)
			if p.Kind == nn.MaxPool {
				arr.Max(accRow, inRow, accRow, scrRow, 8)
			} else {
				// Zero-extend the byte into the quotient area (free at
				// this point) and accumulate at 16 bits.
				arr.Zero(quotRow, 16, false)
				arr.Copy(inRow, quotRow, 8, false)
				arr.AddTrunc(accRow, quotRow, accRow, 16)
			}
		}
		resultRow := accRow
		if p.Kind == nn.AvgPool {
			if plan.DivideShift >= 0 {
				arr.Copy(accRow+plan.DivideShift, quotRow, 8, false)
			} else {
				div := sc.lanes
				for i := range div {
					div[i] = uint64(plan.Window)
				}
				arr.WriteElements(divRow, 16, div)
				arr.Divide(accRow, divRow, quotRow, remRow, scrRow, 16)
			}
			resultRow = quotRow
		}
		read := sc.lanes[:slots]
		arr.ReadLanes(resultRow, 8, 0, 1, read)
		for slot, v := range read {
			out.Data[base+slot] = uint8(v)
		}
		return nil
	})
}

// residual executes a ResNet shortcut block: both paths run through the
// normal conv pipeline, the host realigns their scales (the same shared
// integers the reference uses), and the element-wise add itself runs
// in-array — 256 lanes of 8-bit adds per array, parallel across groups.
func (f *funcExec) residual(r *nn.Residual, x *tensor.Quant) (*tensor.Quant, error) {
	body, err := f.seq(r.Body, x)
	if err != nil {
		return nil, err
	}
	short, err := f.seq(r.Shortcut, x)
	if err != nil {
		return nil, err
	}
	qa, qb := nn.ResidualOperands(body, short)
	sums := make([]int64, len(qa))
	nGroups := (len(qa) + sram.BitLines - 1) / sram.BitLines
	err = f.runGroups(nGroups, 1, func(g int, arrs []*sram.Array, _ *groupShare, sc *scratch) error {
		arr := arrs[0]
		base := g * sram.BitLines
		slots := min(sram.BitLines, len(qa)-base)
		// Lanes past the slots stage zero, as the packer leaves them.
		bitvec.PackBytes(qa[base:base+slots], 8, sc.planes[:])
		arr.WritePlanes(0, 8, sc.planes[:], sram.BitLines)
		bitvec.PackBytes(qb[base:base+slots], 8, sc.planes[:])
		arr.WritePlanes(8, 8, sc.planes[:], sram.BitLines)
		arr.Add(0, 8, 16, 8)
		read := sc.lanes[:slots]
		arr.ReadLanes(16, 9, 0, 1, read)
		for s, v := range read {
			sums[base+s] = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return nn.ResidualCombine(r.LayerName, body, short, sums, f.tr), nil
}

// batchNorm executes §IV-D's batch-norm sequence in-array: zero-extend
// the input byte to 16 bits, multiply by the CPU's fixed-point Gamma
// scalar (16×16→32-bit in-array multiply), add the rounding constant,
// shift via a row-offset copy, add the per-channel Beta integers, ReLU by
// MSB mask; the min/max and requantization use the shared host scalars
// exactly as the convolutions do.
func (f *funcExec) batchNorm(b *nn.BatchNorm, x *tensor.Quant) (*tensor.Quant, error) {
	gamma, beta32 := nn.BatchNormScalars(b, x.Scale)
	total := x.Shape.Elems()
	accs := make([]int64, total)

	// Row map: q16 | gamma16 | prod32 | round32 | y32 | beta32.
	const (
		qRow     = 0
		gRow     = 16
		prodRow  = 32
		roundRow = 64
		yRow     = 96
		betaRow  = 128
	)
	sh := int(gamma.Shift)
	skipZero := f.sys.cfg.SkipZeroSlices
	nGroups := (total + sram.BitLines - 1) / sram.BitLines
	err := f.recordSkip(b.Name(), func() error {
		return f.runGroups(nGroups, 1, func(g int, arrs []*sram.Array, acct *groupShare, sc *scratch) error {
			arr := arrs[0]
			base := g * sram.BitLines
			slots := min(sram.BitLines, total-base)
			col := sc.lanes
			clear(col[slots:])
			for s := 0; s < slots; s++ {
				col[s] = uint64(x.Data[base+s])
			}
			arr.WriteElements(qRow, 16, col)
			for i := range col {
				col[i] = uint64(gamma.Mult)
			}
			arr.WriteElements(gRow, 16, col)
			// Gamma is the multiplier: the fixed-point scalar is uniform
			// across lanes, so every zero bit of gamma.Mult is a whole
			// skippable slice when zero-skipping is on.
			if skipZero {
				sk := arr.MultiplySkip(qRow, gRow, prodRow, 16)
				acct.skippedSlices += uint64(sk)
				acct.totalSlices += 16
				acct.skipSaved += uint64(sk) * (16 + 1)
			} else {
				arr.Multiply(qRow, gRow, prodRow, 16)
			}
			if sh > 0 {
				for i := range col {
					col[i] = 1 << (sh - 1)
				}
				arr.WriteElements(roundRow, 32, col)
				arr.AddTrunc(prodRow, roundRow, prodRow, 32)
			}
			// Shift = read the product from row offset sh; zero-pad the top.
			arr.Zero(yRow, 32, false)
			arr.Copy(prodRow+sh, yRow, 32-sh, false)
			// Per-channel Beta as two's-complement 32-bit adds.
			for s := 0; s < slots; s++ {
				col[s] = uint64(uint32(beta32[(base+s)%x.Shape.C]))
			}
			for s := slots; s < sram.BitLines; s++ {
				col[s] = 0
			}
			arr.WriteElements(betaRow, 32, col)
			arr.AddTrunc(yRow, betaRow, yRow, 32)
			if b.ReLU {
				arr.ReLU(yRow, 32)
			}
			read := col[:slots]
			arr.ReadLanes(yRow, 32, 0, 1, read)
			for s, v := range read {
				accs[base+s] = int64(int32(uint32(v)))
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return nn.FinishBatchNorm(b, x.Shape, x.Scale, beta32, accs, f.tr), nil
}

// operandIndex maps (lane, MAC step j) of one convolution to the filter
// window position and input channel it samples under the plan's layout:
// the plain per-channel window, the split-filter segments, or the packed
// 1×1 channels. Out-of-range (pos, ch) mean the lane is padding for that
// step and both operand bytes are zero.
func operandIndex(plan *mapping.ConvPlan, lane, j int) (pos, ch int) {
	switch {
	case plan.PackFactor > 1:
		return 0, lane*plan.PackFactor + j
	case plan.SplitFactor > 1:
		seg := lane % plan.SplitFactor
		return seg*plan.EffFilter + j, lane / plan.SplitFactor
	default:
		return j, lane
	}
}

// filterByte samples output channel m's weight at window position pos,
// input channel ch; zero outside the filter geometry.
func filterByte(c *nn.Conv2D, m, pos, ch int) uint8 {
	if pos >= c.R*c.S || ch >= c.Cin {
		return 0
	}
	return c.Filter.At(m, pos/c.S, pos%c.S, ch)
}

// inputByte samples the input activation under the window anchored at
// (h0, w0); zero outside the filter geometry or the (zero-padded) image.
func inputByte(c *nn.Conv2D, x *tensor.Quant, h0, w0, pos, ch int) uint8 {
	if pos >= c.R*c.S || ch >= c.Cin {
		return 0
	}
	h, wd := h0+pos/c.S, w0+pos%c.S
	if h < 0 || h >= x.Shape.H || wd < 0 || wd >= x.Shape.W {
		return 0
	}
	return x.At(h, wd, ch)
}

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V–§VI), plus ablation benches for the design choices of
// §IV (packing, bank latch, transpose gateway, batched output dump, bit
// width). Each benchmark regenerates its experiment through
// the simulator and reports the reproduced quantities as custom metrics,
// so `go test -bench=. -benchmem` prints the full reproduction next to
// its timing.
package neuralcache_test

import (
	"fmt"
	"testing"

	"neuralcache"
	"neuralcache/internal/core"
	"neuralcache/internal/energy"
	"neuralcache/internal/experiments"
	"neuralcache/internal/isa"
	"neuralcache/internal/nn"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
	"neuralcache/internal/transpose"
)

func newSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTableI regenerates the Inception v3 layer-parameter table.
func BenchmarkTableI(b *testing.B) {
	s := newSuite(b)
	var rows int
	for i := 0; i < b.N; i++ {
		rows = s.TableI().Rows()
	}
	if rows != 20 {
		b.Fatalf("TableI rows = %d, want 20", rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTableIII regenerates the energy/power comparison.
// Paper: CPU 9.137 J / 105.56 W, GPU 4.087 J / 112.87 W, NC 0.246 J /
// 52.92 W.
func BenchmarkTableIII(b *testing.B) {
	s := newSuite(b)
	var res experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = s.TableIII()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NCEnergyJ, "nc_J")
	b.ReportMetric(res.NCPowerW, "nc_W")
	b.ReportMetric(res.CPUEnergyJ/res.NCEnergyJ, "energy_vs_cpu_x")
	b.ReportMetric(res.GPUEnergyJ/res.NCEnergyJ, "energy_vs_gpu_x")
}

// BenchmarkTableIV regenerates the capacity-scaling table.
// Paper: 35 MB → 4.72 ms, 45 MB → 4.12 ms, 60 MB → 3.79 ms.
func BenchmarkTableIV(b *testing.B) {
	s := newSuite(b)
	var lats []float64
	for i := 0; i < b.N; i++ {
		var err error
		_, lats, err = s.TableIV()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lats[0]*1e3, "35MB_ms")
	b.ReportMetric(lats[1]*1e3, "45MB_ms")
	b.ReportMetric(lats[2]*1e3, "60MB_ms")
}

// BenchmarkFigure12 regenerates the area model.
// Paper: 7.5% per array, <2% of the die.
func BenchmarkFigure12(b *testing.B) {
	var a energy.AreaModel
	for i := 0; i < b.N; i++ {
		a = energy.XeonE5Area()
		_ = a.CacheOverheadMM2()
	}
	b.ReportMetric(a.ArrayOverheadFraction()*100, "array_overhead_pct")
	b.ReportMetric(a.DieOverheadFraction()*100, "die_overhead_pct")
}

// BenchmarkFigure13 regenerates the per-layer latency comparison.
func BenchmarkFigure13(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if t.Rows() != 20 {
			b.Fatalf("Figure13 rows = %d", t.Rows())
		}
	}
}

// BenchmarkFigure14 regenerates the latency breakdown.
// Paper: filter 46%, input 15%, MAC 20%, reduce 10%, quant 5%, output 4%.
func BenchmarkFigure14(b *testing.B) {
	s := newSuite(b)
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		var err error
		_, rep, err = s.Figure14()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Seconds.Fraction(core.PhaseFilterLoad)*100, "filter_pct")
	b.ReportMetric(rep.Seconds.Fraction(core.PhaseInputStream)*100, "input_pct")
	b.ReportMetric(rep.Seconds.Fraction(core.PhaseMAC)*100, "mac_pct")
	b.ReportMetric(rep.Seconds.Fraction(core.PhaseReduce)*100, "reduce_pct")
}

// BenchmarkFigure15 regenerates the total-latency comparison.
// Paper: 18.3× over CPU, 7.7× over GPU.
func BenchmarkFigure15(b *testing.B) {
	s := newSuite(b)
	var lats []float64
	for i := 0; i < b.N; i++ {
		var err error
		_, lats, err = s.Figure15()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lats[2]*1e3, "nc_ms")
	b.ReportMetric(lats[0]/lats[2], "speedup_vs_cpu_x")
	b.ReportMetric(lats[1]/lats[2], "speedup_vs_gpu_x")
}

// BenchmarkFigure16 regenerates the throughput-vs-batch curve.
// Paper: 604 inf/s at batch 256 (2.2× GPU, 12.4× CPU).
func BenchmarkFigure16(b *testing.B) {
	s := newSuite(b)
	var nc map[int]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, nc, err = s.Figure16()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nc[1], "batch1_infps")
	b.ReportMetric(nc[256], "batch256_infps")
}

// BenchmarkArithmeticCycles measures the stepped bit-serial microcode on a
// real simulated array (§III's primitives; the paper's closed forms are
// asserted in unit tests).
func BenchmarkArithmeticCycles(b *testing.B) {
	ops := []struct {
		name string
		op   func(a *sram.Array)
	}{
		{"Add8", func(a *sram.Array) { a.Add(0, 8, 16, 8) }},
		{"Mul8", func(a *sram.Array) { a.Multiply(0, 8, 32, 8) }},
		{"Div8", func(a *sram.Array) { a.Divide(0, 8, 64, 80, 100, 8) }},
		{"Reduce32x16", func(a *sram.Array) { a.Reduce(120, 160, 32, 16) }},
		{"MAC8", func(a *sram.Array) { a.MulAcc(0, 8, 200, 230, 8, 24) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			var a sram.Array
			vals := make([]uint64, sram.BitLines)
			for i := range vals {
				vals[i] = uint64(i%255) + 1
			}
			a.WriteElements(0, 8, vals)
			a.WriteElements(8, 8, vals)
			a.WriteElements(120, 20, vals)
			a.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.op(&a)
			}
			cycles := float64(a.Stats().ComputeCycles) / float64(b.N)
			b.ReportMetric(cycles, "array_cycles")
			b.ReportMetric(cycles*float64(b.N)*256/float64(b.N), "lane_ops")
		})
	}
}

// BenchmarkConv2bCaseStudy reproduces §VI-A's worked example.
// Paper: 43 serial iterations, 99.7% utilization, 0.0479 ms compute.
func BenchmarkConv2bCaseStudy(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.CaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		if t.Rows() != 4 {
			b.Fatal("case study incomplete")
		}
	}
}

// BenchmarkFunctionalSmallCNN measures a full bit-accurate in-cache
// inference on one slice. Its arrays are healthy, so they run the fused
// kernels; only fault-injected arrays step the microcode. A warm-up run
// fills the System's cache pool first, as in BenchmarkRunFunctional.
func BenchmarkFunctionalSmallCNN(b *testing.B) {
	cfg := neuralcache.DefaultConfig()
	cfg.Slices = 1
	sys, err := neuralcache.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := neuralcache.SmallCNN()
	m.InitWeights(1)
	h, w, c := m.InputShape()
	in := neuralcache.NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 7)
	}
	if _, err := sys.Run(m, in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *neuralcache.InferenceResult
	for i := 0; i < b.N; i++ {
		res, err = sys.Run(m, in)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.ComputeCycles), "array_cycles")
}

// BenchmarkRunFunctional measures a full bit-accurate in-cache inference
// at different worker-pool sizes. The outputs, traces and cycle stats are
// bit-identical across all of them (locked in by
// core.TestParallelGoldenEquivalence); only wall-clock time changes. On a
// multi-core host, workers=4 should run ≥ 2× faster than workers=1; on a
// single-core CI runner the sub-benchmarks merely document the knob. A
// warm-up run fills the System's cache pool first, so -benchmem reports
// the steady-state allocation even at -benchtime=1x.
func BenchmarkRunFunctional(b *testing.B) {
	m := neuralcache.SmallCNN()
	m.InitWeights(1)
	h, w, c := m.InputShape()
	in := neuralcache.NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 7)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := neuralcache.DefaultConfig()
			cfg.Slices = 1
			cfg.Workers = workers
			sys, err := neuralcache.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Run(m, in); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var res *neuralcache.InferenceResult
			for i := 0; i < b.N; i++ {
				res, err = sys.Run(m, in)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.ComputeCycles), "array_cycles")
		})
	}
}

// BenchmarkRunFunctionalSparse measures zero-slice skipping on the
// sparsity-induced net (SparseCNN: 4-bit weights, so half of every
// filter byte's multiplier bit-columns are zero in all 256 lanes). The
// dense and skip sub-benchmarks produce byte-identical outputs (locked
// in by core.TestSkipZeroSlicesGoldenEquivalence); skip must report
// strictly fewer array_cycles, and the skipped_slices metric documents
// how much of the schedule was elided. Each sub-benchmark warms its
// System's cache pool first, as in BenchmarkRunFunctional.
func BenchmarkRunFunctionalSparse(b *testing.B) {
	m := neuralcache.SparseCNN()
	m.InitWeights(1)
	h, w, c := m.InputShape()
	in := neuralcache.NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 7)
	}
	for _, mode := range []struct {
		name string
		skip bool
	}{{"dense", false}, {"skip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := neuralcache.DefaultConfig()
			cfg.Slices = 1
			cfg.SkipZeroSlices = mode.skip
			sys, err := neuralcache.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Run(m, in); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var res *neuralcache.InferenceResult
			for i := 0; i < b.N; i++ {
				res, err = sys.Run(m, in)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.ComputeCycles), "array_cycles")
			if mode.skip {
				b.ReportMetric(float64(res.SkippedSlices), "skipped_slices")
				b.ReportMetric(float64(res.SkipCyclesSaved), "cycles_saved")
			}
		})
	}
}

// BenchmarkRunFunctionalParallel measures the multi-array path at the
// default worker count (GOMAXPROCS): WideCNN's 512-lane convolution
// spills across array pairs with interconnect-routed partial-sum reduce.
// A warm-up run fills the System's cache pool first, as in
// BenchmarkRunFunctional.
func BenchmarkRunFunctionalParallel(b *testing.B) {
	cfg := neuralcache.DefaultConfig()
	cfg.Slices = 1
	sys, err := neuralcache.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := neuralcache.WideCNN()
	m.InitWeights(11)
	h, w, c := m.InputShape()
	in := neuralcache.NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 3)
	}
	if _, err := sys.Run(m, in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *neuralcache.InferenceResult
	for i := 0; i < b.N; i++ {
		res, err = sys.Run(m, in)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.ComputeCycles), "array_cycles")
	b.ReportMetric(float64(res.FabricBusCycles), "fabric_cycles")
}

// BenchmarkResNet18Estimate prices the extension model: ResNet-18 with
// in-cache residual adds (a result beyond the paper's evaluation).
func BenchmarkResNet18Estimate(b *testing.B) {
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	net := nn.ResNet18()
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		rep, err = sys.Estimate(net, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Latency()*1e3, "latency_ms")
	b.ReportMetric(rep.AveragePowerWatts(), "power_W")
	b.ReportMetric(rep.Throughput(), "infps")
}

// --- Ablations of the §IV design choices ---

func estimateWith(b *testing.B, mutate func(*core.Config)) float64 {
	b.Helper()
	cfg := core.DefaultConfig()
	mutate(&cfg)
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sys.Estimate(nn.InceptionV3(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Latency()
}

// BenchmarkAblationFilterPacking quantifies §IV-A's 1×1 filter packing
// two ways. First, the guarantee: without packing, Inception v3's
// 768-channel 1×1 convolutions need 1024 lanes and no longer fit a
// sense-amp-sharing array pair — the whole model fails to map (the paper:
// "by packing the filters ... it is guaranteed to fit within 2 arrays").
// Second, the speed: on a 1×1 layer that still maps unpacked
// (Conv2D_3b_1x1, C=64), packing shrinks lanes per convolution 8× and the
// reduction tree by 3 levels.
func BenchmarkAblationFilterPacking(b *testing.B) {
	oneByOne := &nn.Network{
		Name:  "conv3b_only",
		Input: nn.InceptionV3().Layers[4].(*nn.Conv2D).OutShape(tensorShape(73, 73, 64)),
	}
	// Rebuild just the 3b layer on its natural input.
	oneByOne.Input = tensorShape(73, 73, 64)
	oneByOne.Layers = []nn.Layer{&nn.Conv2D{
		LayerName: "Conv2D_3b_1x1", LayerGroup: "Conv2D_3b_1x1",
		R: 1, S: 1, Cin: 64, Cout: 80, Stride: 1, ReLU: true,
	}}

	var packed, unpacked float64
	var fullModelFails bool
	for i := 0; i < b.N; i++ {
		packed = estimateNetWith(b, oneByOne, func(c *core.Config) {})
		unpacked = estimateNetWith(b, oneByOne, func(c *core.Config) { c.Mapping.PackingEnabled = false })
		cfg := core.DefaultConfig()
		cfg.Mapping.PackingEnabled = false
		sys, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, err = sys.Estimate(nn.InceptionV3(), 1)
		fullModelFails = err != nil
	}
	b.ReportMetric(packed*1e6, "packed_us")
	b.ReportMetric(unpacked*1e6, "unpacked_us")
	b.ReportMetric(unpacked/packed, "speedup_x")
	if !fullModelFails {
		b.Fatal("Inception v3 mapped without packing; §IV-A says wide 1x1 layers must not fit")
	}
	if unpacked <= packed {
		b.Fatalf("packing did not help on the 1x1 layer: %.3f vs %.3f us", packed*1e6, unpacked*1e6)
	}
}

func tensorShape(h, w, c int) (s tensor.Shape) {
	s.H, s.W, s.C = h, w, c
	return s
}

func estimateNetWith(b *testing.B, net *nn.Network, mutate func(*core.Config)) float64 {
	b.Helper()
	cfg := core.DefaultConfig()
	mutate(&cfg)
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sys.Estimate(net, 1)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Latency()
}

// BenchmarkAblationBankLatch compares input streaming with and without
// the 64-bit bank latch (§IV-C halves replicated input transfers).
func BenchmarkAblationBankLatch(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = estimateWith(b, func(c *core.Config) {})
		without = estimateWith(b, func(c *core.Config) { c.Fabric.BankLatch = false })
	}
	b.ReportMetric(with*1e3, "latch_ms")
	b.ReportMetric(without*1e3, "nolatch_ms")
	if without <= with {
		b.Fatalf("bank latch did not help: %.3f vs %.3f ms", with*1e3, without*1e3)
	}
}

// BenchmarkAblationTranspose compares the hardware TMU gateway against
// software (SIMD shuffle/pack) transposition for one inference's filter
// volume (§III-F).
func BenchmarkAblationTranspose(b *testing.B) {
	filterBytes := nn.InceptionV3().FilterBytes()
	var tmuCycles, swCycles uint64
	for i := 0; i < b.N; i++ {
		tmuCycles = transpose.GatewayCycles(filterBytes)
		swCycles = uint64(filterBytes/1024+1) * transpose.SoftwareTransposeCyclesPerKB
	}
	b.ReportMetric(float64(tmuCycles), "tmu_cycles")
	b.ReportMetric(float64(swCycles), "software_cycles")
	b.ReportMetric(float64(swCycles)/float64(tmuCycles), "tmu_advantage_x")
}

// BenchmarkAblationBatchDump quantifies the §IV-E reserved-way spill: the
// share of batch latency spent dumping/reloading outputs through DRAM.
func BenchmarkAblationBatchDump(b *testing.B) {
	s := newSuite(b)
	for _, batch := range []int{1, 16, 256} {
		b.Run(byteName(batch), func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = s.Sys.Estimate(s.Net, batch)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Seconds[core.PhaseDRAMDump]*1e3, "dump_ms")
			b.ReportMetric(rep.Seconds.Fraction(core.PhaseDRAMDump)*100, "dump_pct")
		})
	}
}

func byteName(batch int) string {
	switch batch {
	case 1:
		return "batch1"
	case 16:
		return "batch16"
	default:
		return "batch256"
	}
}

// BenchmarkAblationBitWidth sweeps the operand precision (the paper's
// flexible bit-width argument, §III-A): latency scales superlinearly with
// width because multiply is quadratic in n.
func BenchmarkAblationBitWidth(b *testing.B) {
	for _, bits := range []int{4, 8, 16} {
		bits := bits
		b.Run(map[int]string{4: "4bit", 8: "8bit", 16: "16bit"}[bits], func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = estimateWith(b, func(c *core.Config) {
					c.Cost.ActBits = bits
					c.Cost.AccBits = 3 * bits
				})
			}
			b.ReportMetric(lat*1e3, "latency_ms")
			b.ReportMetric(float64(isa.ChargedCycles(isa.Instruction{
				Op: isa.OpMulAcc, Width: bits, AccWidth: 3 * bits,
			})), "mac_cycles")
		})
	}
}

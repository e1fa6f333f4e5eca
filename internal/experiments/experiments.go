// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–§VI) from the simulator, pairing each reproduced value
// with the paper's published one. cmd/nctables renders them and
// bench_test.go reports them as benchmark metrics.
package experiments

import (
	"fmt"

	"neuralcache/internal/baseline"
	"neuralcache/internal/core"
	"neuralcache/internal/energy"
	"neuralcache/internal/isa"
	"neuralcache/internal/nn"
	"neuralcache/internal/report"
	"neuralcache/internal/sram"
)

// Suite holds the shared inputs of all experiments.
type Suite struct {
	Net *nn.Network
	Sys *core.System
	CPU baseline.Device
	GPU baseline.Device
}

// NewSuite builds the default paper configuration.
func NewSuite() (*Suite, error) {
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Suite{
		Net: nn.InceptionV3(),
		Sys: sys,
		CPU: baseline.XeonE5(),
		GPU: baseline.TitanXp(),
	}, nil
}

// TableI renders the Inception v3 layer parameters.
func (s *Suite) TableI() *report.Table {
	t := report.NewTable("Table I — Parameters of the Layers of Inception V3",
		"Layer", "H", "RxS", "E", "C", "M", "Conv", "Filter/MB", "Input/MB")
	for _, r := range nn.TableI(s.Net) {
		t.Add(r.Name, fmt.Sprint(r.H), report.Range(r.RSMin, r.RSMax),
			fmt.Sprint(r.E), report.Range(r.CMin, r.CMax), report.Range(r.MMin, r.MMax),
			fmt.Sprint(r.Convs), report.MB(r.FilterBytes), report.MB(r.InputBytes))
	}
	return t
}

// TableII renders the baseline configuration.
func (s *Suite) TableII() *report.Table {
	t := report.NewTable("Table II — Baseline CPU & GPU Configuration", "Device", "Description")
	t.Add(s.CPU.Name, s.CPU.Describe())
	t.Add(s.GPU.Name, s.GPU.Describe())
	return t
}

// TableIIIResult carries the energy/power comparison.
type TableIIIResult struct {
	NCEnergyJ, NCPowerW   float64
	CPUEnergyJ, CPUPowerW float64
	GPUEnergyJ, GPUPowerW float64
}

// TableIII computes the energy and average power comparison.
func (s *Suite) TableIII() (*report.Table, TableIIIResult, error) {
	rep, err := s.Sys.Estimate(s.Net, 1)
	if err != nil {
		return nil, TableIIIResult{}, err
	}
	res := TableIIIResult{
		NCEnergyJ: rep.TotalEnergyJ(), NCPowerW: rep.AveragePowerWatts(),
		CPUEnergyJ: s.CPU.EnergyPerInferenceJ(), CPUPowerW: s.CPU.MeasuredPowerW,
		GPUEnergyJ: s.GPU.EnergyPerInferenceJ(), GPUPowerW: s.GPU.MeasuredPowerW,
	}
	t := report.NewTable("Table III — Energy Consumption and Average Power",
		"Metric", "CPU", "GPU", "Neural Cache", "Paper (CPU/GPU/NC)")
	t.Add("Total Energy / J",
		fmt.Sprintf("%.3f", res.CPUEnergyJ), fmt.Sprintf("%.3f", res.GPUEnergyJ),
		fmt.Sprintf("%.3f", res.NCEnergyJ), "9.137 / 4.087 / 0.246")
	t.Add("Average Power / W",
		fmt.Sprintf("%.2f", res.CPUPowerW), fmt.Sprintf("%.2f", res.GPUPowerW),
		fmt.Sprintf("%.2f", res.NCPowerW), "105.56 / 112.87 / 52.92")
	return t, res, nil
}

// TableIV computes latency versus cache capacity.
func (s *Suite) TableIV() (*report.Table, []float64, error) {
	t := report.NewTable("Table IV — Scaling with Cache Capacity (Batch Size = 1)",
		"Cache Capacity", "Slices", "Inference Latency", "Paper")
	paper := map[int]string{14: "4.72 ms", 18: "4.12 ms", 24: "3.79 ms"}
	var lats []float64
	for _, slices := range []int{14, 18, 24} {
		sys, err := core.New(core.DefaultConfig().WithSlices(slices))
		if err != nil {
			return nil, nil, err
		}
		rep, err := sys.Estimate(s.Net, 1)
		if err != nil {
			return nil, nil, err
		}
		lats = append(lats, rep.Latency())
		t.Add(fmt.Sprintf("%d MB", sys.Config().Geometry.CapacityBytes()>>20),
			fmt.Sprint(slices), report.MS(rep.Latency())+" ms", paper[slices])
	}
	return t, lats, nil
}

// Figure12 renders the area model.
func (s *Suite) Figure12() *report.Table {
	a := energy.XeonE5Area()
	t := report.NewTable("Figure 12 — SRAM Array Layout / Area Overhead", "Quantity", "Value", "Paper")
	t.Add("Baseline 8KB array", fmt.Sprintf("%.4f mm²", a.BaseArrayMM2()), "248×108 µm core + periphery")
	t.Add("Compute-enabled array", fmt.Sprintf("%.4f mm²", a.ComputeArrayMM2()), "+7 µm logic height")
	t.Add("Per-array overhead", report.Pct(a.ArrayOverheadFraction()), "7.5%")
	t.Add("Whole-cache added silicon", fmt.Sprintf("%.2f mm²", a.CacheOverheadMM2()), "—")
	t.Add("Die overhead", report.Pct(a.DieOverheadFraction()), "<2%")
	return t
}

// Figure13 renders per-layer latency for CPU, GPU and Neural Cache.
func (s *Suite) Figure13() (*report.Table, error) {
	rep, err := s.Sys.Estimate(s.Net, 1)
	if err != nil {
		return nil, err
	}
	cpu := s.CPU.LayerSeconds(s.Net)
	gpu := s.GPU.LayerSeconds(s.Net)
	nc := rep.LayerSeconds()
	t := report.NewTable("Figure 13 — Inference Latency by Layer (ms)",
		"Layer", "CPU - Xeon E5", "GPU - Titan Xp", "Neural Cache")
	for i, l := range s.Net.Layers {
		t.Add(l.Name(), report.MS(cpu[i]), report.MS(gpu[i]), report.MS(nc[i]))
	}
	return t, nil
}

// Figure14 renders the Neural Cache latency breakdown.
func (s *Suite) Figure14() (*report.Table, *core.Report, error) {
	rep, err := s.Sys.Estimate(s.Net, 1)
	if err != nil {
		return nil, nil, err
	}
	paper := map[core.Phase]string{
		core.PhaseFilterLoad:  "46%",
		core.PhaseInputStream: "15%",
		core.PhaseMAC:         "20%",
		core.PhaseReduce:      "10%",
		core.PhaseQuant:       "5%",
		core.PhasePool:        "0.04%",
		core.PhaseOutput:      "4%",
		core.PhaseDRAMDump:    "—",
	}
	t := report.NewTable("Figure 14 — Inference Latency Breakdown (batch 1)",
		"Phase", "Time/ms", "Share", "Paper")
	for _, p := range core.Phases() {
		t.Add(p.String(), report.MS(rep.Seconds[p]), report.Pct(rep.Seconds.Fraction(p)), paper[p])
	}
	t.Add("total", report.MS(rep.Latency()), "100%", "4.72 ms")
	return t, rep, nil
}

// Figure15 renders the total latency comparison.
func (s *Suite) Figure15() (*report.Table, []float64, error) {
	rep, err := s.Sys.Estimate(s.Net, 1)
	if err != nil {
		return nil, nil, err
	}
	lats := []float64{s.CPU.TotalSeconds(), s.GPU.TotalSeconds(), rep.Latency()}
	t := report.NewTable("Figure 15 — Total Latency on Inception v3 Inference",
		"Device", "Latency/ms", "Speedup over device", "Paper speedup")
	t.Add(s.CPU.Name, report.MS(lats[0]), fmt.Sprintf("%.1fx", lats[0]/lats[2]), "18.3x")
	t.Add(s.GPU.Name, report.MS(lats[1]), fmt.Sprintf("%.1fx", lats[1]/lats[2]), "7.7x")
	t.Add("Neural Cache", report.MS(lats[2]), "1.0x", "1.0x (4.72 ms)")
	return t, lats, nil
}

// Figure16 renders throughput versus batch size.
func (s *Suite) Figure16() (*report.Table, map[int]float64, error) {
	t := report.NewTable("Figure 16 — Throughput with Varying Batch Sizes (inferences/s)",
		"Batch", "CPU - Xeon E5", "GPU - Titan Xp", "Neural Cache")
	nc := map[int]float64{}
	for _, b := range []int{1, 4, 16, 64, 256} {
		rep, err := s.Sys.Estimate(s.Net, b)
		if err != nil {
			return nil, nil, err
		}
		nc[b] = rep.Throughput()
		t.Add(fmt.Sprint(b),
			fmt.Sprintf("%.1f", s.CPU.Throughput(b)),
			fmt.Sprintf("%.1f", s.GPU.Throughput(b)),
			fmt.Sprintf("%.1f", nc[b]))
	}
	return t, nc, nil
}

// Micro renders the §III arithmetic-primitive results and §I/§VII
// capacity headlines.
func (s *Suite) Micro() *report.Table {
	t := report.NewTable("§III Micro-results — Bit-serial Arithmetic and Capacity",
		"Quantity", "Reproduced", "Paper")
	add8 := isa.ChargedCycles(isa.Instruction{Op: isa.OpAdd, Width: 8})
	mul8 := isa.ChargedCycles(isa.Instruction{Op: isa.OpMultiply, Width: 8})
	div8 := isa.ChargedCycles(isa.Instruction{Op: isa.OpDivide, Width: 8})
	mac := isa.ChargedCycles(isa.Instruction{Op: isa.OpMulAcc, Width: 8, AccWidth: 24})
	var emergentMul uint64
	{
		var a sram.Array
		a.Multiply(0, 8, 16, 8)
		emergentMul = a.Stats().ComputeCycles
	}
	geo := s.Sys.Config().Geometry
	cost := s.Sys.Config().Cost
	tops := float64(geo.Lanes()) * cost.FreqGHz * 1e9 / float64(cost.MACCycles()) * 2 / 1e12
	t.Add("8-bit add cycles", fmt.Sprint(add8), "n+1 = 9")
	t.Add("8-bit multiply cycles (charged)", fmt.Sprint(mul8), "n²+5n−2 = 102")
	t.Add("8-bit multiply cycles (stepped microcode)", fmt.Sprint(emergentMul), "n²+4n = 96 as built")
	t.Add("8-bit divide cycles (charged)", fmt.Sprint(div8), "1.5n²+5.5n = 140")
	t.Add("8-bit MAC cycles", fmt.Sprint(mac), "236 (§VI-A)")
	t.Add("32-channel reduction cycles", fmt.Sprint(5*isa.ChargedCycles(isa.Instruction{Op: isa.OpReduceStep, Width: 32})), "660 (§VI-A)")
	t.Add("Bit-serial ALU slots", fmt.Sprint(geo.Lanes()), "1,146,880")
	t.Add("Compute SRAM arrays", fmt.Sprint(geo.TotalArrays()), "4480")
	t.Add("Peak 8-bit TOP/s", fmt.Sprintf("%.1f", tops), "28 (§VII)")
	return t
}

// CaseStudy renders the §VI-A Conv2D_2b_3x3 worked example.
func (s *Suite) CaseStudy() (*report.Table, error) {
	rep, err := s.Sys.Estimate(s.Net, 1)
	if err != nil {
		return nil, err
	}
	var layer *core.LayerReport
	for i := range rep.Layers {
		if rep.Layers[i].Name == "Conv2D_2b_3x3" {
			layer = &rep.Layers[i]
		}
	}
	if layer == nil {
		return nil, fmt.Errorf("experiments: Conv2D_2b_3x3 not found")
	}
	t := report.NewTable("§VI-A Case Study — Conv2D_2b_3x3", "Quantity", "Reproduced", "Paper")
	t.Add("Total convolutions", fmt.Sprint(layer.Convs), "≈1.4 million")
	t.Add("Serial iterations", fmt.Sprint(layer.SerialIters), "43")
	t.Add("Array utilization", report.Pct(layer.Utilization), "99.7%")
	t.Add("MAC+reduce compute time",
		report.MS(layer.Seconds[core.PhaseMAC]+layer.Seconds[core.PhaseReduce])+" ms", "0.0479 ms")
	return t, nil
}

package core

import (
	"math"
	"testing"

	"neuralcache/internal/nn"
)

func inceptionSystem(t *testing.T) (*System, *nn.Network) {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys, nn.InceptionV3()
}

// TestBatch1LatencyNearPaper checks the headline Figure 15 number: the
// paper reports 4.72 ms for batch-1 Inception v3 on the 35 MB cache; the
// model must land within 10%.
func TestBatch1LatencyNearPaper(t *testing.T) {
	sys, net := inceptionSystem(t)
	rep, err := sys.Estimate(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := rep.Latency() * 1e3
	if ms < 4.25 || ms > 5.2 {
		t.Errorf("batch-1 latency %.3f ms, paper reports 4.72 ms", ms)
	}
	if rep.BatchSize != 1 || rep.Sockets != 2 {
		t.Errorf("report metadata %+v", rep)
	}
	if len(rep.Layers) != 20 {
		t.Errorf("%d layer reports, want 20", len(rep.Layers))
	}
}

// TestBreakdownMatchesFigure14 checks the phase ordering and approximate
// shares of Figure 14: filter loading ≈46%, input streaming ≈15%, MACs
// ≈20%, reduction ≈10%, quantization ≈5%, output ≈4%, pooling ≈0.04%.
// Our quantization share runs higher (≈11%) because we model the
// zero-point correction pass the paper's accounting omits.
func TestBreakdownMatchesFigure14(t *testing.T) {
	sys, net := inceptionSystem(t)
	rep, err := sys.Estimate(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		phase    Phase
		lo, hi   float64
		paperPct float64
	}{
		{PhaseFilterLoad, 0.40, 0.50, 46},
		{PhaseInputStream, 0.12, 0.20, 15},
		{PhaseMAC, 0.13, 0.24, 20},
		{PhaseReduce, 0.06, 0.13, 10},
		{PhaseQuant, 0.03, 0.14, 5},
		{PhaseOutput, 0.02, 0.06, 4},
		{PhasePool, 0, 0.01, 0.04},
	}
	for _, c := range checks {
		got := rep.Seconds.Fraction(c.phase)
		if got < c.lo || got > c.hi {
			t.Errorf("%v share = %.1f%%, want within [%.0f%%, %.0f%%] (paper: %.2f%%)",
				c.phase, got*100, c.lo*100, c.hi*100, c.paperPct)
		}
	}
	// Filter loading must dominate, as the paper stresses.
	if rep.TopPhases()[0] != PhaseFilterLoad {
		t.Errorf("dominant phase = %v, want filter-load", rep.TopPhases()[0])
	}
}

// TestEnergyNearTableIII: the paper reports 0.246 J and 52.92 W for a
// batch-1 inference (package domain, DRAM excluded).
func TestEnergyNearTableIII(t *testing.T) {
	sys, net := inceptionSystem(t)
	rep, err := sys.Estimate(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j := rep.TotalEnergyJ(); j < 0.18 || j > 0.33 {
		t.Errorf("energy %.3f J, paper reports 0.246 J", j)
	}
	if w := rep.AveragePowerWatts(); w < 40 || w > 75 {
		t.Errorf("power %.1f W, paper reports 52.92 W", w)
	}
	// DRAM energy is tracked but excluded by default.
	if rep.DRAMEnergyJ <= 0 {
		t.Error("DRAM energy not tracked")
	}
	withDRAM := DefaultConfig()
	withDRAM.IncludeDRAMEnergy = true
	sys2, _ := New(withDRAM)
	rep2, _ := sys2.Estimate(net, 1)
	if rep2.TotalEnergyJ() <= rep.TotalEnergyJ() {
		t.Error("IncludeDRAMEnergy did not increase the total")
	}
}

// TestCapacityScalingMatchesTableIV: 35→45→60 MB must show the paper's
// diminishing-returns curve (4.72 → 4.12 → 3.79 ms; ratios 1 : 0.87 :
// 0.80), because filter loading does not scale with slices.
func TestCapacityScalingMatchesTableIV(t *testing.T) {
	net := nn.InceptionV3()
	var lat [3]float64
	for i, slices := range []int{14, 18, 24} {
		sys, err := New(DefaultConfig().WithSlices(slices))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Estimate(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		lat[i] = rep.Latency()
	}
	if !(lat[0] > lat[1] && lat[1] > lat[2]) {
		t.Fatalf("latencies not monotonically improving: %v", lat)
	}
	r45 := lat[1] / lat[0]
	r60 := lat[2] / lat[0]
	if math.Abs(r45-0.873) > 0.05 {
		t.Errorf("45 MB ratio %.3f, paper 0.873", r45)
	}
	if math.Abs(r60-0.803) > 0.05 {
		t.Errorf("60 MB ratio %.3f, paper 0.803", r60)
	}
}

// TestBatchingMatchesFigure16: throughput rises with batch size as filter
// loading amortizes, then plateaus (paper: 604 inf/s at batch 256 on the
// dual-socket node; GPU plateaus at ≈275).
func TestBatchingMatchesFigure16(t *testing.T) {
	sys, net := inceptionSystem(t)
	var prev float64
	var thr []float64
	for _, b := range []int{1, 4, 16, 64, 256} {
		rep, err := sys.Estimate(net, b)
		if err != nil {
			t.Fatal(err)
		}
		thr = append(thr, rep.Throughput())
		if rep.Latency() <= prev {
			t.Errorf("batch %d latency %.3f not larger than previous %.3f", b, rep.Latency(), prev)
		}
		prev = rep.Latency()
	}
	if thr[0] < 350 || thr[0] > 480 {
		t.Errorf("batch-1 throughput %.0f inf/s, want ≈420", thr[0])
	}
	final := thr[len(thr)-1]
	if final < 520 || final > 700 {
		t.Errorf("batch-256 throughput %.0f inf/s, paper reports 604", final)
	}
	// Plateau: the last doubling gains little.
	if gain := thr[4] / thr[3]; gain > 1.1 {
		t.Errorf("no plateau: batch 64→256 gains %.2f×", gain)
	}
	// The first five layers' outputs overflow the reserved ways when
	// batched (§IV-E): dump time must appear.
	rep, _ := sys.Estimate(net, 16)
	if rep.Seconds[PhaseDRAMDump] <= 0 {
		t.Error("no DRAM dump time at batch 16")
	}
	rep1, _ := sys.Estimate(net, 1)
	if rep1.Seconds[PhaseDRAMDump] != 0 {
		t.Error("unexpected DRAM dump at batch 1")
	}
}

// TestConv2bLayerCaseStudy: §VI-A's worked example — the layer's
// convolutions take 0.0479 ms of MAC+reduce compute at 2.5 GHz.
func TestConv2bLayerCaseStudy(t *testing.T) {
	sys, net := inceptionSystem(t)
	rep, err := sys.Estimate(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	var layer *LayerReport
	for i := range rep.Layers {
		if rep.Layers[i].Name == "Conv2D_2b_3x3" {
			layer = &rep.Layers[i]
		}
	}
	if layer == nil {
		t.Fatal("no Conv2D_2b_3x3 layer report")
	}
	computeMS := (layer.Seconds[PhaseMAC] + layer.Seconds[PhaseReduce]) * 1e3
	if math.Abs(computeMS-0.0479) > 0.005 {
		t.Errorf("2b MAC+reduce = %.4f ms, paper reports 0.0479 ms", computeMS)
	}
	if layer.SerialIters != 43 {
		t.Errorf("2b serial iterations = %d, want 43", layer.SerialIters)
	}
	if math.Abs(layer.Utilization-0.997) > 0.001 {
		t.Errorf("2b utilization = %.4f, want 0.997", layer.Utilization)
	}
}

func TestEstimateRejectsBadInput(t *testing.T) {
	sys, net := inceptionSystem(t)
	if _, err := sys.Estimate(net, 0); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := sys.Estimate(net, -3); err == nil {
		t.Error("negative batch accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Sockets = 0
	if _, err := New(bad); err == nil {
		t.Error("0 sockets accepted")
	}
	bad = DefaultConfig()
	bad.Fabric.Slices = 7
	if _, err := New(bad); err == nil {
		t.Error("slice mismatch accepted")
	}
	bad = DefaultConfig()
	bad.InputMulticastFactor = 0.5
	if _, err := New(bad); err == nil {
		t.Error("sub-1 multicast factor accepted")
	}
}

// TestSmallNetworksEstimate ensures the model handles partial-occupancy
// tiny networks.
func TestSmallNetworksEstimate(t *testing.T) {
	sys, _ := New(DefaultConfig())
	for _, net := range []*nn.Network{nn.SmallCNN(), nn.BranchyCNN()} {
		rep, err := sys.Estimate(net, 1)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		if rep.Latency() <= 0 {
			t.Errorf("%s: non-positive latency", net.Name)
		}
		// A tiny network must be much faster than Inception v3.
		if rep.Latency() > 1e-3 {
			t.Errorf("%s: latency %.3f ms suspiciously high", net.Name, rep.Latency()*1e3)
		}
	}
}

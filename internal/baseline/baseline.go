// Package baseline models the CPU and GPU comparison points of the
// paper's evaluation (Table II, Figures 13/15/16, Table III): a
// dual-socket Intel Xeon E5-2697 v3 and an Nvidia Titan Xp running
// TensorFlow Inception v3 inference.
//
// The paper *measured* these baselines; we have neither testbed, so this
// package is an analytical substitution: a per-layer
// roofline model (compute-bound vs memory-bound) whose global efficiency
// is calibrated so the batch-1 total equals the paper's measurement, plus
// a saturating batching curve anchored at the paper's measured batch-1
// and peak throughputs. Per-layer *shape* comes from the roofline;
// absolute totals come from the calibration anchors.
package baseline

import (
	"fmt"

	"neuralcache/internal/nn"
)

// Device is one baseline processor.
type Device struct {
	Name    string
	Process string // technology node, for Table II
	Cores   string // core/thread description, for Table II
	Freq    string
	TDPW    float64
	CacheMB string
	Memory  string

	PeakFLOPs float64 // dense FP32 FLOP/s across the node
	MemBW     float64 // bytes/s across the node

	// Calibration anchors derived from the paper's reported numbers.
	MeasuredTotalSec float64 // batch-1 Inception v3 latency
	MeasuredPowerW   float64 // average power during inference
	MaxThroughput    float64 // batching plateau, inferences/s
	Batch1Throughput float64 // measured throughput at batch 1
}

// XeonE5 returns the dual-socket Intel Xeon E5-2697 v3 node. Table III
// gives 9.137 J at 105.56 W, implying the 86.6 ms batch-1 latency; the
// paper's 12.4× throughput ratio against Neural Cache's 604 inf/s gives
// the 48.7 inf/s plateau.
func XeonE5() Device {
	return Device{
		Name:    "CPU - Xeon E5",
		Process: "22 nm",
		Cores:   "14/28 per socket, dual socket",
		Freq:    "2.6 GHz",
		TDPW:    145,
		CacheMB: "32 KB i-L1 + 32 KB d-L1 per core, 256 KB L2 per core, 35 MB shared L3",
		Memory:  "64 GB DDR4",

		// 14 cores × 2.6 GHz × 32 FLOP/cycle (2× 8-wide AVX2 FMA) × 2 sockets.
		PeakFLOPs: 14 * 2.6e9 * 32 * 2,
		MemBW:     2 * 68e9,

		MeasuredTotalSec: 0.08656,
		MeasuredPowerW:   105.56,
		MaxThroughput:    48.7,
		Batch1Throughput: 2 * 1000 / 86.56,
	}
}

// TitanXp returns the Nvidia Titan Xp. Table III gives 4.087 J at
// 112.87 W, implying 36.2 ms batch-1 latency; the 2.2× ratio against 604
// inf/s gives the 274.5 inf/s plateau.
func TitanXp() Device {
	return Device{
		Name:    "GPU - Titan Xp",
		Process: "16 nm",
		Cores:   "3840 CUDA cores",
		Freq:    "1.6 GHz",
		TDPW:    250,
		CacheMB: "3 MB shared L2",
		Memory:  "12 GB GDDR5X",

		PeakFLOPs: 3840 * 1.6e9 * 2,
		MemBW:     547.6e9,

		MeasuredTotalSec: 0.03621,
		MeasuredPowerW:   112.87,
		MaxThroughput:    274.5,
		Batch1Throughput: 1000 / 36.21,
	}
}

// LayerSeconds returns per-top-level-layer latencies for Figure 13: the
// per-layer roofline shape normalized so the total equals the calibrated
// batch-1 measurement.
func (d Device) LayerSeconds(net *nn.Network) []float64 {
	rows := nn.TableI(net)
	placed := net.Flatten()
	raw := make([]float64, len(net.Layers))
	for gi := range net.Layers {
		var flops float64
		for _, p := range placed {
			if p.GroupIdx != gi {
				continue
			}
			if c := p.Conv(); c != nil {
				flops += 2 * float64(p.Out.Elems()) * float64(c.R*c.S*c.Cin)
			}
		}
		bytes := float64(rows[gi].InputBytes+rows[gi].FilterBytes) * 4 // FP32 traffic
		bytes += float64(rows[gi].Convs) * 4
		tc := flops / d.PeakFLOPs
		tm := bytes / d.MemBW
		raw[gi] = tc
		if tm > raw[gi] {
			raw[gi] = tm
		}
	}
	var sum float64
	for _, v := range raw {
		sum += v
	}
	if sum == 0 {
		return raw
	}
	scale := d.MeasuredTotalSec / sum
	for i := range raw {
		raw[i] *= scale
	}
	return raw
}

// TotalSeconds returns the batch-1 latency (the calibration anchor).
func (d Device) TotalSeconds() float64 { return d.MeasuredTotalSec }

// Throughput returns inferences/second at the given batch size: a
// saturating curve through the measured batch-1 and plateau points,
// thr(N) = Max · N / (N + k) with k fixed by the batch-1 anchor.
func (d Device) Throughput(batch int) float64 {
	if batch <= 0 {
		return 0
	}
	k := d.MaxThroughput/d.Batch1Throughput - 1
	n := float64(batch)
	return d.MaxThroughput * n / (n + k)
}

// EnergyPerInferenceJ returns the batch-1 package energy (Table III).
func (d Device) EnergyPerInferenceJ() float64 {
	return d.MeasuredPowerW * d.MeasuredTotalSec
}

// String summarizes the device for Table II.
func (d Device) String() string {
	return fmt.Sprintf("%s: %s", d.Name, d.Describe())
}

// Describe summarizes the device without its name.
func (d Device) Describe() string {
	return fmt.Sprintf("%s, %s, %s, TDP %.0f W, cache %s, %s",
		d.Cores, d.Freq, d.Process, d.TDPW, d.CacheMB, d.Memory)
}

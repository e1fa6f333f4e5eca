package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"neuralcache/internal/core"
	"neuralcache/internal/isa"
	"neuralcache/internal/nn"
	"neuralcache/internal/report"
	"neuralcache/internal/sram"
	"neuralcache/internal/tensor"
	"neuralcache/internal/transpose"
)

// Ablations quantifies the §IV design choices, one row per choice, on the
// batch-1 Inception v3 workload.
func (s *Suite) Ablations() (*report.Table, error) {
	t := report.NewTable("Ablations — design choices (batch-1 Inception v3)",
		"Design choice", "With", "Without", "Effect")

	base, err := s.Sys.Estimate(s.Net, 1)
	if err != nil {
		return nil, err
	}

	// Bank latch (§IV-C).
	noLatch := core.DefaultConfig()
	noLatch.Fabric.BankLatch = false
	sysNL, err := core.New(noLatch)
	if err != nil {
		return nil, err
	}
	repNL, err := sysNL.Estimate(s.Net, 1)
	if err != nil {
		return nil, err
	}
	t.Add("64-bit bank input latch",
		report.MS(base.Latency())+" ms", report.MS(repNL.Latency())+" ms",
		fmt.Sprintf("latch saves %.1f%% latency",
			100*(repNL.Latency()-base.Latency())/repNL.Latency()))

	// Filter packing (§IV-A): the guarantee.
	noPack := core.DefaultConfig()
	noPack.Mapping.PackingEnabled = false
	sysNP, err := core.New(noPack)
	if err != nil {
		return nil, err
	}
	_, packErr := sysNP.Estimate(s.Net, 1)
	without := "maps fine (unexpected!)"
	if packErr != nil {
		without = "wide 1x1 layers exceed an array pair — unmappable"
	}
	t.Add("1x1 filter packing", report.MS(base.Latency())+" ms", without,
		"packing guarantees the 2-array channel fit")

	// TMU vs software transpose (§III-F).
	filterBytes := s.Net.FilterBytes()
	tmu := transpose.GatewayCycles(filterBytes)
	sw := uint64(filterBytes/1024+1) * transpose.SoftwareTransposeCyclesPerKB
	t.Add("hardware TMU gateway",
		fmt.Sprintf("%d cycles", tmu), fmt.Sprintf("%d CPU cycles", sw),
		fmt.Sprintf("%.1fx fewer cycles than x86 shuffle/pack", float64(sw)/float64(tmu)))

	// Operand bit width (§III-A).
	for _, bits := range []int{4, 16} {
		cfg := core.DefaultConfig()
		cfg.Cost.ActBits = bits
		cfg.Cost.AccBits = 3 * bits
		sysW, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		repW, err := sysW.Estimate(s.Net, 1)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d-bit operands (vs 8)", bits),
			report.MS(base.Latency())+" ms", report.MS(repW.Latency())+" ms",
			fmt.Sprintf("MAC %d vs %d cycles",
				isa.ChargedCycles(isa.Instruction{Op: isa.OpMulAcc, Width: 8, AccWidth: 24}),
				isa.ChargedCycles(isa.Instruction{Op: isa.OpMulAcc, Width: bits, AccWidth: 3 * bits})))
	}

	// Sparsity bit-slice skipping (§VII future work): measured skip rate
	// on an actual array with realistic post-ReLU sparsity.
	denseCycles, sparseCycles := sparsitySkipMeasurement(0.5)
	t.Add("multiplier bit-slice skip @50% zero activations",
		fmt.Sprintf("%d cycles/multiply", sparseCycles),
		fmt.Sprintf("%d cycles/multiply", denseCycles),
		"256 shared lanes defeat slice-skipping on dense mappings")

	return t, nil
}

// sparsitySkipMeasurement runs MultiplySkip on one array whose multiplier
// lanes are zero with probability zeroFrac, returning (plain, skipping)
// emergent cycles. With 256 lanes sharing the instruction stream, a
// bit-slice skips only when all 256 lanes agree — the quantitative
// version of §VII's "utilizing sparsity ... is a promising direction".
func sparsitySkipMeasurement(zeroFrac float64) (plain, skipping uint64) {
	r := rand.New(rand.NewSource(99))
	av := make([]uint64, sram.BitLines)
	bv := make([]uint64, sram.BitLines)
	for i := range av {
		av[i] = r.Uint64() & 0xff
		if r.Float64() >= zeroFrac {
			bv[i] = r.Uint64() & 0xff
		}
	}
	var p, q sram.Array
	p.WriteElements(0, 8, av)
	p.WriteElements(8, 8, bv)
	q.WriteElements(0, 8, av)
	q.WriteElements(8, 8, bv)
	p.ResetStats()
	q.ResetStats()
	p.Multiply(0, 8, 16, 8)
	q.MultiplySkip(0, 8, 16, 8)
	return p.Stats().ComputeCycles, q.Stats().ComputeCycles
}

// QuantErrorReport measures the 8-bit pipeline's end-to-end quantization
// error on a small network against the float reference — the property the
// paper leans on when citing 8-bit adequacy (§IV).
func QuantErrorReport(seed int64) (*report.Table, error) {
	net := nn.SmallCNN()
	net.InitWeights(seed)
	in := tensor.NewQuant(net.Input, 1.0/255)
	r := rand.New(rand.NewSource(seed))
	for i := range in.Data {
		in.Data[i] = uint8(r.Intn(256))
	}
	_, tr, err := nn.RunQuant(net, in, nn.QuantOptions{})
	if err != nil {
		return nil, err
	}
	fOut, err := nn.RunFloat(net, in.Dequantize())
	if err != nil {
		return nil, err
	}
	d := tr.Decision("logits")
	if d == nil {
		return nil, fmt.Errorf("experiments: no logits decision")
	}
	var dot, nq, nf float64
	for i, l := range tr.Logits {
		qv := float64(l) * d.AccScale
		fv := float64(fOut.Data[i])
		dot += qv * fv
		nq += qv * qv
		nf += fv * fv
	}
	cos := 0.0
	if nq > 0 && nf > 0 {
		cos = dot / math.Sqrt(nq*nf)
	}
	t := report.NewTable("8-bit quantization error (SmallCNN, seed "+fmt.Sprint(seed)+")",
		"Metric", "Value")
	t.Add("logit cosine similarity vs float", fmt.Sprintf("%.5f", cos))
	t.Add("logit count", fmt.Sprint(len(tr.Logits)))
	return t, nil
}

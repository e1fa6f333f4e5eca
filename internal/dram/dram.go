// Package dram models the main-memory substrate Neural Cache loads filter
// weights (and the first layer's inputs) from, and dumps batched outputs
// to (§IV-C, §IV-E). The paper measured this path with a C micro-benchmark
// that walks exactly the LLC sets needing data, profiled with VTune; that
// measurement reduces to an effective bandwidth over set-strided
// transfers, which is the model here.
package dram

import "fmt"

// Config describes one socket's memory system.
type Config struct {
	// PeakBW is the peak channel bandwidth in bytes/second (DDR4-2133 ×4
	// channels ≈ 68 GB/s for the evaluated Xeon E5-2697 v3).
	PeakBW float64
	// EffectiveBW is the achieved bandwidth in bytes/second for the
	// set-strided filter-loading walk. It is fitted, not measured: chosen
	// so filter loading is ≈46% of the batch-1 Inception v3 latency, the
	// share Figure 14 reports, because nothing here executes DRAM.
	EffectiveBW float64
	// EnergyPerBitPJ is the DRAM system energy in pJ/bit. The paper's
	// package-domain energy numbers exclude DRAM; the engine keeps DRAM
	// energy in a separate ledger entry that is excluded from the Table
	// III reproduction by default.
	EnergyPerBitPJ float64
}

// DDR4 returns the memory system of the evaluated dual-socket node
// (per-socket view).
func DDR4() Config {
	return Config{
		PeakBW:         68e9,
		EffectiveBW:    11e9,
		EnergyPerBitPJ: 15,
	}
}

// Validate reports an error for non-realizable configurations.
func (c Config) Validate() error {
	if c.PeakBW <= 0 || c.EffectiveBW <= 0 {
		return fmt.Errorf("dram: non-positive bandwidth in %+v", c)
	}
	if c.EffectiveBW > c.PeakBW {
		return fmt.Errorf("dram: effective bandwidth %.1f GB/s exceeds peak %.1f GB/s",
			c.EffectiveBW/1e9, c.PeakBW/1e9)
	}
	if c.EnergyPerBitPJ < 0 {
		return fmt.Errorf("dram: negative energy %f pJ/bit", c.EnergyPerBitPJ)
	}
	return nil
}

// StreamSeconds returns the wall-clock time to stream `bytes` through the
// set-strided path.
func (c Config) StreamSeconds(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / c.EffectiveBW
}

// PeakStreamSeconds returns the time at peak (sequential) bandwidth, used
// for large contiguous batch dumps which do not pay the set-stride
// penalty.
func (c Config) PeakStreamSeconds(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / c.PeakBW
}

// EnergyJoules returns the DRAM transfer energy for `bytes`.
func (c Config) EnergyJoules(bytes uint64) float64 {
	return float64(bytes) * 8 * c.EnergyPerBitPJ * 1e-12
}

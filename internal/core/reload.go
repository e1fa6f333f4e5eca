package core

import (
	"neuralcache/internal/nn"
	"neuralcache/internal/transpose"
)

// Weight-reload pricing (§IV-E): Neural Cache keeps a network's filters
// resident in the compute arrays and streams them from DRAM only when
// staging them. A serving replica that switches to a different network
// therefore pays the full filter stream again before its first batch —
// the set-strided DRAM walk at effective bandwidth plus the transpose
// gateway pass that lays the weights out bit-serially.

// Reload is the modeled cost of staging one network's complete filter
// set onto a replica whose arrays hold another network's weights (or
// nothing).
type Reload struct {
	// Model names the network being staged.
	Model string
	// FilterBytes is the 8-bit weight footprint streamed from DRAM.
	FilterBytes int
	// Seconds is the wall-clock staging time: the set-strided DRAM
	// stream at effective bandwidth plus the transpose-gateway pass.
	Seconds float64
	// DRAMEnergyJ is the transfer energy of the filter stream.
	DRAMEnergyJ float64
}

// EstimateReload prices staging net's filters from DRAM into the compute
// arrays. The cost is charged once per model switch, not per batch: warm
// dispatches (same network as the previous batch on that replica) pay
// nothing beyond the regular per-layer filter loading already in
// Estimate.
func (s *System) EstimateReload(net *nn.Network) (*Reload, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	bytes := net.FilterBytes()
	cfg := &s.cfg
	sec := cfg.DRAM.StreamSeconds(bytes) + cfg.Cost.Seconds(transpose.GatewayCycles(bytes))
	return &Reload{
		Model:       net.Name,
		FilterBytes: bytes,
		Seconds:     sec,
		DRAMEnergyJ: cfg.DRAM.EnergyJoules(uint64(bytes)),
	}, nil
}

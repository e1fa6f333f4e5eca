package core

import (
	"fmt"
	"sync"

	"neuralcache/internal/dram"
	"neuralcache/internal/energy"
	"neuralcache/internal/geometry"
	"neuralcache/internal/interconnect"
	"neuralcache/internal/mapping"
)

// Config assembles a Neural Cache system from its substrates.
type Config struct {
	Geometry geometry.Config
	Fabric   interconnect.Config
	DRAM     dram.Config
	Energy   energy.Model
	Cost     CostModel
	Mapping  mapping.Params
	// Sockets is the number of host CPUs in the node; Neural Cache
	// throughput scales linearly with it (§VI-B evaluates a dual-socket
	// node; latency is per-socket).
	Sockets int

	// Workers bounds the goroutines the functional engine uses to execute
	// a layer's independent convolution/pooling groups in parallel. 0 (the
	// default) means GOMAXPROCS; 1 forces fully sequential execution. The
	// result — output bytes, trace, cycle stats, arrays used — is
	// bit-identical for every worker count; only wall-clock time changes.
	Workers int

	// SkipZeroSlices routes the functional engine's multiplies through the
	// zero-skipping sram ops (MulAccSkip / MultiplySkip): a multiplier
	// bit-slice that is zero across all 256 lanes of an array elides its
	// n+1-cycle predicated add, the §VII / BitWave-style bit-column
	// sparsity win. Outputs, trace, arrays used and access cycles stay
	// byte-identical to the dense engine (including under fault injection
	// and for every worker count); only the emergent compute-cycle count
	// becomes data-dependent, and FunctionalResult.Skip reports what was
	// elided. Because one instruction stream drives all lanes, a slice
	// skips only when every lane agrees — dense activations across a full
	// array defeat it, low-magnitude weights enable it.
	SkipZeroSlices bool

	// InputMulticastFactor is the average fan-out one intra-slice bus
	// transfer achieves when depositing replicated input windows beyond
	// the bank latch (partial multicast of M-replicated windows across
	// banks). Calibrated so input streaming is ≈15% of batch-1 latency
	// (Figure 14); see DESIGN.md §4.
	InputMulticastFactor float64
	// OutputPathOverhead multiplies output-transfer bus time to cover the
	// gather and transpose-gateway passes on the way to the reserved way.
	OutputPathOverhead float64
	// IncludeDRAMEnergy adds DRAM transfer energy to the package total
	// (off by default, matching the paper's RAPL package-domain numbers).
	IncludeDRAMEnergy bool
}

// DefaultConfig returns the paper's evaluated system: a dual-socket Xeon
// E5-2697 v3 with a 35 MB, 14-slice LLC at 22 nm.
func DefaultConfig() Config {
	return Config{
		Geometry:             geometry.XeonE5(),
		Fabric:               interconnect.XeonE5(),
		DRAM:                 dram.DDR4(),
		Energy:               energy.NewModel(energy.Tech22nm),
		Cost:                 DefaultCost(),
		Mapping:              mapping.Defaults(),
		Sockets:              2,
		InputMulticastFactor: 6.6,
		OutputPathOverhead:   4,
	}
}

// WithSlices resizes the cache (Table IV's capacity scaling).
func (c Config) WithSlices(n int) Config {
	c.Geometry = c.Geometry.WithSlices(n)
	c.Fabric.Slices = n
	c.Mapping.Geometry = c.Geometry
	return c
}

// ReplicaGroup shrinks the configuration to a group of k consecutive LLC
// slices on one socket — the generalized unit of the paper's §VI-B
// throughput model. k = 1 is the paper's one-image-per-slice replication;
// larger k trades replica count for per-image latency (Table IV's
// capacity-scaling axis): the k slices of a group cooperate on one batch,
// so service time shrinks while the socket holds Slices/k groups. k must
// be positive and divide the socket's slice count, so groups tile the
// cache exactly.
func (c Config) ReplicaGroup(k int) (Config, error) {
	if k <= 0 {
		return Config{}, fmt.Errorf("core: replica group of %d slices", k)
	}
	if c.Geometry.Slices%k != 0 {
		return Config{}, fmt.Errorf("core: replica group of %d slices does not divide the %d-slice cache",
			k, c.Geometry.Slices)
	}
	r := c.WithSlices(k)
	r.Sockets = 1
	return r, nil
}

// Replica is ReplicaGroup(1): one LLC slice of one socket, the unit of
// the paper's literal one-image-per-slice replication. Kept as the
// compatibility spelling; pricing a batch on the replica configuration
// yields the service time a serving scheduler charges per shard dispatch.
func (c Config) Replica() Config {
	r, err := c.ReplicaGroup(1)
	if err != nil {
		// Unreachable for any validated geometry: every positive slice
		// count is divisible by 1.
		panic(err)
	}
	return r
}

// Validate checks the assembled system.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.Fabric.Slices != c.Geometry.Slices {
		return fmt.Errorf("core: fabric has %d slices, geometry %d", c.Fabric.Slices, c.Geometry.Slices)
	}
	if c.Sockets <= 0 {
		return fmt.Errorf("core: %d sockets", c.Sockets)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.InputMulticastFactor < 1 || c.OutputPathOverhead < 1 {
		return fmt.Errorf("core: calibration factors below 1: %+v", c)
	}
	if c.Cost.FreqGHz <= 0 || c.Cost.ActBits <= 0 {
		return fmt.Errorf("core: invalid cost model %+v", c.Cost)
	}
	return nil
}

// System is a configured Neural Cache engine. Its configuration is
// immutable; the only state it keeps is a pool of simulated caches that
// functional runs lease and return clean (see RunFunctionalFaulty), so a
// System is safe for concurrent use.
type System struct {
	cfg    Config
	caches sync.Pool // *runCache
}

// New builds a system, validating the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	s.caches.New = func() any {
		return &runCache{
			cache:   geometry.New(cfg.Geometry),
			touched: make([]bool, cfg.Geometry.ComputeArrays()),
		}
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

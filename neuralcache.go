// Package neuralcache is a from-scratch reproduction of Neural Cache
// (Eckert et al., ISCA 2018): bit-serial in-SRAM acceleration of deep
// neural networks inside a server-class last-level cache.
//
// The package is a facade over the full simulator in internal/: a
// bit-accurate compute-SRAM array model, the Xeon-E5-class cache geometry
// and interconnect, the transpose gateway, the data-layout engine, a
// quantized Inception v3, analytical CPU/GPU baselines, and the analytic
// cycle/energy ledger that regenerates every table and figure of the
// paper's evaluation.
//
// Three entry points:
//
//   - System.Estimate prices an inference (or batch) on the modeled cache:
//     latency, phase breakdown, energy, power, throughput.
//   - System.Run executes a (small) network bit-accurately on simulated
//     SRAM arrays and returns the quantized output, verified elsewhere to
//     match the integer reference executor bit for bit.
//   - System.VectorAdd / VectorMul / VectorSub expose the underlying
//     in-cache bit-serial SIMD directly, Compute-Cache style.
//
// For serving traffic rather than pricing single inferences, package
// neuralcache/serve turns a System into a long-running inference
// service: serve.NewServer is an asynchronous server with a bounded
// admission queue, dynamic per-model micro-batching and a replica-group
// scheduler generalizing the paper's one-image-per-slice replication
// (§VI-B) to groups of Config.GroupSize slices, and serve.Simulate
// load-tests the same scheduling policy on a deterministic virtual
// clock (open-loop rates or closed-loop fixed-concurrency populations).
// Several models can be resident at once: the scheduler tracks which
// model's weights each group has staged, dispatches warm-first, and
// charges the §IV-E filter DRAM stream when a group switches models —
// one reload warms the whole group. System.ReplicaGroups and
// System.EstimateReplica expose the per-group service-time model
// (System.EstimateReplicaGroup for an explicit k), System.EstimateReload
// the weight-reload cost of a model switch, and System.ServiceTime and
// System.ReloadTime the same two prices as the durations the scheduler
// dispatches on; serve.SweepGroups walks the Table IV-style group-size
// frontier. Package neuralcache/plan turns those estimates into
// residency decisions ahead of traffic: plan.Compute sizes per-model
// warm sets from mix weights, plan.CoSelect searches the group size
// (System.GroupSizes) minimizing predicted p99, and plan.Controller
// re-balances online when the served mix drifts. cmd/ncserve is the
// load-testing CLI (-models a,b -mix 0.7,0.3 for mixed traffic,
// -group k / -sweep-groups 1,2,7 for group sizing, -concurrency N for
// closed-loop load, -plan / -replan-threshold / -mix-shift for
// planned residency under drift).
//
// Bit-accurate runs execute a layer's independent work groups in parallel
// on a worker pool sized by Config.Workers (default GOMAXPROCS),
// mirroring the hardware's array-level parallelism in software. Results —
// output bytes, logits, cycle counters, arrays used — are bit-identical
// for every worker count. Convolutions whose effective channels exceed
// one array's 256 bit lines spill across a sense-amp-sharing array pair,
// with the cross-array partial-sum reduction routed over the modeled
// intra-slice bus, so wide networks run bit-accurately too.
//
// A System's configuration is immutable after New: Run, RunWithFaults
// and Estimate may be called concurrently from multiple goroutines on the
// same System. Each bit-exact call runs on a simulated cache of its own,
// leased from a pool the System keeps: arrays are allocated on first use,
// reset after every call and reused, and results never depend on other
// calls.
//
// # Building and testing
//
// The repository is the single Go module "neuralcache" (see go.mod; Go ≥
// 1.22, no external dependencies). From a clean checkout:
//
//	go build ./... && go test ./...
//
// runs every package's test suite; `go test -race ./...` additionally
// race-checks the parallel functional engine, and `go test -bench=.`
// regenerates the paper's tables and figures as benchmark metrics.
package neuralcache

import (
	"fmt"
	"sync"
	"time"

	"neuralcache/internal/core"
	"neuralcache/internal/geometry"
)

// Config selects the modeled system. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Slices sizes the LLC: 14 slices = 35 MB (the paper's default),
	// 18 = 45 MB, 24 = 60 MB (Table IV).
	Slices int `json:"slices"`
	// Sockets is the number of host CPUs; throughput scales linearly.
	Sockets int `json:"sockets"`
	// Workers bounds the goroutines bit-accurate runs use to execute a
	// layer's independent work groups in parallel. 0 means GOMAXPROCS;
	// 1 forces sequential execution. Results are bit-identical for every
	// worker count.
	Workers int `json:"workers"`
	// GroupSize is the number of consecutive LLC slices forming one
	// serving replica group — the unit System.EstimateReplica and
	// System.EstimateReload price and package serve schedules on. 0 or 1
	// is the paper's one-image-per-slice replication (§VI-B); larger
	// values trade replica count (System.ReplicaGroups = Slices × Sockets
	// / GroupSize) for per-image latency, Table IV style. Must divide
	// Slices.
	GroupSize int `json:"group_size,omitempty"`
	// BankLatch enables the 64-bit per-bank input latch (§IV-C); disable
	// for the ablation.
	BankLatch bool `json:"bank_latch"`
	// FilterPacking enables 1×1-filter channel packing (§IV-A); disable
	// for the ablation.
	FilterPacking bool `json:"filter_packing"`
	// SkipZeroSlices routes bit-accurate runs through the zero-skipping
	// multiply ops (§VII sparsity / BitWave-style bit-column skipping): a
	// multiplier bit-slice that is zero across all 256 lanes of an array
	// elides its predicated add. Outputs stay byte-identical to the dense
	// engine for every worker count, including under fault injection;
	// compute cycles become data-dependent and InferenceResult reports
	// the per-layer elisions. Off by default (the paper's dense engine).
	SkipZeroSlices bool `json:"skip_zero_slices,omitempty"`
	// IncludeDRAMEnergy folds DRAM transfer energy into reported package
	// energy (the paper's Table III excludes it).
	IncludeDRAMEnergy bool `json:"include_dram_energy"`
}

// DefaultConfig returns the paper's evaluated configuration: a dual-socket
// Xeon E5-2697 v3 with a 35 MB LLC.
func DefaultConfig() Config {
	return Config{Slices: 14, Sockets: 2, BankLatch: true, FilterPacking: true}
}

// System is a configured Neural Cache.
type System struct {
	cfg  Config
	core *core.System

	// groups caches the shrunken k-slice replica-group engines
	// (core.Config.ReplicaGroup) and, for every model an engine has
	// priced, its walk and its service and reload times; the configured
	// GroupSize's engine is built eagerly in New, other divisors and
	// every price lazily on first use.
	groups struct {
		sync.Mutex
		byK    map[int]*core.System
		priced map[pricedKey]*groupPrices
	}
}

// pricedKey names a model on a k-slice replica-group engine. A Model's
// shape never changes after construction, so its pointer keys every
// batch size and density of it.
type pricedKey struct {
	k int
	m *Model
}

// groupPrices is what a System keeps of one model on one k-slice
// engine: the walk every batch replays (nil until an estimate or
// service time needs it; a failed walk is not kept), the service time
// of each batch size priced so far, and the reload time once priced.
type groupPrices struct {
	sys      *core.System
	walk     *core.Priced
	service  map[int]time.Duration
	reload   time.Duration
	reloaded bool
}

// New builds a system.
func New(cfg Config) (*System, error) {
	if cfg.Slices <= 0 {
		return nil, fmt.Errorf("neuralcache: %d slices", cfg.Slices)
	}
	if cfg.Sockets <= 0 {
		return nil, fmt.Errorf("neuralcache: %d sockets", cfg.Sockets)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("neuralcache: negative worker count %d", cfg.Workers)
	}
	if cfg.GroupSize < 0 {
		return nil, fmt.Errorf("neuralcache: negative replica group size %d", cfg.GroupSize)
	}
	if k := cfg.GroupSize; k > 1 && cfg.Slices%k != 0 {
		return nil, fmt.Errorf("neuralcache: replica group size %d does not divide %d slices", k, cfg.Slices)
	}
	cc := core.DefaultConfig().WithSlices(cfg.Slices)
	cc.Sockets = cfg.Sockets
	cc.Workers = cfg.Workers
	cc.Fabric.BankLatch = cfg.BankLatch
	cc.Mapping.PackingEnabled = cfg.FilterPacking
	cc.SkipZeroSlices = cfg.SkipZeroSlices
	cc.IncludeDRAMEnergy = cfg.IncludeDRAMEnergy
	sys, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, core: sys}
	s.groups.byK = make(map[int]*core.System)
	s.groups.priced = make(map[pricedKey]*groupPrices)
	if _, err := s.replicaGroup(s.GroupSize()); err != nil {
		return nil, err
	}
	return s, nil
}

// replicaGroup returns (building and caching on first use) the k-slice
// single-socket engine that prices replica-group dispatches. Callers
// hold s.groups, or own s alone.
func (s *System) replicaGroup(k int) (*core.System, error) {
	if sys, ok := s.groups.byK[k]; ok {
		return sys, nil
	}
	gc, err := s.core.Config().ReplicaGroup(k)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(gc)
	if err != nil {
		return nil, err
	}
	s.groups.byK[k] = sys
	return sys, nil
}

// prices returns m's entry on the k-slice engine, building the engine
// and the entry on first use. Callers hold s.groups.
func (s *System) prices(m *Model, k int) (*groupPrices, error) {
	key := pricedKey{k: k, m: m}
	if e, ok := s.groups.priced[key]; ok {
		return e, nil
	}
	sys, err := s.replicaGroup(k)
	if err != nil {
		return nil, err
	}
	e := &groupPrices{sys: sys, service: make(map[int]time.Duration)}
	s.groups.priced[key] = e
	return e, nil
}

// walked checks batch and density, then returns m's walk, walking it on
// first use. Callers hold the System's groups.
func (e *groupPrices) walked(m *Model, batch int, density float64) (*core.Priced, error) {
	if err := core.CheckBatch(batch, density); err != nil {
		return nil, err
	}
	if e.walk == nil {
		p, err := e.sys.Price(m.net)
		if err != nil {
			return nil, err
		}
		e.walk = p
	}
	return e.walk, nil
}

// Config returns the facade configuration.
func (s *System) Config() Config { return s.cfg }

// Lanes returns the bit-serial ALU slots of the modeled cache
// (1,146,880 for the 35 MB default).
func (s *System) Lanes() int { return s.geometry().Lanes() }

// Arrays returns the number of 8 KB compute SRAM arrays (4480 default).
func (s *System) Arrays() int { return s.geometry().TotalArrays() }

// CapacityBytes returns the modeled cache capacity.
func (s *System) CapacityBytes() int { return s.geometry().CapacityBytes() }

func (s *System) geometry() geometry.Config { return s.core.Config().Geometry }

// PeakTOPS returns the peak 8-bit tera-operations per second of the
// compute lanes (2 ops per MAC at the paper's 236-cycle 8-bit MAC),
// the §VII "28 TOP/s at 22 nm" headline.
func (s *System) PeakTOPS() float64 {
	cost := s.core.Config().Cost
	macRate := cost.FreqGHz * 1e9 / float64(cost.MACCycles())
	return float64(s.Lanes()) * macRate * 2 / 1e12
}

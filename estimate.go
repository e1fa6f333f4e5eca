package neuralcache

import (
	"time"

	"neuralcache/internal/baseline"
	"neuralcache/internal/core"
)

// PhaseTiming is one slice of the latency breakdown (Figure 14).
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// LayerTiming is one layer's latency (Figure 13's Neural Cache series).
type LayerTiming struct {
	Name        string  `json:"name"`
	Seconds     float64 `json:"seconds"`
	SerialIters int     `json:"serial_iters"`
	Utilization float64 `json:"utilization"`
}

// Estimate is the analytic model's accounting for a batch of inferences.
type Estimate struct {
	Model            string        `json:"model"`
	BatchSize        int           `json:"batch_size"`
	LatencySeconds   float64       `json:"latency_seconds"`    // end-to-end for the whole batch
	ThroughputPerSec float64       `json:"throughput_per_sec"` // inferences/s across all sockets
	EnergyJ          float64       `json:"energy_j"`           // package energy for the batch
	AvgPowerW        float64       `json:"avg_power_w"`
	DRAMEnergyJ      float64       `json:"dram_energy_j"` // reported separately (see Config)
	Phases           []PhaseTiming `json:"phases"`
	Layers           []LayerTiming `json:"layers"`
}

// Estimate prices a batch of inferences with the analytic engine.
func (s *System) Estimate(m *Model, batch int) (*Estimate, error) {
	rep, err := s.core.Estimate(m.net, batch)
	if err != nil {
		return nil, err
	}
	return newEstimate(rep), nil
}

// newEstimate marshals a core report into the facade type.
func newEstimate(rep *core.Report) *Estimate {
	out := &Estimate{
		Model:            rep.Model,
		BatchSize:        rep.BatchSize,
		LatencySeconds:   rep.Latency(),
		ThroughputPerSec: rep.Throughput(),
		EnergyJ:          rep.TotalEnergyJ(),
		AvgPowerW:        rep.AveragePowerWatts(),
		DRAMEnergyJ:      rep.DRAMEnergyJ,
		Phases:           make([]PhaseTiming, len(rep.Seconds)),
		Layers:           make([]LayerTiming, len(rep.Layers)),
	}
	for p, sec := range rep.Seconds {
		out.Phases[p] = PhaseTiming{Phase: core.Phase(p).String(), Seconds: sec}
	}
	for i, l := range rep.Layers {
		out.Layers[i] = LayerTiming{
			Name: l.Name, Seconds: l.Seconds.Total(),
			SerialIters: l.SerialIters, Utilization: l.Utilization,
		}
	}
	return out
}

// Replicas returns the number of single-slice replicas the system holds:
// Slices × Sockets, the paper's §VI-B one-image-per-slice replication.
// When slices are grouped (Config.GroupSize > 1) the serving unit is the
// group, counted by ReplicaGroups; Replicas is kept as the k=1 spelling.
func (s *System) Replicas() int { return s.cfg.Slices * s.cfg.Sockets }

// GroupSize returns the configured slices per replica group (≥ 1; a zero
// Config.GroupSize means the paper's single-slice replication).
func (s *System) GroupSize() int {
	if s.cfg.GroupSize <= 0 {
		return 1
	}
	return s.cfg.GroupSize
}

// ReplicaGroups returns the number of independent replica groups the
// system can serve concurrently: Slices × Sockets / GroupSize. Package
// serve schedules requests onto exactly these groups; with the default
// GroupSize of 1 this is Replicas().
func (s *System) ReplicaGroups() int { return s.cfg.Slices * s.cfg.Sockets / s.GroupSize() }

// GroupSizes returns every valid replica-group size — the divisors of
// the slice count, ascending. This is the candidate set a group-size
// search (plan.CoSelect, serve.SweepGroups callers) walks: any other k
// fails the must-divide-Slices validation everywhere groups are priced.
func (s *System) GroupSizes() []int {
	var ks []int
	for k := 1; k <= s.cfg.Slices; k++ {
		if s.cfg.Slices%k == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// EstimateReplica prices a batch of inferences on one replica group —
// Config.GroupSize consecutive LLC slices of a single socket — with the
// analytic engine. This is the per-shard service time the serving
// scheduler (package serve) charges when it dispatches a batch to a free
// group: the full-system throughput bound is ReplicaGroups()·batch /
// EstimateReplica latency. Intra-group parallelism shortens service
// time, so fewer, bigger groups serve each image faster (Table IV's
// latency/capacity trade-off).
func (s *System) EstimateReplica(m *Model, batch int) (*Estimate, error) {
	return s.EstimateReplicaGroup(m, batch, s.GroupSize())
}

// EstimateReplicaGroup prices a batch on a k-slice replica group,
// independent of the configured GroupSize — the hook group-sweep tooling
// uses to walk the Table IV frontier. k must divide Slices. The System
// walks each model once per group size and prices every batch by
// replaying that walk, so repeated calls cost a replay, not a walk.
func (s *System) EstimateReplicaGroup(m *Model, batch, k int) (*Estimate, error) {
	return s.EstimateReplicaGroupDensity(m, batch, k, 1)
}

// EstimateDensity prices a batch with the convolution MAC phase
// discounted for a measured multiplier bit-column density — the
// InferenceResult.SliceDensity a SkipZeroSlices run reports. density
// must lie in (0, 1]; 1 reproduces Estimate exactly. Each skipped
// bit-slice saves its predicated add, the same per-slice saving the
// functional engine realizes, so an estimate priced at a measured
// density tracks the observed compute-cycle reduction.
func (s *System) EstimateDensity(m *Model, batch int, density float64) (*Estimate, error) {
	rep, err := s.core.EstimateDensity(m.net, batch, density)
	if err != nil {
		return nil, err
	}
	return newEstimate(rep), nil
}

// EstimateReplicaGroupDensity is EstimateReplicaGroup with the MAC phase
// discounted for a measured bit-column density (see EstimateDensity).
// The first call for a (model, k) pair walks the network on the k-slice
// engine; every call replays the kept walk at batch and density, with
// results identical to a fresh System's.
func (s *System) EstimateReplicaGroupDensity(m *Model, batch, k int, density float64) (*Estimate, error) {
	s.groups.Lock()
	e, err := s.prices(m, k)
	var p *core.Priced
	if err == nil {
		p, err = e.walked(m, batch, density)
	}
	s.groups.Unlock()
	if err != nil {
		return nil, err
	}
	rep, err := p.Report(batch, density)
	if err != nil {
		return nil, err
	}
	return newEstimate(rep), nil
}

// ServiceTime returns how long a warm batch of m holds a k-slice
// replica group: EstimateReplicaGroup's latency as a time.Duration, at
// least 1 ns. It is the clock package serve dispatches on and package
// plan predicts with. The System keeps every service time it prices,
// so a repeated call allocates nothing. Errors come in
// EstimateReplicaGroup's order: group size, batch, then the walk's.
func (s *System) ServiceTime(m *Model, batch, k int) (time.Duration, error) {
	s.groups.Lock()
	defer s.groups.Unlock()
	e, err := s.prices(m, k)
	if err != nil {
		return 0, err
	}
	if d, ok := e.service[batch]; ok {
		return d, nil
	}
	p, err := e.walked(m, batch, 1)
	if err != nil {
		return 0, err
	}
	rep, err := p.Report(batch, 1)
	if err != nil {
		return 0, err
	}
	d := max(time.Duration(rep.Latency()*float64(time.Second)), time.Nanosecond)
	e.service[batch] = d
	return d, nil
}

// ReloadTime returns how long staging m's weights holds a k-slice
// replica group: EstimateReloadGroup's seconds as a time.Duration, at
// least 0. A reload prices without walking the network, so it succeeds
// for a model whose walk fails. The System keeps the price, so a
// repeated call allocates nothing.
func (s *System) ReloadTime(m *Model, k int) (time.Duration, error) {
	s.groups.Lock()
	defer s.groups.Unlock()
	e, err := s.prices(m, k)
	if err != nil {
		return 0, err
	}
	if !e.reloaded {
		rel, err := e.sys.EstimateReload(m.net)
		if err != nil {
			return 0, err
		}
		e.reload, e.reloaded = max(time.Duration(rel.Seconds*float64(time.Second)), 0), true
	}
	return e.reload, nil
}

// ReloadEstimate prices staging a model's filters onto a replica group
// (§IV-E): the set-strided DRAM stream of the full filter footprint at
// effective bandwidth plus the transpose-gateway pass that lays the
// weights out bit-serially. A serving scheduler charges it when a group
// switches models; warm dispatches pay nothing beyond the per-layer
// filter loading already in Estimate. One reload warms the whole group —
// the stream is DRAM-bound, so its cost does not grow with GroupSize,
// and bigger groups mean fewer groups to stage (fewer reloads under
// churn).
type ReloadEstimate struct {
	Model       string  `json:"model"`
	FilterBytes int     `json:"filter_bytes"`
	Seconds     float64 `json:"seconds"`
	DRAMEnergyJ float64 `json:"dram_energy_j"`
}

// EstimateReload prices swapping m's weights onto one replica group of
// Config.GroupSize slices — the §IV-E filter DRAM stream a model switch
// costs. Package serve adds it to the first batch a group serves after
// changing models.
func (s *System) EstimateReload(m *Model) (*ReloadEstimate, error) {
	return s.EstimateReloadGroup(m, s.GroupSize())
}

// EstimateReloadGroup prices the model switch onto a k-slice replica
// group, independent of the configured GroupSize. k must divide Slices.
func (s *System) EstimateReloadGroup(m *Model, k int) (*ReloadEstimate, error) {
	s.groups.Lock()
	sys, err := s.replicaGroup(k)
	s.groups.Unlock()
	if err != nil {
		return nil, err
	}
	rel, err := sys.EstimateReload(m.net)
	if err != nil {
		return nil, err
	}
	return &ReloadEstimate{
		Model:       rel.Model,
		FilterBytes: rel.FilterBytes,
		Seconds:     rel.Seconds,
		DRAMEnergyJ: rel.DRAMEnergyJ,
	}, nil
}

// Phase returns the seconds attributed to a named phase, or 0.
func (e *Estimate) Phase(name string) float64 {
	for _, p := range e.Phases {
		if p.Phase == name {
			return p.Seconds
		}
	}
	return 0
}

// Baseline is a comparison device: the paper's measured CPU or GPU,
// substituted by an analytical model calibrated to its measurements.
type Baseline struct {
	dev baseline.Device
}

// CPUBaseline returns the dual-socket Xeon E5-2697 v3 model.
func CPUBaseline() Baseline { return Baseline{dev: baseline.XeonE5()} }

// GPUBaseline returns the Titan Xp model.
func GPUBaseline() Baseline { return Baseline{dev: baseline.TitanXp()} }

// Name returns the device name.
func (b Baseline) Name() string { return b.dev.Name }

// Description summarizes the device (Table II).
func (b Baseline) Description() string { return b.dev.String() }

// LatencySeconds returns batch-1 Inception v3 latency.
func (b Baseline) LatencySeconds() float64 { return b.dev.TotalSeconds() }

// Throughput returns inferences/s at a batch size (Figure 16).
func (b Baseline) Throughput(batch int) float64 { return b.dev.Throughput(batch) }

// EnergyJ returns batch-1 package energy (Table III).
func (b Baseline) EnergyJ() float64 { return b.dev.EnergyPerInferenceJ() }

// PowerW returns average inference power (Table III).
func (b Baseline) PowerW() float64 { return b.dev.MeasuredPowerW }

// LayerSeconds returns the per-layer latency series for a model
// (Figure 13's CPU/GPU bars).
func (b Baseline) LayerSeconds(m *Model) []float64 { return b.dev.LayerSeconds(m.net) }

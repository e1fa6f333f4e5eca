package cluster

import (
	"fmt"
	"math"
	"time"

	"neuralcache/internal/node"
	"neuralcache/serve"
)

// Load describes the open-loop arrival process offered to the cluster's
// front door. It reuses the serving tier's mix vocabulary
// (serve.ModelShare / serve.MixShift — same validation rules, same
// seeded draw) and adds RateSchedule, the diurnal knob: the offered
// rate itself shifts mid-run, the fleet-scale scenario a single node
// never sees.
type Load struct {
	// Rate is the initial mean arrival rate in requests per second;
	// RateSchedule entries replace it from their At onward.
	Rate float64
	// Requests is the number of arrivals to generate. When 0, arrivals
	// are generated for Duration instead.
	Requests int
	// Duration is the arrival window used when Requests is 0.
	Duration time.Duration
	// Seed seeds the arrival process and the model-mix draw, exactly
	// like serve.Load.Seed: same seed, same schedule, same models.
	Seed int64
	// Poisson draws exponential interarrival times (a piecewise-
	// homogeneous Poisson process under RateSchedule: the leftover
	// exponential mass carries across a rate boundary) instead of
	// uniform spacing, which changes rate from the first arrival that
	// lands past a boundary.
	Poisson bool
	// Mix assigns each arrival a model with serve.Load.Mix's weighted
	// draw and validation rules; empty means every arrival targets the
	// default model.
	Mix []serve.ModelShare
	// MixSchedule shifts the traffic mix mid-run (strictly ascending
	// At > 0), generating the hot-spot model shifts the affinity router
	// and the per-node drift controllers react to.
	MixSchedule []serve.MixShift
	// RateSchedule shifts the offered rate mid-run (strictly ascending
	// At > 0): the diurnal curve. Arrivals before the first shift use
	// Rate.
	RateSchedule []RateShift
}

// RateShift is one scheduled arrival-rate change: from At onward the
// process offers Rate requests per second.
type RateShift = node.RateShift

// traffic is the load's arrival process in the shared generator's
// terms.
func (l Load) traffic() node.Traffic {
	return node.Traffic{
		Rate:         l.Rate,
		RateSchedule: l.RateSchedule,
		Requests:     l.Requests,
		Duration:     l.Duration,
		Seed:         l.Seed,
		Poisson:      l.Poisson,
		Mix:          l.Mix,
		MixSchedule:  l.MixSchedule,
	}
}

func (l Load) validate() error {
	if math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) || l.Rate <= 0 {
		return fmt.Errorf("cluster: arrival rate %v", l.Rate)
	}
	if err := l.traffic().Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

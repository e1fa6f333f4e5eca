package cluster

import (
	"testing"
	"time"

	"neuralcache"
	"neuralcache/plan"
	"neuralcache/serve"
)

// TestOneNodeClusterIsANode: a cluster of one node runs the same
// scheduler as serve.Simulate, so on the same models, options and
// Poisson load the two must agree on every counter, the makespan, the
// worst latency and the queue high-water — reactive and planned with
// re-planning, below and above saturation. Percentiles are left out:
// the two reports round ranks differently (see percentile).
func TestOneNodeClusterIsANode(t *testing.T) {
	models := testModels()
	mix := func(w ...float64) []serve.ModelShare {
		out := make([]serve.ModelShare, len(models))
		for i, m := range models {
			out[i] = serve.ModelShare{Model: m.Name(), Weight: w[i]}
		}
		return out
	}
	replan := plan.ControllerConfig{Threshold: 0.15}
	for _, rate := range []float64{900, 3000} {
		for _, planned := range []bool{false, true} {
			load := serve.Load{
				Rate: rate, Requests: 8000, Seed: 23, Poisson: true,
				Mix:         mix(0.6, 0.3, 0.1),
				MixSchedule: []serve.MixShift{{At: 2 * time.Second, Mix: mix(0.1, 0.2, 0.7)}},
			}
			spec := NodeSpec{MaxBatch: 8, MaxLinger: time.Millisecond, Plan: planned}
			opts := serve.Options{MaxBatch: 8, MaxLinger: time.Millisecond}
			sys, err := neuralcache.New(neuralcache.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if planned {
				spec.Replan = replan
				shares := make([]plan.Share, len(load.Mix))
				for i, ms := range load.Mix {
					shares[i] = plan.Share{Model: ms.Model, Weight: ms.Weight}
				}
				p, err := plan.Compute(sys, models, shares, plan.Options{GroupSize: 1, MaxBatch: 8, RatePerSec: rate})
				if err != nil {
					t.Fatal(err)
				}
				opts.Plan, opts.Replan = p, replan
			}
			node, err := serve.Simulate(serve.NewAnalyticBackend(sys, models[0], models[1:]...), opts, load)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := Simulate(models, Options{Nodes: []NodeSpec{spec}}, Load{
				Rate: load.Rate, Requests: load.Requests, Seed: load.Seed, Poisson: true,
				Mix: load.Mix, MixSchedule: load.MixSchedule,
			})
			if err != nil {
				t.Fatal(err)
			}
			type counts struct {
				offered, served, rejected, batches, warm, cold, restages, replans int
				makespan, max                                                     time.Duration
				maxDepth                                                          int
			}
			got := counts{fleet.Offered, fleet.Served, fleet.Rejected, fleet.Batches,
				fleet.WarmDispatches, fleet.ColdDispatches, fleet.Restages, fleet.Replans,
				fleet.Makespan, fleet.Max, fleet.MaxQueueDepth}
			want := counts{node.Offered, node.Served, node.Rejected, node.Batches,
				node.WarmDispatches, node.ColdDispatches, node.Restages, node.Replans,
				node.Makespan, node.Max, node.MaxQueueDepth}
			if got != want {
				t.Errorf("rate %v planned %v: one-node cluster %+v, node %+v", rate, planned, got, want)
			}
			if planned && (node.Replans == 0 || node.Restages == 0) {
				t.Errorf("rate %v: planned run never re-planned (%d replans, %d restages)", rate, node.Replans, node.Restages)
			}
			if rate == 3000 && node.Rejected == 0 {
				t.Errorf("rate %v planned %v: saturated run rejected nothing", rate, planned)
			}
			perModel := make(map[string]ModelUsage, len(fleet.PerModel))
			for _, mu := range fleet.PerModel {
				perModel[mu.Model] = mu
			}
			for _, mu := range node.PerModel {
				f := perModel[mu.Model]
				if f.Served != mu.Served || f.WarmBatches != mu.WarmBatches || f.ColdBatches != mu.ColdBatches {
					t.Errorf("rate %v planned %v: model %s served/warm/cold %d/%d/%d in the cluster, %d/%d/%d on the node",
						rate, planned, mu.Model, f.Served, f.WarmBatches, f.ColdBatches, mu.Served, mu.WarmBatches, mu.ColdBatches)
				}
			}
		}
	}
}

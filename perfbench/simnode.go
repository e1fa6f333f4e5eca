package main

import (
	"fmt"
	"reflect"
	"time"

	"neuralcache"
	"neuralcache/obs"
	"neuralcache/plan"
	"neuralcache/serve"
)

// sim-node: one op is one serve.Simulate call on the analytic backend.
// Inception-v3/ResNet-18 Poisson traffic with a 0.8/0.2 mix that
// inverts halfway, like the CI drift smoke; the plan comes from
// plan.CoSelect with the drift controller on, and a front-cache sized
// so that about half of the Zipf(1.1)-reused arrivals hit.
const (
	nodeRequests = 16000
	nodeRate     = 600.0 // arrivals per virtual second
	nodeMaxBatch = 8
	nodeLinger   = 5 * time.Millisecond
	nodeReplan   = 0.15
	nodeCache    = 96 // front-cache entries
	nodeUniverse = 4096
	nodeZipf     = 1.1
)

// countSeed seeds the canonical traffic the deterministic per-layer
// counts are read from, so they repeat on every run whatever -seed is.
const countSeed = 1

type simNode struct {
	seed int64
	t    *tally
}

func newSimNode(seed int64, t *tally) (workload, error) { return &simNode{seed: seed, t: t}, nil }

// nodeMix is the traffic mix before the inversion; the shift swaps the
// weights.
func nodeMix(inception, resnet string, w float64) []serve.ModelShare {
	return []serve.ModelShare{{Model: inception, Weight: w}, {Model: resnet, Weight: 1 - w}}
}

// nodeLoad inverts the mix halfway through the arrival process.
func nodeLoad(seed int64, inception, resnet string) serve.Load {
	span := float64(nodeRequests) / nodeRate
	half := time.Duration(span / 2 * float64(time.Second))
	return serve.Load{
		Rate:        nodeRate,
		Requests:    nodeRequests,
		Seed:        seed,
		Poisson:     true,
		Mix:         nodeMix(inception, resnet, 0.8),
		MixSchedule: []serve.MixShift{{At: half, Mix: nodeMix(inception, resnet, 0.2)}},
		Reuse:       serve.Reuse{ZipfS: nodeZipf, Universe: nodeUniverse},
	}
}

// nodeInstance is one built node plus the report every op must repeat.
type nodeInstance struct {
	t       *tally
	sys     *neuralcache.System
	models  []*neuralcache.Model
	shares  []plan.Share
	plan    *plan.Plan
	backend serve.Backend
	traced  *tracedBackend // nil when untraced
	rec     *recorder
	opts    serve.Options
	load    serve.Load
	want    *serve.LoadReport
}

func (w *simNode) build(rec *recorder) (instance, error) {
	return buildNode(w.seed, w.t, rec)
}

// buildNode constructs the System, the models, the analytic backend and
// the CoSelect plan, then runs the warm-up op, whose report every later
// op must equal.
func buildNode(seed int64, t *tally, rec *recorder) (*nodeInstance, error) {
	cfg := neuralcache.DefaultConfig()
	cfg.Workers = 1
	sys, err := neuralcache.New(cfg)
	if err != nil {
		return nil, err
	}
	inc, res := neuralcache.InceptionV3(), neuralcache.ResNet18()
	x := &nodeInstance{t: t, sys: sys, models: []*neuralcache.Model{inc, res}, rec: rec}
	x.shares = []plan.Share{{Model: inc.Name(), Weight: 0.8}, {Model: res.Name(), Weight: 0.2}}
	x.plan, err = plan.CoSelect(sys, x.models, x.shares, plan.Options{MaxBatch: nodeMaxBatch, RatePerSec: nodeRate})
	if err != nil {
		return nil, err
	}
	x.backend = serve.NewAnalyticBackend(sys, inc, res)
	if rec != nil {
		x.traced = &tracedBackend{Backend: x.backend}
		x.backend = x.traced
		rec.thread(pidSimNode, 0, "Simulate")
	}
	x.opts = serve.Options{
		MaxBatch:  nodeMaxBatch,
		MaxLinger: nodeLinger,
		Plan:      x.plan,
		Replan:    plan.ControllerConfig{Threshold: nodeReplan},
		Cache:     serve.CacheOptions{Capacity: nodeCache},
	}
	x.load = nodeLoad(seed, inc.Name(), res.Name())
	x.want, err = serve.Simulate(x.backend, x.opts, x.load)
	t.check(err == nil && nodeConserves(x.want))
	if err != nil {
		return nil, fmt.Errorf("sim-node warm-up: %w", err)
	}
	return x, nil
}

// nodeConserves checks the report's conservation identities.
func nodeConserves(r *serve.LoadReport) bool {
	return r.Offered == r.Served+r.Rejected &&
		r.WarmDispatches+r.ColdDispatches == r.Batches &&
		r.CacheHits+r.CacheMisses == r.Offered
}

// op runs one Simulate call and checks its report against the warm-up's.
func (x *nodeInstance) op(p *phase) {
	t0 := time.Now()
	rep, err := serve.Simulate(x.backend, x.opts, x.load)
	t1 := time.Now()
	x.t.check(err == nil && nodeConserves(rep) && reflect.DeepEqual(rep, x.want))
	p.done(t0, t1, x.want.Offered)
	if x.rec != nil {
		x.rec.span(pidSimNode, 0, "serve.Simulate", t0, t1.Sub(t0), &obs.Args{Seq: p.ops})
	}
}

func (x *nodeInstance) run(until time.Time, p *phase) error {
	for time.Now().Before(until) {
		x.op(p)
	}
	return nil
}

// layers reports the sampled cost of the pricing calls Simulate makes.
func (x *nodeInstance) layers(m map[string]float64) {
	m["serve.service_time_ns"] = x.traced.pricing.meanNs()
}

func (x *nodeInstance) close() {}

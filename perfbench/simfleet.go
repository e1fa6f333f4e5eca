package main

import (
	"fmt"
	"reflect"
	"time"

	"neuralcache"
	"neuralcache/cluster"
	"neuralcache/obs"
	"neuralcache/plan"
	"neuralcache/serve"
)

// sim-fleet: one op is one cluster.Simulate call. Four heterogeneous
// nodes, two planned with replan and two reactive, behind the
// least-loaded router; a three-model mix with a hot-spot shift and a
// diurnal rate shift; one node killed mid-run and later rejoined. Every
// call rebuilds its nodes (System, analytic backend, plan.Compute), so
// construction and pricing are part of each op.
const (
	fleetRequests = 8000
	fleetRate     = 1800.0 // arrivals per virtual second before the rate shifts
)

// fleetNodes is the fleet: stock planned, 18-slice planned with
// two-slice groups, stock reactive, and a one-socket 24-slice reactive
// node with three-slice groups.
func fleetNodes() []cluster.NodeSpec {
	replan := plan.ControllerConfig{Threshold: nodeReplan}
	return []cluster.NodeSpec{
		{Workers: 1, Plan: true, Replan: replan},
		{Workers: 1, Slices: 18, GroupSize: 2, Plan: true, Replan: replan},
		{Workers: 1},
		{Workers: 1, Sockets: 1, Slices: 24, GroupSize: 3},
	}
}

// fleetSpan is the virtual length of the arrival process at the initial
// rate; the scenario's events are placed as fractions of it.
func fleetSpan(f float64) time.Duration {
	return time.Duration(f * fleetRequests / fleetRate * float64(time.Second))
}

func fleetLoad(seed int64, names []string) cluster.Load {
	mix := func(w ...float64) []serve.ModelShare {
		out := make([]serve.ModelShare, len(names))
		for i, n := range names {
			out[i] = serve.ModelShare{Model: n, Weight: w[i]}
		}
		return out
	}
	return cluster.Load{
		Rate:         fleetRate,
		Requests:     fleetRequests,
		Seed:         seed,
		Poisson:      true,
		Mix:          mix(0.6, 0.3, 0.1),
		MixSchedule:  []serve.MixShift{{At: fleetSpan(0.5), Mix: mix(0.1, 0.2, 0.7)}},
		RateSchedule: []cluster.RateShift{{At: fleetSpan(0.4), Rate: 1.3 * fleetRate}, {At: fleetSpan(0.7), Rate: 0.8 * fleetRate}},
	}
}

// fleetEvents kills the stock reactive node at 30% of the run and
// rejoins it at 60%.
func fleetEvents() []cluster.NodeEvent {
	return []cluster.NodeEvent{
		{At: fleetSpan(0.3), Node: 2, Kind: cluster.KillNode},
		{At: fleetSpan(0.6), Node: 2, Kind: cluster.JoinNode},
	}
}

type simFleet struct {
	seed int64
	t    *tally
}

func newSimFleet(seed int64, t *tally) (workload, error) { return &simFleet{seed: seed, t: t}, nil }

type fleetInstance struct {
	t      *tally
	models []*neuralcache.Model
	router *tracedRouter // nil when untraced
	rec    *recorder
	opts   cluster.Options
	load   cluster.Load
	want   *cluster.Report
}

func (w *simFleet) build(rec *recorder) (instance, error) {
	return buildFleet(w.seed, w.t, rec)
}

// buildFleet constructs the models, the fleet options and the load,
// then runs the warm-up op, whose report every later op must equal.
func buildFleet(seed int64, t *tally, rec *recorder) (*fleetInstance, error) {
	x := &fleetInstance{
		t:      t,
		models: []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18(), neuralcache.SmallCNN()},
		rec:    rec,
	}
	names := make([]string, len(x.models))
	for i, m := range x.models {
		names[i] = m.Name()
	}
	x.opts = cluster.Options{Nodes: fleetNodes(), Router: cluster.LeastLoaded{}, Events: fleetEvents()}
	if rec != nil {
		x.router = &tracedRouter{Router: x.opts.Router}
		x.opts.Router = x.router
		rec.thread(pidSimFleet, 0, "cluster.Simulate")
	}
	x.load = fleetLoad(seed, names)
	var err error
	x.want, err = cluster.Simulate(x.models, x.opts, x.load)
	t.check(err == nil && fleetConserves(x.want))
	if err != nil {
		return nil, fmt.Errorf("sim-fleet warm-up: %w", err)
	}
	return x, nil
}

// fleetConserves checks the report's conservation identities.
func fleetConserves(r *cluster.Report) bool {
	return r.Offered == r.Served+r.Rejected+r.Lost &&
		r.WarmDispatches+r.ColdDispatches == r.Batches
}

// op runs one cluster.Simulate call and checks its report against the
// warm-up's.
func (x *fleetInstance) op(p *phase) {
	t0 := time.Now()
	rep, err := cluster.Simulate(x.models, x.opts, x.load)
	t1 := time.Now()
	x.t.check(err == nil && fleetConserves(rep) && reflect.DeepEqual(rep, x.want))
	p.done(t0, t1, x.want.Offered)
	if x.rec != nil {
		x.rec.span(pidSimFleet, 0, "cluster.Simulate", t0, t1.Sub(t0), &obs.Args{Seq: p.ops})
	}
}

func (x *fleetInstance) run(until time.Time, p *phase) error {
	for time.Now().Before(until) {
		x.op(p)
	}
	return nil
}

// layers reports the sampled cost of a routing decision.
func (x *fleetInstance) layers(m map[string]float64) {
	m["cluster.pick_ns"] = x.router.picks.meanNs()
}

func (x *fleetInstance) close() {}

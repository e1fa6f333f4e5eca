package main

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"neuralcache"
	"neuralcache/internal/bitvec"
	"neuralcache/internal/geometry"
	"neuralcache/internal/sram"
	"neuralcache/obs"
	"neuralcache/plan"
	"neuralcache/serve"
)

// Probe lanes of the trace file, one per layer.
const (
	tidGeometry = iota
	tidCore
	tidSRAM
	tidServe
	tidPlan
	tidCluster
	tidObs
)

// sink keeps probed results reachable so no call is optimized away.
var sink any

// probeMs runs fn reps times after a full GC each, recording each call
// as a span, and returns the median wall time in milliseconds.
func probeMs(rec *recorder, tid int, name string, reps int, fn func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		rec.span(pidProbes, tid, name, t0, d, nil)
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}

// probeNs times sz.probeReps batches of sz.microOps calls of fn and
// returns the median nanoseconds per call.
func probeNs(rec *recorder, tid int, name string, sz sizes, fn func()) float64 {
	xs := make([]float64, 0, sz.probeReps)
	for i := 0; i < sz.probeReps; i++ {
		t0 := time.Now()
		for j := 0; j < sz.microOps; j++ {
			fn()
		}
		d := time.Since(t0)
		rec.span(pidProbes, tid, name, t0, d, &obs.Args{Batch: sz.microOps})
		xs = append(xs, float64(d)/float64(sz.microOps))
	}
	return median(xs)
}

// probeLayers measures every layer directly, from outside, and reads
// the deterministic counts from the canonical (countSeed) runs.
func probeLayers(m map[string]float64, rec *recorder, sz sizes, t *tally) error {
	for tid, name := range []string{"geometry", "core", "sram / bitvec", "serve", "plan", "cluster", "obs"} {
		rec.thread(pidProbes, tid, name)
	}
	for _, probe := range []func(map[string]float64, *recorder, sizes, *tally) error{
		probeGeometry, probeCore, probeSRAM, probeNode, probeFleet,
	} {
		if err := probe(m, rec, sz, t); err != nil {
			return err
		}
	}
	return nil
}

// probeGeometry times geometry.New on the serving LLC — the 14-slice
// cache System.Run instantiates on every call — and weighs it.
func probeGeometry(m map[string]float64, rec *recorder, sz sizes, _ *tally) error {
	cfg := geometry.XeonE5()
	var err error
	m["geometry.new_ms"], err = probeMs(rec, tidGeometry, "geometry.New", sz.probeReps, func() error {
		sink = geometry.New(cfg)
		return nil
	})
	sink = nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sink = geometry.New(cfg)
	runtime.ReadMemStats(&after)
	sink = nil
	m["geometry.new_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return err
}

// probeCore runs System.Run directly and sequentially on each served
// model with a canonical input, checking it against the reference, and
// reads the emergent cycle counters.
func probeCore(m map[string]float64, rec *recorder, sz sizes, t *tally) error {
	cfg := neuralcache.DefaultConfig()
	cfg.Workers = 1
	sys, err := neuralcache.New(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(countSeed))
	arrays, requests := 0.0, 0
	for _, bm := range bxModels {
		mod := bm.build()
		mod.InitWeights(bm.weight)
		h, w, c := mod.InputShape()
		in := neuralcache.NewTensor(h, w, c, 1.0/255)
		for j := range in.Data {
			in.Data[j] = uint8(rng.Intn(256))
		}
		ref, err := mod.RunReference(in)
		if err != nil {
			return err
		}
		var res *neuralcache.InferenceResult
		m["core.run_ms."+bm.name], err = probeMs(rec, tidCore, "System.Run "+mod.Name(), sz.probeReps, func() error {
			var err error
			res, err = sys.Run(mod, in)
			t.check(err == nil && matches(res, ref))
			return err
		})
		if err != nil {
			return err
		}
		m["core.compute_cycles."+bm.name] = float64(res.ComputeCycles)
		m["core.access_cycles."+bm.name] = float64(res.AccessCycles)
		if bm.name == "wide" {
			m["core.fabric_cycles.wide"] = float64(res.FabricBusCycles)
		}
		arrays += float64(bm.count * res.ArraysUsed)
		requests += bm.count
	}
	m["geometry.arrays_used_share"] = arrays / float64(requests) / float64(geometry.XeonE5().ComputeArrays())
	return nil
}

// probeSRAM times the array operations the functional engine issues,
// each on its own array so the operand rows and the product pad keep
// the layout the engine's row map gives them.
func probeSRAM(m map[string]float64, rec *recorder, sz sizes, _ *tally) error {
	vals := make([]uint64, sram.BitLines)
	rng := rand.New(rand.NewSource(countSeed))
	for i := range vals {
		vals[i] = uint64(rng.Intn(256))
	}
	// The conv MAC: an 8-bit input times an 8-bit (or 4-bit) filter
	// weight into a 24-bit partial sum. Rows: input 0-7, filter 8-15,
	// product window and zero pad 16-39, accumulator 40-63.
	mac := func(name string, nB int) float64 {
		weights := make([]uint64, len(vals))
		for i, v := range vals {
			weights[i] = v & (1<<nB - 1)
		}
		a := new(sram.Array)
		a.WriteElements(0, 8, vals)
		a.WriteElements(8, nB, weights)
		return probeNs(rec, tidSRAM, name, sz, func() { a.MulAccAsym(0, 8, 16, 40, 8, nB, 24) })
	}
	m["sram.mulacc8_ns"] = mac("sram.MulAccAsym 8x8", 8)
	m["sram.mulacc_w4_ns"] = mac("sram.MulAccAsym 8x4", 4)

	red := new(sram.Array)
	red.WriteElements(0, 32, vals)
	m["sram.reduce_ns"] = probeNs(rec, tidSRAM, "sram.Reduce", sz, func() { red.Reduce(0, 32, 32, 16) })

	var planes [8]bitvec.Vec256
	bitvec.PackPlanes(vals, 8, planes[:])
	wp := new(sram.Array)
	m["sram.write_planes_ns"] = probeNs(rec, tidSRAM, "sram.WritePlanes", sz, func() {
		wp.WritePlanes(0, 8, planes[:], sram.BitLines)
	})
	m["bitvec.pack_planes_ns"] = probeNs(rec, tidSRAM, "bitvec.PackPlanes", sz, func() {
		bitvec.PackPlanes(vals, 8, planes[:])
	})
	sink = planes
	return nil
}

// probeNode reads the canonical sim-node report and probes the layers
// the node simulator drives: analytic pricing, the front-cache, the
// planner and controller, and the serve tracer.
func probeNode(m map[string]float64, rec *recorder, sz sizes, t *tally) error {
	x, err := buildNode(countSeed, t, rec)
	if err != nil {
		return err
	}
	x.traced.pricing.reset()
	x.op(&phase{})
	m["serve.service_time_calls"] = float64(x.traced.pricing.calls.Load())
	r := x.want
	m["serve.sim.served"] = float64(r.Served)
	m["serve.sim.rejected"] = float64(r.Rejected)
	m["serve.sim.cold"] = float64(r.ColdDispatches)
	m["serve.sim.restages"] = float64(r.Restages)
	m["serve.sim.replans"] = float64(r.Replans)
	m["serve.sim.cache_hit_rate"] = r.CacheHitRate
	m["serve.sim.virtual_p99_ms"] = ms(r.P99)

	inc, res := x.models[0], x.models[1]
	m["core.estimate_ms"], err = probeMs(rec, tidCore, "System.EstimateReplicaGroup", sz.probeReps, func() error {
		var err error
		sink, err = x.sys.EstimateReplicaGroup(inc, nodeMaxBatch, x.plan.GroupSize)
		return err
	})
	if err != nil {
		return err
	}

	cache, err := serve.NewCache(serve.CacheOptions{Capacity: nodeCache})
	if err != nil {
		return err
	}
	for k := uint64(0); k < nodeCache; k++ {
		cache.InsertKey(inc.Name(), k)
	}
	var key uint64
	hits := 0
	m["serve.cache_lookup_ns"] = probeNs(rec, tidServe, "Cache.LookupKey", sz, func() {
		if cache.LookupKey(inc.Name(), key%nodeCache) {
			hits++
		}
		key++
	})
	t.check(hits == int(key))
	m["serve.cache_insert_ns"] = probeNs(rec, tidServe, "Cache.InsertKey", sz, func() {
		cache.InsertKey(inc.Name(), nodeCache+key)
		key++
	})

	m["plan.coselect_ms"], err = probeMs(rec, tidPlan, "plan.CoSelect", sz.probeReps, func() error {
		var err error
		sink, err = plan.CoSelect(x.sys, x.models, x.shares, plan.Options{MaxBatch: nodeMaxBatch, RatePerSec: nodeRate})
		return err
	})
	if err != nil {
		return err
	}
	// Feed the controller the plan's own 4:1 mix, so it observes and
	// checks for drift without re-planning: the per-dispatch path.
	ctrl, err := plan.NewController(x.sys, x.models, x.plan, plan.ControllerConfig{Threshold: nodeReplan})
	if err != nil {
		return err
	}
	var now time.Duration
	i := 0
	m["plan.observe_ns"] = probeNs(rec, tidPlan, "Controller.Observe", sz, func() {
		name := inc.Name()
		if i%5 == 4 {
			name = res.Name()
		}
		now += time.Millisecond
		ctrl.Observe(name, nodeMaxBatch, now)
		i++
	})
	replans := 0
	m["plan.maybe_replan_ns"] = probeNs(rec, tidPlan, "Controller.MaybeReplan", sz, func() {
		now += time.Millisecond
		if _, _, ok := ctrl.MaybeReplan(now); ok {
			replans++
		}
	})
	t.check(replans == 0)

	return probeTracer(m, rec, sz, t)
}

// probeTracer compares canonical sim-node ops with Options.Trace on and
// off, and times writing the trace out.
func probeTracer(m map[string]float64, rec *recorder, sz sizes, t *tally) error {
	x, err := buildNode(countSeed, t, nil)
	if err != nil {
		return err
	}
	traced := x.opts
	var plain, withTrace []float64
	var tr *serve.Tracer
	for i := 0; i < sz.probeReps; i++ {
		for _, on := range []bool{false, true} {
			opts := x.opts
			if on {
				tr = serve.NewTracer()
				traced.Trace = tr
				opts = traced
			}
			runtime.GC()
			t0 := time.Now()
			rep, err := serve.Simulate(x.backend, opts, x.load)
			d := time.Since(t0)
			t.check(err == nil && reflect.DeepEqual(rep, x.want))
			if on {
				withTrace = append(withTrace, ms(d))
				rec.span(pidProbes, tidObs, "serve.Simulate traced", t0, d, nil)
			} else {
				plain = append(plain, ms(d))
				rec.span(pidProbes, tidObs, "serve.Simulate untraced", t0, d, nil)
			}
		}
	}
	m["obs.trace_overhead_share"] = median(withTrace)/median(plain) - 1
	m["obs.trace_events"] = float64(tr.Len())
	m["obs.write_json_ms"], err = probeMs(rec, tidObs, "Tracer.WriteJSON", sz.probeReps, func() error {
		return tr.WriteJSON(io.Discard)
	})
	return err
}

// probeFleet reads the canonical sim-fleet report and probes what every
// cluster.Simulate call repeats: routing, node construction with its
// analytic pricing, and plan.Compute for the planned nodes.
func probeFleet(m map[string]float64, rec *recorder, sz sizes, t *tally) error {
	x, err := buildFleet(countSeed, t, rec)
	if err != nil {
		return err
	}
	x.router.picks.reset()
	x.op(&phase{})
	m["cluster.picks"] = float64(x.router.picks.calls.Load())
	r := x.want
	m["cluster.sim.served"] = float64(r.Served)
	m["cluster.sim.lost"] = float64(r.Lost)
	m["cluster.sim.rejected"] = float64(r.Rejected)
	m["cluster.sim.cold"] = float64(r.ColdDispatches)
	m["cluster.sim.restages"] = float64(r.Restages)
	m["cluster.sim.virtual_p99_ms"] = ms(r.P99)

	// One node as cluster.Simulate builds it: the heterogeneous planned
	// node (18 slices in two-slice groups), its analytic backend, and
	// the service and reload prices of every model at a full batch.
	spec := fleetNodes()[1]
	m["cluster.node_setup_ms"], err = probeMs(rec, tidCluster, "node setup", sz.probeReps, func() error {
		cfg := neuralcache.DefaultConfig()
		cfg.Slices, cfg.GroupSize, cfg.Workers = spec.Slices, spec.GroupSize, spec.Workers
		sys, err := neuralcache.New(cfg)
		if err != nil {
			return err
		}
		be := serve.NewAnalyticBackend(sys, x.models[0], x.models[1:]...)
		for _, mod := range x.models {
			if _, err := be.ServiceTime(mod.Name(), 16, spec.GroupSize); err != nil {
				return err
			}
			if _, err := be.ReloadTime(mod.Name(), spec.GroupSize); err != nil {
				return err
			}
		}
		sink = be
		return nil
	})
	if err != nil {
		return err
	}

	cfg := neuralcache.DefaultConfig()
	cfg.Workers = 1
	sys, err := neuralcache.New(cfg)
	if err != nil {
		return err
	}
	shares := make([]plan.Share, len(x.load.Mix))
	for i, s := range x.load.Mix {
		shares[i] = plan.Share{Model: s.Model, Weight: s.Weight}
	}
	nodes := float64(len(x.opts.Nodes))
	m["plan.compute_ms"], err = probeMs(rec, tidPlan, "plan.Compute", sz.probeReps, func() error {
		var err error
		sink, err = plan.Compute(sys, x.models, shares, plan.Options{MaxBatch: 16, RatePerSec: fleetRate / nodes})
		return err
	})
	return err
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in print order. They
// are what a user of the serving tier sees and what later changes are
// gated on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"alloc_kb_per_req", "KiB"},
}

// perLayer lists the metrics of a traced run, grouped by the module
// they measure. README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricDef{
	{"geometry.new_ms", "ms"},
	{"geometry.new_mb", "MiB"},
	{"geometry.arrays_used_share", "share"},

	{"core.run_ms.small", "ms"},
	{"core.run_ms.int4", "ms"},
	{"core.run_ms.wide", "ms"},
	{"core.compute_cycles.small", "cycles"},
	{"core.compute_cycles.int4", "cycles"},
	{"core.compute_cycles.wide", "cycles"},
	{"core.access_cycles.small", "cycles"},
	{"core.access_cycles.int4", "cycles"},
	{"core.access_cycles.wide", "cycles"},
	{"core.fabric_cycles.wide", "cycles"},
	{"core.estimate_ms", "ms"},

	{"sram.mulacc8_ns", "ns"},
	{"sram.mulacc_w4_ns", "ns"},
	{"sram.reduce_ns", "ns"},
	{"sram.write_planes_ns", "ns"},
	{"bitvec.pack_planes_ns", "ns"},

	{"serve.queue_p50_ms", "ms"},
	{"serve.queue_p99_ms", "ms"},
	{"serve.service_p50_ms", "ms"},
	{"serve.execute_ms_per_req", "ms"},
	{"serve.batch_mean", "req"},
	{"serve.warm_share", "share"},

	{"serve.service_time_calls", "count"},
	{"serve.service_time_ns", "ns"},
	{"serve.cache_lookup_ns", "ns"},
	{"serve.cache_insert_ns", "ns"},
	{"serve.sim.served", "count"},
	{"serve.sim.rejected", "count"},
	{"serve.sim.cold", "count"},
	{"serve.sim.restages", "count"},
	{"serve.sim.replans", "count"},
	{"serve.sim.cache_hit_rate", "share"},
	{"serve.sim.virtual_p99_ms", "ms"},

	{"plan.coselect_ms", "ms"},
	{"plan.compute_ms", "ms"},
	{"plan.observe_ns", "ns"},
	{"plan.maybe_replan_ns", "ns"},

	{"cluster.pick_ns", "ns"},
	{"cluster.picks", "count"},
	{"cluster.node_setup_ms", "ms"},
	{"cluster.sim.served", "count"},
	{"cluster.sim.lost", "count"},
	{"cluster.sim.rejected", "count"},
	{"cluster.sim.cold", "count"},
	{"cluster.sim.restages", "count"},
	{"cluster.sim.virtual_p99_ms", "ms"},

	{"obs.trace_overhead_share", "share"},
	{"obs.trace_events", "count"},
	{"obs.write_json_ms", "ms"},

	{"bench.trace_overhead_share", "share"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult attaches units to raw values, checking that values holds
// exactly the metrics of defs.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (*result, error) {
	r := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, expected %d", len(values), len(defs))
	}
	return r, nil
}

// write prints one metric per line, then the result object as the last
// line.
func (r *result) write(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "# %-30s %16.6f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// percentile returns the nearest-rank q-quantile (q in [0, 1]) of the
// durations, in milliseconds. It sorts its argument.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := int(q*float64(len(d))+0.5) - 1
	rank = max(0, min(rank, len(d)-1))
	return ms(d[rank])
}

// median returns the median of xs. It sorts its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

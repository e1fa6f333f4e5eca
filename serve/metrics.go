package serve

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"neuralcache/internal/node"
	"neuralcache/internal/report"
	"neuralcache/obs"
	"neuralcache/plan"
)

// ModelUsage is one registered model's share of a load run.
type ModelUsage struct {
	Model    string `json:"model"`
	Offered  int    `json:"offered"`
	Served   int    `json:"served"`
	Rejected int    `json:"rejected"`
	Batches  int    `json:"batches"`
	// WarmBatches rode a replica already staging this model;
	// ColdBatches paid the §IV-E weight reload.
	WarmBatches int `json:"warm_batches"`
	ColdBatches int `json:"cold_batches"`
	// CacheHits were served from the memoizing front-cache at admission
	// (never reaching a replica group); CacheMisses went on through the
	// normal path. All zero — and omitted — when Options.Cache is off,
	// keeping the historical schema.
	CacheHits        int           `json:"cache_hits,omitempty"`
	CacheMisses      int           `json:"cache_misses,omitempty"`
	CacheHitRate     float64       `json:"cache_hit_rate,omitempty"`
	ThroughputPerSec float64       `json:"throughput_per_sec"`
	P50              time.Duration `json:"p50_ns"`
	P95              time.Duration `json:"p95_ns"`
	P99              time.Duration `json:"p99_ns"`
	Max              time.Duration `json:"max_ns"`
}

// LoadReport is the outcome of one load run — Simulate (virtual clock)
// or LoadTest (wall clock). All duration fields marshal to JSON as
// integer nanoseconds.
type LoadReport struct {
	Backend string `json:"backend"`
	// Model lists the registered models, comma-joined in registration
	// order; per-model accounting is in PerModel.
	Model string `json:"model"`
	// Replicas is the number of replica groups scheduled on; each group
	// is GroupSize slices of one socket.
	Replicas int `json:"replicas"`
	// GroupSize is the slices per replica group. 0 (omitted in JSON)
	// means 1 — the paper's single-slice replication — keeping k=1
	// reports identical to the historical schema.
	GroupSize int `json:"group_size,omitempty"`
	// Concurrency echoes Load.Concurrency: 0 for open-loop runs, the
	// closed-loop user population otherwise.
	Concurrency int           `json:"concurrency,omitempty"`
	MaxBatch    int           `json:"max_batch"`
	MaxLinger   time.Duration `json:"max_linger_ns"`
	QueueDepth  int           `json:"queue_depth"`
	// Virtual marks a virtual-clock (Simulate) run; false means
	// wall-clock (LoadTest).
	Virtual bool `json:"virtual"`

	Offered   int     `json:"offered"`
	Served    int     `json:"served"`
	Rejected  int     `json:"rejected"`
	Batches   int     `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`

	// WarmDispatches found their model already staged on the replica;
	// ColdDispatches paid the §IV-E weight reload (model switch or a
	// replica's first batch).
	WarmDispatches int `json:"warm_dispatches"`
	ColdDispatches int `json:"cold_dispatches"`

	// Front-cache accounting (Options.Cache). CacheHits completed at
	// admission for a hash probe's cost and never occupied a replica
	// group; CacheMisses probed and went on through the normal path
	// (CacheHits + CacheMisses == Offered). CacheInserts counts entries
	// created on miss completion, CacheEvictions the LRU victims beyond
	// capacity, and CacheHitRate is hits over probes. All zero — and
	// omitted from JSON — when the cache is off, keeping the historical
	// report schema.
	CacheHits      int     `json:"cache_hits,omitempty"`
	CacheMisses    int     `json:"cache_misses,omitempty"`
	CacheInserts   int     `json:"cache_inserts,omitempty"`
	CacheEvictions int     `json:"cache_evictions,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`

	// Makespan spans first arrival to last completion.
	Makespan         time.Duration `json:"makespan_ns"`
	ThroughputPerSec float64       `json:"throughput_per_sec"`
	// CapacityPerSec is the Estimate-derived replica-group bound the
	// scheduler cannot beat: Replicas × MaxBatch over the served-share
	// weighted mean warm ServiceTime(MaxBatch, GroupSize).
	CapacityPerSec float64 `json:"capacity_per_sec"`

	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	// MeanQueueDepth is the time-weighted average depth on Simulate
	// reports (∫depth dt / makespan); wall-clock LoadTest reports the
	// arithmetic mean of the depth sampled at each admission instead,
	// which never observes idle periods and so reads higher under bursty
	// arrivals. Compare the two with that bias in mind.
	MeanQueueDepth float64 `json:"mean_queue_depth"`
	MaxQueueDepth  int     `json:"max_queue_depth"`
	// Utilization is the mean busy fraction across replicas over the
	// makespan.
	Utilization float64      `json:"utilization"`
	PerModel    []ModelUsage `json:"per_model,omitempty"`
	PerShard    []ShardUsage `json:"per_shard"`
	Histogram   []HistBucket `json:"histogram"`

	// Plan is the residency plan active at the end of the run (the
	// last controller re-plan, or Options.Plan verbatim); nil for
	// reactive runs — absent from JSON so unplanned reports keep the
	// historical schema.
	Plan *plan.Plan `json:"plan,omitempty"`
	// Restages counts planner-driven weight stagings: the startup
	// pre-stage of every pinned group plus controller rebalances. Cold
	// dispatches are counted separately — a planned run's total reload
	// traffic is Restages + ColdDispatches. Like the shard tallies,
	// LoadTest windows this to its own run, so a server's startup
	// pre-stages (paid before the load began) appear in Server.Stats
	// but not here; Simulate reports them, its window being the whole
	// run.
	Restages int `json:"restages,omitempty"`
	// Replans counts controller re-plans applied during the run.
	Replans int `json:"replans,omitempty"`
	// Timeline is the run's sampled time series, recorded when
	// Options.TimelineInterval is positive — on the virtual clock in
	// Simulate (byte-deterministic), on the wall clock in LoadTest. nil
	// when sampling is off, so historical report schemas are unchanged.
	Timeline *obs.Timeline `json:"timeline,omitempty"`
}

// finish derives capacity, percentiles, histogram, utilization and the
// per-model breakdown from the raw samples; shared by Simulate and
// LoadTest. perModel maps model names to their latency samples and may
// be nil. Both callers hand over samples they no longer need, which
// finish reorders in place: it ranks each percentile by selection
// (node.Rank) and sorts no slice. A zero window leaves throughput and
// utilization fields zero; empty latencies leave percentiles zero and
// the histogram empty.
func (r *LoadReport) finish(backend Backend, latencies []time.Duration, perModel map[string][]time.Duration, window time.Duration) error {
	if err := r.capacity(backend); err != nil {
		return err
	}
	if len(latencies) > 0 {
		r.P50 = percentile(latencies, 0.50)
		r.P90 = percentile(latencies, 0.90)
		r.P95 = percentile(latencies, 0.95)
		r.P99 = percentile(latencies, 0.99)
		r.Max = slices.Max(latencies)
	}
	r.Histogram = histogram(latencies)
	for i := range r.PerModel {
		mu := &r.PerModel[i]
		lat := perModel[mu.Model]
		if len(lat) > 0 {
			mu.P50 = percentile(lat, 0.50)
			mu.P95 = percentile(lat, 0.95)
			mu.P99 = percentile(lat, 0.99)
			mu.Max = slices.Max(lat)
		}
		if window > 0 {
			mu.ThroughputPerSec = float64(mu.Served) / window.Seconds()
		}
	}
	var busy time.Duration
	for i := range r.PerShard {
		busy += r.PerShard[i].Busy
		if window > 0 {
			r.PerShard[i].Utilization = float64(r.PerShard[i].Busy) / float64(window)
		}
	}
	if window > 0 && len(r.PerShard) > 0 {
		r.Utilization = float64(busy) / float64(window*time.Duration(len(r.PerShard)))
	}
	return nil
}

// groupSize returns the effective slices per replica group (the zero
// field means the single-slice default).
func (r *LoadReport) groupSize() int {
	if r.GroupSize <= 0 {
		return 1
	}
	return r.GroupSize
}

// capacity computes the replica-group throughput bound. With one model
// (or no served traffic) it is Replicas × MaxBatch /
// ServiceTime(MaxBatch, GroupSize); a multi-model run weights each
// model's warm service time by its served share.
func (r *LoadReport) capacity(backend Backend) error {
	totalServed := 0
	for _, mu := range r.PerModel {
		totalServed += mu.Served
	}
	var meanSec float64
	if totalServed == 0 {
		st, err := backend.ServiceTime("", r.MaxBatch, r.groupSize())
		if err != nil {
			return err
		}
		meanSec = st.Seconds()
	} else {
		for _, mu := range r.PerModel {
			if mu.Served == 0 {
				continue
			}
			st, err := backend.ServiceTime(mu.Model, r.MaxBatch, r.groupSize())
			if err != nil {
				return err
			}
			meanSec += float64(mu.Served) / float64(totalServed) * st.Seconds()
		}
	}
	if meanSec > 0 {
		r.CapacityPerSec = float64(r.Replicas*r.MaxBatch) / meanSec
	}
	return nil
}

// percentile returns the nearest-rank q-th percentile of samples,
// which it reorders (node.Rank).
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return node.Rank(samples, idx)
}

// HistBucket is one power-of-two latency bucket: [Lo, Hi).
type HistBucket struct {
	Lo    time.Duration `json:"lo_ns"`
	Hi    time.Duration `json:"hi_ns"`
	Count int           `json:"count"`
}

// histogram buckets latencies, in any order, by power-of-two
// microseconds, including empty buckets between the occupied extremes
// so bar charts read as a contiguous distribution.
func histogram(latencies []time.Duration) []HistBucket {
	if len(latencies) == 0 {
		return nil
	}
	bucket := func(d time.Duration) int {
		if d < 0 {
			d = 0
		}
		return bits.Len64(uint64(d / time.Microsecond))
	}
	lo, hi := bucket(slices.Min(latencies)), bucket(slices.Max(latencies))
	counts := make([]int, hi-lo+1)
	for _, d := range latencies {
		counts[bucket(d)-lo]++
	}
	out := make([]HistBucket, len(counts))
	for i := range counts {
		b := HistBucket{Count: counts[i]}
		if idx := lo + i; idx > 0 {
			b.Lo = time.Duration(1<<(idx-1)) * time.Microsecond
			b.Hi = time.Duration(1<<idx) * time.Microsecond
		} else {
			b.Hi = time.Microsecond
		}
		out[i] = b
	}
	return out
}

// String renders the report as the CLI's latency histogram and
// utilization summary.
func (r *LoadReport) String() string {
	var b strings.Builder
	clock := "wall"
	if r.Virtual {
		clock = "virtual"
	}
	unit := "1 slice"
	if k := r.groupSize(); k > 1 {
		unit = fmt.Sprintf("%d slices", k)
	}
	fmt.Fprintf(&b, "%s serve of %s: %d replica groups of %s each, batch ≤%d, linger %v, queue %d\n",
		r.Backend, r.Model, r.Replicas, unit, r.MaxBatch, r.MaxLinger, r.QueueDepth)
	if r.Concurrency > 0 {
		fmt.Fprintf(&b, "closed loop: %d users, one request in flight each\n", r.Concurrency)
	}
	fmt.Fprintf(&b, "offered %d  served %d  rejected %d  batches %d (mean %.2f, %d warm / %d cold)\n",
		r.Offered, r.Served, r.Rejected, r.Batches, r.MeanBatch,
		r.WarmDispatches, r.ColdDispatches)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "front-cache: %d hits / %d probes (%s)  %d inserts  %d evictions\n",
			r.CacheHits, r.CacheHits+r.CacheMisses, report.Pct(r.CacheHitRate),
			r.CacheInserts, r.CacheEvictions)
	}
	if r.Plan != nil {
		fmt.Fprintf(&b, "residency plan: %d groups pinned, %d overflow; %d restages, %d replans; cold dispatches predicted %d, observed %d (+%d restages)\n",
			r.Plan.PinnedGroups(), len(r.Plan.Overflow), r.Restages, r.Replans,
			r.Plan.PredictedColdDispatches, r.ColdDispatches, r.Restages)
	}
	fmt.Fprintf(&b, "makespan %v (%s clock)  throughput %.1f/s  capacity %.1f/s  utilization %s\n",
		r.Makespan.Round(time.Microsecond), clock,
		r.ThroughputPerSec, r.CapacityPerSec, report.Pct(r.Utilization))
	fmt.Fprintf(&b, "latency p50 %v  p90 %v  p95 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	fmt.Fprintf(&b, "queue depth mean %.1f  max %d\n", r.MeanQueueDepth, r.MaxQueueDepth)
	if r.Timeline != nil {
		fmt.Fprintf(&b, "timeline: %d samples every %v\n",
			len(r.Timeline.Samples), r.Timeline.Interval)
	}
	if len(r.PerModel) > 1 {
		t := report.NewTable("Per-model traffic", "Model", "Served", "Rejected", "Warm", "Cold", "Thru/s", "p50", "p99")
		for _, mu := range r.PerModel {
			t.Add(mu.Model, fmt.Sprint(mu.Served), fmt.Sprint(mu.Rejected),
				fmt.Sprint(mu.WarmBatches), fmt.Sprint(mu.ColdBatches),
				fmt.Sprintf("%.1f", mu.ThroughputPerSec),
				mu.P50.Round(time.Microsecond).String(),
				mu.P99.Round(time.Microsecond).String())
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if len(r.Histogram) > 0 {
		labels := make([]string, len(r.Histogram))
		values := make([]float64, len(r.Histogram))
		for i, h := range r.Histogram {
			labels[i] = fmt.Sprintf("< %v", h.Hi)
			values[i] = float64(h.Count)
		}
		b.WriteString(report.Bars("Latency histogram", labels, values, 40))
		b.WriteByte('\n')
	}
	if len(r.PerShard) > 0 {
		// Planned reports add Pinned/Restages columns after Group and
		// Reloads respectively; the row shape is otherwise shared.
		var pinned []string
		cols := []string{"Group", "Batches", "Requests", "Reloads", "Busy", "Util"}
		if r.Plan != nil {
			pinned = r.Plan.Pinned()
			cols = []string{"Group", "Pinned", "Batches", "Requests", "Reloads", "Restages", "Busy", "Util"}
		}
		t := report.NewTable("Replica-group utilization", cols...)
		for i, u := range r.PerShard {
			row := []string{u.Shard.String()}
			if pinned != nil {
				pin := "-"
				if i < len(pinned) && pinned[i] != "" {
					pin = pinned[i]
				}
				row = append(row, pin)
			}
			row = append(row, fmt.Sprint(u.Batches), fmt.Sprint(u.Requests), fmt.Sprint(u.Reloads))
			if pinned != nil {
				row = append(row, fmt.Sprint(u.Restages))
			}
			row = append(row, u.Busy.Round(time.Microsecond).String(), report.Pct(u.Utilization))
			t.Add(row...)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

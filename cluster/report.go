package cluster

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"neuralcache/internal/node"
	"neuralcache/internal/report"
	"neuralcache/obs"
)

// NodeReport is one node's share of a cluster run.
type NodeReport struct {
	Node      string `json:"node"`
	Sockets   int    `json:"sockets"`
	Slices    int    `json:"slices"`
	GroupSize int    `json:"group_size,omitempty"`
	Groups    int    `json:"groups"`
	Planned   bool   `json:"planned,omitempty"`
	// State is the node's lifecycle state at the end of the run
	// ("live", "draining" or "down").
	State string `json:"state"`
	// Routed counts the arrivals the router sent here (admitted or
	// rejected at this node's queue); Lost counts requests dropped by a
	// kill — queued or in flight when the node went down.
	Routed   int `json:"routed"`
	Served   int `json:"served"`
	Rejected int `json:"rejected"`
	Lost     int `json:"lost,omitempty"`

	Batches        int     `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	WarmDispatches int     `json:"warm_dispatches"`
	ColdDispatches int     `json:"cold_dispatches"`
	Restages       int     `json:"restages,omitempty"`
	Replans        int     `json:"replans,omitempty"`

	MaxQueueDepth int `json:"max_queue_depth"`
	// Utilization is the node's charged occupancy (batch service +
	// reloads + restages, charged at claim) over groups × makespan. A
	// node killed mid-batch keeps the charge, so brief overshoot past
	// the naive bound is possible.
	Utilization float64 `json:"utilization"`
	// CapacityPerSec is the node's replica-group throughput bound:
	// Groups × MaxBatch over the served-share weighted mean warm
	// ServiceTime(MaxBatch, GroupSize).
	CapacityPerSec float64 `json:"capacity_per_sec"`

	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// ModelUsage is one model's fleet-level share of a cluster run.
type ModelUsage struct {
	Model    string `json:"model"`
	Offered  int    `json:"offered"`
	Served   int    `json:"served"`
	Rejected int    `json:"rejected"`
	Lost     int    `json:"lost,omitempty"`
	// WarmBatches rode a group already staging this model; ColdBatches
	// paid the §IV-E weight reload.
	WarmBatches int `json:"warm_batches"`
	ColdBatches int `json:"cold_batches"`
	// NodesServed is how many distinct nodes dispatched this model —
	// the affinity spread: 1 under a stable rendezvous home, up to the
	// fleet size under model-blind routing.
	NodesServed int           `json:"nodes_served"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
}

// Report is the outcome of one cluster.Simulate run. All duration
// fields marshal to JSON as integer nanoseconds; the schema is
// deterministic for a given (models, options, load) triple.
type Report struct {
	// Router names the routing policy; Models comma-joins the
	// registered models in registration order.
	Router string `json:"router"`
	Models string `json:"models"`
	// Events echoes the lifecycle scenario the run replayed.
	Events []NodeEvent  `json:"events,omitempty"`
	Nodes  []NodeReport `json:"nodes"`

	Offered int `json:"offered"`
	Served  int `json:"served"`
	// RejectedNoNode counts arrivals refused at the front door because
	// no node was accepting; RejectedQueueFull counts arrivals the
	// routed node's admission queue refused. Rejected is their sum.
	Rejected          int `json:"rejected"`
	RejectedQueueFull int `json:"rejected_queue_full,omitempty"`
	RejectedNoNode    int `json:"rejected_no_node,omitempty"`
	// Lost counts admitted requests dropped by node kills.
	Lost int `json:"lost,omitempty"`

	Batches        int     `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	WarmDispatches int     `json:"warm_dispatches"`
	ColdDispatches int     `json:"cold_dispatches"`
	Restages       int     `json:"restages,omitempty"`
	Replans        int     `json:"replans,omitempty"`

	// Makespan spans first arrival to last completion.
	Makespan         time.Duration `json:"makespan_ns"`
	ThroughputPerSec float64       `json:"throughput_per_sec"`
	// CapacityPerSec sums the surviving (non-down) nodes' bounds.
	CapacityPerSec float64 `json:"capacity_per_sec"`

	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	MaxQueueDepth int `json:"max_queue_depth"`

	PerModel []ModelUsage  `json:"per_model,omitempty"`
	Timeline *obs.Timeline `json:"timeline,omitempty"`
}

// percentile returns the sample of rank int(p/100·n+0.5)−1, clamped:
// the rank p/100·n rounded half up. Serve's nearest-rank rule takes
// ⌈p/100·n⌉−1 instead, so the two differ when p/100·n has a fraction
// below one half (first at n = 6, p = 90: the 5th sample here, the 6th
// in serve). The golden cluster report pins this rule. It reorders
// samples (node.Rank).
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return node.Rank(samples, rank)
}

// nodeCapacity is the node's Estimate-derived throughput bound,
// weighted by what it actually served (the launch mix when it served
// nothing).
func (s *sim) nodeCapacity(n *simNode) float64 {
	type share struct {
		mi int
		w  float64
	}
	var shares []share
	total := 0.0
	for mi, k := range n.servedPerModel {
		if k > 0 {
			shares = append(shares, share{mi, float64(k)})
			total += float64(k)
		}
	}
	if len(shares) == 0 {
		for _, ms := range s.initialMix {
			mi, err := s.resolve(ms.Model)
			if err != nil || ms.Weight <= 0 {
				continue
			}
			shares = append(shares, share{mi, ms.Weight})
			total += ms.Weight
		}
	}
	if total <= 0 {
		return 0
	}
	mean := 0.0
	for _, sh := range shares {
		st, err := n.backend.ServiceTime(s.names[sh.mi], n.spec.MaxBatch, n.spec.GroupSize)
		if err != nil {
			continue
		}
		mean += sh.w / total * st.Seconds()
	}
	if mean <= 0 {
		return 0
	}
	return float64(n.spec.Replicas) * float64(n.spec.MaxBatch) / mean
}

// report assembles the run's Report.
func (s *sim) report() (*Report, error) {
	r := &Report{
		Router:            s.router.Name(),
		Models:            strings.Join(s.names, ","),
		Events:            append([]NodeEvent(nil), s.opts.Events...),
		Offered:           s.offered,
		Served:            s.served,
		Rejected:          s.rejectedFull + s.rejectedNoNode,
		RejectedQueueFull: s.rejectedFull,
		RejectedNoNode:    s.rejectedNoNode,
		Lost:              s.lost,
		MaxQueueDepth:     s.maxDepth,
	}
	makespan := s.lastCompletion - s.firstArrival
	if makespan < 0 {
		makespan = 0
	}
	r.Makespan = makespan
	perModel, perNode := s.latencies.Split(len(s.perModel), len(s.nodes))
	for ni, n := range s.nodes {
		nr := NodeReport{
			Node:           n.spec.Name,
			Sockets:        n.spec.Sockets,
			Slices:         n.spec.Slices,
			Groups:         n.spec.Replicas,
			Planned:        n.spec.Plan,
			State:          n.state.String(),
			Routed:         n.routed,
			Served:         n.served,
			Rejected:       n.rejected,
			Lost:           n.lost,
			Batches:        n.Batches,
			WarmDispatches: n.Warm,
			ColdDispatches: n.Cold,
			Restages:       n.Restages,
			Replans:        n.Replans,
			MaxQueueDepth:  n.MaxDepth(),
			CapacityPerSec: s.nodeCapacity(n),
		}
		if n.spec.GroupSize > 1 {
			nr.GroupSize = n.spec.GroupSize
		}
		if n.Batches > 0 {
			nr.MeanBatch = float64(n.Batched) / float64(n.Batches)
		}
		if makespan > 0 {
			nr.Utilization = n.busy.Seconds() / (makespan.Seconds() * float64(n.spec.Replicas))
		}
		lat := perNode[ni]
		nr.P50 = percentile(lat, 50)
		nr.P99 = percentile(lat, 99)
		r.Nodes = append(r.Nodes, nr)
		r.Batches += n.Batches
		r.WarmDispatches += n.Warm
		r.ColdDispatches += n.Cold
		r.Restages += n.Restages
		r.Replans += n.Replans
		if n.state != stateDown {
			r.CapacityPerSec += nr.CapacityPerSec
		}
	}
	if r.Batches > 0 {
		batched := 0
		for _, n := range s.nodes {
			batched += n.Batched
		}
		r.MeanBatch = float64(batched) / float64(r.Batches)
	}
	if makespan > 0 {
		r.ThroughputPerSec = float64(s.served) / makespan.Seconds()
	}
	all := s.latencies.All
	r.P50 = percentile(all, 50)
	r.P90 = percentile(all, 90)
	r.P99 = percentile(all, 99)
	if len(all) > 0 {
		r.Max = slices.Max(all)
	}
	for mi, st := range s.perModel {
		if st.offered == 0 && st.served == 0 && st.rejected == 0 && st.lost == 0 {
			continue
		}
		mu := ModelUsage{
			Model:    st.name,
			Offered:  st.offered,
			Served:   st.served,
			Rejected: st.rejected,
			Lost:     st.lost,
		}
		for _, n := range s.nodes {
			t := n.Models[mi]
			mu.WarmBatches += t.Warm
			mu.ColdBatches += t.Cold
			if t.Warm+t.Cold > 0 {
				mu.NodesServed++
			}
		}
		lat := perModel[mi]
		mu.P50 = percentile(lat, 50)
		mu.P99 = percentile(lat, 99)
		r.PerModel = append(r.PerModel, mu)
	}
	if s.timeline != nil {
		r.Timeline = s.timeline.finish(s)
	}
	return r, nil
}

// String renders the report as text tables.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes, router %s, models %s\n", len(r.Nodes), r.Router, r.Models)
	fmt.Fprintf(&b, "offered %d  served %d  rejected %d (queue-full %d, no-node %d)  lost %d\n",
		r.Offered, r.Served, r.Rejected, r.RejectedQueueFull, r.RejectedNoNode, r.Lost)
	fmt.Fprintf(&b, "batches %d (mean %.2f)  warm %d  cold %d  restages %d  replans %d\n",
		r.Batches, r.MeanBatch, r.WarmDispatches, r.ColdDispatches, r.Restages, r.Replans)
	fmt.Fprintf(&b, "makespan %v  throughput %.1f/s  capacity %.1f/s\n", r.Makespan.Round(time.Microsecond), r.ThroughputPerSec, r.CapacityPerSec)
	fmt.Fprintf(&b, "latency p50 %v  p90 %v  p99 %v  max %v\n\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	nodes := report.NewTable("Nodes",
		"node", "geometry", "state", "routed", "served", "rej", "lost", "warm", "cold", "restage", "replan", "util", "p99")
	for _, n := range r.Nodes {
		geom := fmt.Sprintf("%dx%d", n.Sockets, n.Slices)
		if n.GroupSize > 1 {
			geom += fmt.Sprintf("/%d", n.GroupSize)
		}
		nodes.Add(n.Node, geom, n.State,
			fmt.Sprint(n.Routed), fmt.Sprint(n.Served), fmt.Sprint(n.Rejected), fmt.Sprint(n.Lost),
			fmt.Sprint(n.WarmDispatches), fmt.Sprint(n.ColdDispatches),
			fmt.Sprint(n.Restages), fmt.Sprint(n.Replans),
			report.Pct(n.Utilization), n.P99.Round(time.Microsecond).String())
	}
	b.WriteString(nodes.String())
	if len(r.PerModel) > 0 {
		b.WriteString("\n")
		models := report.NewTable("Models",
			"model", "offered", "served", "rej", "lost", "warm", "cold", "nodes", "p50", "p99")
		for _, m := range r.PerModel {
			models.Add(m.Model,
				fmt.Sprint(m.Offered), fmt.Sprint(m.Served), fmt.Sprint(m.Rejected), fmt.Sprint(m.Lost),
				fmt.Sprint(m.WarmBatches), fmt.Sprint(m.ColdBatches), fmt.Sprint(m.NodesServed),
				m.P50.Round(time.Microsecond).String(), m.P99.Round(time.Microsecond).String())
		}
		b.WriteString(models.String())
	}
	return b.String()
}

// fleetTimeline samples the fleet's time series at a fixed interval of
// the virtual clock. Instantaneous fields read the simulator state at
// the boundary (before the boundary event applies); windowed counters
// are differences of the run's totals, so they sum to them. GroupUtil
// carries one entry per node — the node's charged busy fraction of the
// window, which can exceed 1 briefly because occupancy is charged at
// claim.
type fleetTimeline struct {
	interval time.Duration
	next     time.Duration
	prev     time.Duration
	samples  []obs.TimelinePoint
	last     obs.TimelinePoint // run totals at the previous sample
}

// advance emits every boundary at or before 'at', so each event is
// accounted to the window it happens in.
func (t *fleetTimeline) advance(at time.Duration, s *sim) {
	if t == nil {
		return
	}
	for t.next <= at {
		t.emit(t.next, s)
		t.next += t.interval
	}
}

func (t *fleetTimeline) emit(at time.Duration, s *sim) {
	window := at - t.prev
	total := obs.TimelinePoint{Offered: s.offered, Served: s.served, Rejected: s.rejectedFull + s.rejectedNoNode}
	busy := 0
	util := make([]float64, len(s.nodes))
	for i, n := range s.nodes {
		busy += n.BusyGroups()
		total.WarmDispatches += n.Warm
		total.ColdDispatches += n.Cold
		total.Restages += n.Restages
		total.Replans += n.Replans
		if window > 0 {
			util[i] = n.winBusy.Seconds() / (window.Seconds() * float64(n.spec.Replicas))
		}
		n.winBusy = 0
	}
	t.samples = append(t.samples, obs.TimelinePoint{
		T:              at,
		QueueDepth:     s.queued(),
		BusyGroups:     busy,
		Offered:        total.Offered - t.last.Offered,
		Served:         total.Served - t.last.Served,
		Rejected:       total.Rejected - t.last.Rejected,
		WarmDispatches: total.WarmDispatches - t.last.WarmDispatches,
		ColdDispatches: total.ColdDispatches - t.last.ColdDispatches,
		Restages:       total.Restages - t.last.Restages,
		Replans:        total.Replans - t.last.Replans,
		GroupUtil:      util,
	})
	t.last = total
	t.prev = at
}

// finish emits the final partial window and returns the series.
func (t *fleetTimeline) finish(s *sim) *obs.Timeline {
	end := s.now
	if end > t.prev || len(t.samples) == 0 {
		t.emit(end, s)
	}
	return &obs.Timeline{Interval: t.interval, Samples: t.samples}
}

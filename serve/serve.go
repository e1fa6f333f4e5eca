// Package serve turns a neuralcache.System into a long-running inference
// service with admission control, dynamic micro-batching, multi-model
// residency and replica-group scheduling.
//
// The paper's throughput headline (§VI-B) comes from replicating the
// network across LLC slices: each slice processes one image, and
// throughput scales with slices × sockets. This package generalizes that
// execution style into a serving system whose unit is the replica group —
// Options.GroupSize consecutive LLC slices of one socket cooperating on
// one batch. GroupSize 1 is the paper's literal one-image-per-slice
// replication; larger groups walk Table IV's latency/capacity trade-off:
// the k slices parallelize each batch (service time falls), the socket
// holds Slices/k groups (capacity falls sub-linearly), and one §IV-E
// weight reload warms k slices at once (model churn cheapens). Requests
// enter a bounded admission queue (backpressure: TrySubmit rejects with
// ErrQueueFull when the queue is full, Submit blocks until space or
// context cancellation). The node core's dynamic micro-batcher
// (package internal/node) groups queued requests into batches of at most
// Options.MaxBatch, waiting at most Options.MaxLinger for a fuller batch
// — batching amortizes per-layer filter loading exactly as §IV-E batches
// amortize it in the analytic model. Its group scheduler dispatches each
// batch to a free replica group, and the drivers track per-group
// occupancy, so utilization reports show which groups carried the
// traffic.
//
// # Multi-model residency
//
// A backend registers one or more models (the first is the default).
// Requests name their model (Server.SubmitModel / TrySubmitModel, or
// Load.Mix for generated traffic), the node core's batcher forms
// per-model micro-batches, and its scheduler tracks which model's
// weights each replica group has staged. Dispatch is warm-first: a free
// group already staging the batch's model wins over an unstaged one,
// which wins over evicting another model's weights. A cold dispatch —
// the group's staged model changed, or it is the group's first — pays
// the modeled §IV-E weight reload (System.EstimateReload: the filter
// footprint streamed from DRAM at effective bandwidth plus the
// transpose-gateway pass), charged by both the analytic backend's
// wall-clock sleep and the virtual-clock simulator. LoadReport splits
// dispatches into warm/cold counts and carries per-model latency
// percentiles and throughput.
//
// # Residency planning
//
// The warm-first scheduler is reactive: it discovers contention by
// paying reloads. Options.Plan applies a mix-aware residency plan
// (package plan) instead — each model gets a warm set of pinned groups
// sized from its traffic share, pre-staged at startup (charged as
// Restages in the report) and never evicted by other models, while the
// plan's overflow groups stay free-for-all. Options.Replan attaches
// plan.Controller, which tracks the served mix with a time-decayed
// EWMA and restages groups when the mix drifts — deterministically on
// Simulate's virtual clock (Load.MixSchedule generates the drift) and
// live on the real Server.
//
// # Memoizing front-cache
//
// Production traffic repeats, and a repeated input does not need a
// replica group: Options.Cache puts a bounded, LRU-evicted memoizing
// cache (Cache, serve/cache.go) in front of admission. Hits are served
// at admission for a hash probe's cost — they never enter the batcher,
// so every hit returns replica-group capacity to the miss traffic —
// and misses fill the cache when their batch completes. Entries are
// keyed by a digest of the quantized input bytes, and a byte compare
// against the stored input guards every hit, so a digest collision can
// never serve a wrong output. Load.Reuse generates Zipf-repeated
// traffic to exercise it, LoadReport carries hit/miss/eviction
// counters, and SweepCache answers "what hit rate turns the cache into
// free capacity".
//
// Two backends implement the Backend interface:
//
//   - NewBitExactBackend executes every request bit-accurately via
//     System.Run; served outputs are byte-identical to calling Run
//     directly, for any batching, shard assignment, model mix or worker
//     count.
//   - NewAnalyticBackend services requests on service times priced by
//     System.ServiceTime — the cost of the batch on a k-slice,
//     single-socket shard of the cache — plus System.ReloadTime on cold
//     dispatches. The System keeps both prices, and both backends read
//     them, so every dispatch runs on the same clock.
//
// Two drivers consume a Backend. Both run the node scheduling core —
// the one cluster.Simulate runs on every fleet node (package
// internal/node) — so they form the same batches and claim the same
// groups; they differ only in the clock:
//
//   - NewServer is the asynchronous goroutine server: Submit/TrySubmit,
//     the node on the real wall clock under one mutex, context
//     cancellation, Close-and-drain.
//   - Simulate is a deterministic discrete-event simulator on a virtual
//     clock: it pushes hundreds of thousands of simulated requests
//     through the same admission/batching/scheduling policy in a few
//     real seconds and reports p50/p95/p99 latency, throughput, queue
//     depth and per-group utilization. Same seed, same Load, same
//     Options ⇒ identical LoadReport, every run.
//
// LoadTest drives a running Server with the same arrival process
// Simulate uses, so wall-clock and virtual-clock results are directly
// comparable. Both drivers accept open-loop traffic (Load.Rate arrivals
// on their own schedule, the regime that exposes queueing and rejection)
// and closed-loop traffic (Load.Concurrency fixed in-flight users, the
// regime that exposes latency under admission control).
//
// SweepGroups runs the same load at several group sizes and returns the
// Table IV-style latency/throughput/reload frontier; cmd/ncserve exposes
// it as -sweep-groups.
package serve

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"neuralcache"
	"neuralcache/plan"
)

// joinModelNames renders a model set as a separator-joined name list,
// in slice order.
func joinModelNames(models []*neuralcache.Model, sep string) string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name()
	}
	return strings.Join(names, sep)
}

// Errors returned by the server's admission path.
var (
	// ErrQueueFull reports that the bounded admission queue rejected a
	// request (open-loop backpressure).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed reports a submission to a closed server.
	ErrClosed = errors.New("serve: server closed")
)

// Options configures admission, batching and scheduling. The zero value
// is usable: every field defaults sensibly in New/Simulate.
type Options struct {
	// QueueDepth bounds the admitted, undispatched requests, counted the
	// same way by Simulate and the Server; requests beyond it are
	// rejected (TrySubmit) or block (Submit). Default 1024.
	QueueDepth int
	// MaxBatch caps the dynamic micro-batch size. Default 16.
	MaxBatch int
	// MaxLinger is how long the node core's batcher waits for a fuller
	// batch after the first request arrives. 0 means the 2ms default;
	// NoLinger (any negative value) dispatches immediately.
	MaxLinger time.Duration
	// GroupSize is the number of consecutive LLC slices forming one
	// replica group — the scheduling unit. 0 means the system's
	// configured group size (neuralcache.Config.GroupSize, itself
	// defaulting to the paper's one-image-per-slice 1). Must divide the
	// system's Slices.
	GroupSize int
	// Replicas is the number of replica groups to schedule on, at most
	// Slices × Sockets / GroupSize. 0 means all of them; fewer models
	// reserving cache capacity for the host workload.
	Replicas int
	// Plan applies a mix-aware residency plan (plan.Compute /
	// plan.CoSelect) to the scheduler: pinned groups are pre-staged
	// with their model's weights at startup (each staging charged as a
	// Restage) and only ever serve — and evict within — their assigned
	// model's traffic, while the plan's overflow groups stay
	// free-for-all under the reactive warm-first policy. The plan's
	// GroupSize must match Options.GroupSize (a zero GroupSize adopts
	// the plan's) and its group count must equal the scheduled
	// Replicas; every model it names must be registered, and every
	// registered model must stay servable (a warm set, or at least one
	// overflow group). nil keeps the purely reactive scheduler.
	Plan *plan.Plan
	// Replan attaches plan.Controller to a planned run: the served mix
	// is tracked with a time-decayed EWMA and, when it drifts more than
	// Replan.Threshold (total variation) from the active plan's mix,
	// the warm sets are recomputed at the same group size and the delta
	// applied as explicit group restages — deterministically on
	// Simulate's virtual clock, live on the real Server. Requires Plan;
	// the zero value disables.
	Replan plan.ControllerConfig
	// Trace, when non-nil, records the run's full request lifecycle —
	// queue spans, warm/cold batch spans with reload sub-spans, restage
	// spans, rejection and re-plan instants — as Chrome trace events
	// (Tracer.WriteJSON, viewable in Perfetto). Simulate stamps its
	// virtual clock, so the serialized trace is byte-identical across
	// runs and worker counts; NewServer stamps wall-clock offsets. A
	// Tracer holds one run. nil (the default) records nothing and adds
	// no cost.
	Trace *Tracer
	// TimelineInterval, when positive, samples the run's time series
	// every interval into LoadReport.Timeline: queue depth, busy
	// groups, per-group utilization, offered/served/rejected and
	// warm/cold dispatch counts per window, and the controller's mix
	// TV-distance. Simulate samples on the virtual clock
	// (byte-deterministic); LoadTest samples on the wall clock. 0
	// disables (Timeline stays nil, keeping the historical report
	// schema); negative is rejected.
	TimelineInterval time.Duration
	// Cache configures the memoizing front-cache consulted at
	// admission: a hit completes the request immediately — it never
	// enters the batcher or touches a replica group — and misses fill
	// the cache when their batch completes. Cache.Capacity 0 (the zero
	// value) disables it entirely, keeping the historical report
	// schema; see CacheOptions.
	Cache CacheOptions
}

// NoLinger disables the node core's linger wait: a batch dispatches as
// soon as a replica is free, however small it is.
const NoLinger time.Duration = -1

// withDefaults fills zero fields and validates against the system's
// slice and replica-group budget.
func (o Options) withDefaults(sys *neuralcache.System) (Options, error) {
	if o.QueueDepth == 0 {
		o.QueueDepth = 1024
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	switch {
	case o.MaxLinger == 0:
		o.MaxLinger = 2 * time.Millisecond
	case o.MaxLinger < 0:
		o.MaxLinger = 0
	}
	if o.GroupSize == 0 {
		if o.Plan != nil {
			o.GroupSize = o.Plan.GroupSize
		} else {
			o.GroupSize = sys.GroupSize()
		}
	}
	slices := sys.Config().Slices
	if o.GroupSize < 0 {
		return o, fmt.Errorf("serve: replica group of %d slices", o.GroupSize)
	}
	if slices%o.GroupSize != 0 {
		return o, fmt.Errorf("serve: replica group of %d slices does not divide the %d-slice cache",
			o.GroupSize, slices)
	}
	totalGroups := slices * sys.Config().Sockets / o.GroupSize
	if o.Replicas == 0 {
		o.Replicas = totalGroups
	}
	switch {
	case o.QueueDepth < 0:
		return o, fmt.Errorf("serve: queue depth %d", o.QueueDepth)
	case o.MaxBatch < 0:
		return o, fmt.Errorf("serve: max batch %d", o.MaxBatch)
	case o.Replicas < 0 || o.Replicas > totalGroups:
		return o, fmt.Errorf("serve: %d replica groups, system has %d (%d slices × %d sockets / group of %d)",
			o.Replicas, totalGroups, slices, sys.Config().Sockets, o.GroupSize)
	case o.QueueDepth < o.MaxBatch:
		return o, fmt.Errorf("serve: queue depth %d below max batch %d", o.QueueDepth, o.MaxBatch)
	}
	if o.Plan != nil {
		if o.Plan.GroupSize != o.GroupSize {
			return o, fmt.Errorf("serve: plan assumes replica groups of %d slices, options use %d",
				o.Plan.GroupSize, o.GroupSize)
		}
		if o.Plan.Groups != o.Replicas {
			return o, fmt.Errorf("serve: plan assigns %d replica groups, options schedule %d",
				o.Plan.Groups, o.Replicas)
		}
	} else if o.Replan.Enabled() {
		return o, fmt.Errorf("serve: replan controller needs Options.Plan")
	}
	if o.TimelineInterval < 0 {
		return o, fmt.Errorf("serve: timeline interval %v", o.TimelineInterval)
	}
	if o.Cache.Capacity < 0 {
		return o, fmt.Errorf("serve: cache capacity %d", o.Cache.Capacity)
	}
	return o, nil
}

// Shard identifies one replica group: Width consecutive LLC slices of a
// single socket starting at Slice. A zero Width means a single slice —
// the paper's §VI-B one-image-per-slice unit — keeping single-slice
// reports identical to the historical schema.
type Shard struct {
	Socket int
	Slice  int
	// Width is the slice count of the replica group; 0 (omitted in JSON)
	// means 1, the single-slice replica.
	Width int `json:",omitempty"`
}

// NoShard marks a Response that never reached a replica: the request
// was canceled while queued and dropped at dispatch, or was served
// from the front-cache at admission.
var NoShard = Shard{Socket: -1, Slice: -1}

// String formats a single-slice shard like s0/slice3, a wider group like
// s0/slice4-6 (or "none" for NoShard).
func (s Shard) String() string {
	if s.Socket < 0 || s.Slice < 0 {
		return "none"
	}
	if s.Width > 1 {
		return fmt.Sprintf("s%d/slice%d-%d", s.Socket, s.Slice, s.Slice+s.Width-1)
	}
	return fmt.Sprintf("s%d/slice%d", s.Socket, s.Slice)
}

// shardFor maps a dense replica-group ordinal to its shard coordinates:
// groups tile each socket's slices in k-sized runs.
func shardFor(id, slicesPerSocket, groupSize int) Shard {
	groupsPerSocket := slicesPerSocket / groupSize
	sh := Shard{
		Socket: id / groupsPerSocket,
		Slice:  id % groupsPerSocket * groupSize,
	}
	if groupSize > 1 {
		sh.Width = groupSize
	}
	return sh
}

// ShardUsage is one replica group's occupancy accounting.
type ShardUsage struct {
	Shard    Shard         `json:"shard"`
	Batches  int           `json:"batches"`
	Requests int           `json:"requests"`
	Busy     time.Duration `json:"busy_ns"`
	// Reloads counts cold dispatches: batches that paid the §IV-E
	// weight-reload cost because this group's staged model changed
	// (including its first dispatch ever). One reload warms the whole
	// group.
	Reloads int `json:"reloads"`
	// Restages counts planner-driven weight stagings on this group —
	// the startup pre-stage and controller rebalances — each paying the
	// same §IV-E reload as a cold dispatch, charged outside any batch.
	Restages int `json:"restages,omitempty"`
	// Utilization is Busy over the observation window.
	Utilization float64 `json:"utilization"`
}

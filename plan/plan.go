// Package plan is the mix-aware residency planner for the serving tier.
//
// Neural Cache's §IV-E filter streaming makes model residency the
// dominant serving cost: a cold dispatch re-streams the model's full
// filter footprint from DRAM (~12.9 ms for Inception v3) before a
// sub-millisecond batch can run, so where weights sit across replica
// groups decides tail latency. Package serve's reactive scheduler
// (warm-first with eviction) answers that question per dispatch; this
// package answers it ahead of time, from the traffic mix:
//
//   - Compute produces a Plan at a fixed replica-group size k: each
//     model with traffic gets a warm set of pinned groups sized
//     proportionally to its mix weight (largest-remainder
//     apportionment, at least one group per active model, subject to
//     ReplicaGroups(k) ≥ Σ warm-set sizes), with per-model predicted
//     batch service, capacity and queueing-aware p99, the worst-case
//     cold-start latency (reload + batch service) and the cost of
//     staging the plan from empty — all priced by System.ServiceTime /
//     System.ReloadTime, the clock the serve backends dispatch on.
//   - CoSelect searches k over the divisors of the slice count
//     (System.GroupSizes) and returns the plan minimizing predicted
//     p99. Group size is workload-dependent — bigger groups serve each
//     batch faster but leave fewer of them, and once the groups stop
//     outnumbering the models' working sets the reactive scheduler
//     ping-pongs weights (two groups, two models at GroupSize 14) — so
//     k must be co-selected with the warm-set split, not fixed.
//   - Controller watches the served mix with a time-decayed EWMA and,
//     when it drifts beyond a threshold from the active plan's mix,
//     recomputes the warm sets at the same k and emits the delta as
//     explicit Restage operations.
//
// serve.Options.Plan applies a Plan to the scheduler — pinned groups
// are pre-staged at startup (charging their reloads) and only ever
// serve, and evict within, their assigned model, while overflow groups
// stay free-for-all — and serve.Options.Replan attaches the
// controller: deterministic on Simulate's virtual clock, live on the
// real Server.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"neuralcache"
	"neuralcache/internal/report"
)

// Share is one model's relative weight in a traffic mix. Weights are
// normalized over their sum (they need not sum to 1); a zero weight
// plans no warm set for the model.
type Share struct {
	// Model names the model; "" means the first model given to the
	// planner.
	Model string `json:"model"`
	// Weight is the model's relative share of arrivals.
	Weight float64 `json:"weight"`
}

// Options configures planning. The zero value plans at the system's
// configured group size for full batches with latency-only scoring.
type Options struct {
	// GroupSize is the slices per replica group Compute plans at; 0
	// means the system's configured size. CoSelect ignores it and
	// searches GroupSizes instead. Must divide the system's Slices.
	GroupSize int
	// MaxBatch is the batch size predictions price (the serving tier's
	// Options.MaxBatch). Default 16.
	MaxBatch int
	// RatePerSec is the offered arrival rate the queueing predictions
	// assume, split across models by mix weight. 0 scores plans on
	// batch service time alone (latency-only: bigger groups always
	// win), so pass the expected rate whenever one is known.
	RatePerSec float64
	// Overflow is the number of replica groups the plan leaves
	// unpinned — free-for-all under the reactive warm-first policy,
	// absorbing unplanned models and mix noise. Default 0.
	Overflow int
	// GroupSizes is the candidate set CoSelect searches; nil means
	// every divisor of the system's slice count (System.GroupSizes).
	GroupSizes []int
}

// withDefaults fills zero fields and validates against the system.
func (o Options) withDefaults(sys *neuralcache.System) (Options, error) {
	if o.GroupSize == 0 {
		o.GroupSize = sys.GroupSize()
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	slices := sys.Config().Slices
	switch {
	case o.GroupSize < 0 || slices%o.GroupSize != 0:
		return o, fmt.Errorf("plan: replica group of %d slices does not divide the %d-slice cache", o.GroupSize, slices)
	case o.MaxBatch < 0:
		return o, fmt.Errorf("plan: max batch %d", o.MaxBatch)
	case o.Overflow < 0:
		return o, fmt.Errorf("plan: %d overflow groups", o.Overflow)
	case math.IsNaN(o.RatePerSec) || math.IsInf(o.RatePerSec, 0) || o.RatePerSec < 0:
		return o, fmt.Errorf("plan: rate %v", o.RatePerSec)
	}
	return o, nil
}

// ModelPlan is one model's row of a Plan: its warm set and the
// predictions the planner scored it with.
type ModelPlan struct {
	Model string `json:"model"`
	// Weight is the model's mix share, normalized over the mix sum.
	Weight float64 `json:"weight"`
	// Groups is the warm set: the replica-group ordinals pinned to this
	// model. Empty for zero-weight models, which serve cold from the
	// overflow pool.
	Groups []int `json:"groups,omitempty"`
	// BatchService is the modeled warm service time of a full MaxBatch
	// batch on one k-slice group.
	BatchService time.Duration `json:"batch_service_ns"`
	// Reload is the §IV-E weight-staging cost onto one group.
	Reload time.Duration `json:"reload_ns"`
	// CapacityPerSec is the warm set's throughput bound:
	// len(Groups) × MaxBatch / BatchService.
	CapacityPerSec float64 `json:"capacity_per_sec,omitempty"`
	// PredictedP99 is the planner's tail-latency estimate for the
	// model's traffic on its warm set: batch service plus a
	// heavy-traffic queueing wait at the assumed rate (meaningless when
	// Saturated; equal to BatchService when no rate was given).
	PredictedP99 time.Duration `json:"predicted_p99_ns,omitempty"`
	// Saturated reports that the assumed rate exceeds the warm set's
	// capacity — the queue grows without bound and PredictedP99 is not
	// meaningful.
	Saturated bool `json:"saturated,omitempty"`
}

// Plan is a residency assignment: a replica-group size and a per-model
// warm-set split of the groups, with the predictions that scored it.
type Plan struct {
	// GroupSize is the slices per replica group the plan assumes.
	GroupSize int `json:"group_size"`
	// Groups is the total replica-group count at this size
	// (Slices × Sockets / GroupSize).
	Groups int `json:"groups"`
	// MaxBatch is the batch size the predictions price.
	MaxBatch int `json:"max_batch"`
	// RatePerSec echoes the offered rate the queueing predictions
	// assumed; 0 means latency-only scoring.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Models holds one row per model handed to the planner, in input
	// order (matching a serve backend's registration order).
	Models []ModelPlan `json:"models"`
	// Overflow lists the unpinned, free-for-all group ordinals.
	Overflow []int `json:"overflow,omitempty"`
	// PredictedP99 is the worst per-model PredictedP99 across models
	// with a warm set — the score CoSelect minimizes.
	PredictedP99 time.Duration `json:"predicted_p99_ns"`
	// WorstColdStart is the worst-case cold-dispatch latency across all
	// models: reload plus a full batch's service on one group.
	WorstColdStart time.Duration `json:"worst_cold_start_ns"`
	// CapacityPerSec sums the pinned warm sets' throughput bounds.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	// RestageCost prices staging every pinned group from empty: the
	// rebalance cost of adopting this plan on a cold system.
	RestageCost time.Duration `json:"restage_cost_ns"`
	// PredictedColdDispatches is how many weight stagings the plan
	// itself causes (one per pinned group); with the warm sets pinned,
	// steady-state traffic then dispatches warm, so observed cold
	// dispatches beyond this count measure unplanned churn.
	PredictedColdDispatches int `json:"predicted_cold_dispatches"`
	// Saturated reports that some warm set cannot absorb its share of
	// the assumed rate.
	Saturated bool `json:"saturated,omitempty"`
}

// Pinned returns the per-group pinned model names ("" = overflow,
// free-for-all), indexed by replica-group ordinal.
func (p *Plan) Pinned() []string {
	out := make([]string, p.Groups)
	for _, mp := range p.Models {
		for _, g := range mp.Groups {
			if g >= 0 && g < p.Groups {
				out[g] = mp.Model
			}
		}
	}
	return out
}

// PinnedGroups counts the groups the plan pins to a model.
func (p *Plan) PinnedGroups() int {
	n := 0
	for _, mp := range p.Models {
		n += len(mp.Groups)
	}
	return n
}

// Normalize resolves a mix against the planner's model list and returns
// one normalized weight per model, in model order. Mix entries must
// name distinct listed models ("" = the first); listed models absent
// from the mix get weight 0, and an empty mix means all traffic on the
// first model. Negative, NaN or infinite weights — and mixes whose
// weights sum to zero — are rejected.
func Normalize(models []*neuralcache.Model, mix []Share) ([]float64, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("plan: no models to plan for")
	}
	index := make(map[string]int, len(models))
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("plan: nil model at index %d", i)
		}
		if _, dup := index[m.Name()]; dup {
			return nil, fmt.Errorf("plan: model %q listed twice", m.Name())
		}
		index[m.Name()] = i
	}
	weights := make([]float64, len(models))
	if len(mix) == 0 {
		weights[0] = 1
		return weights, nil
	}
	seen := make(map[int]bool, len(mix))
	total := 0.0
	for _, s := range mix {
		name := s.Model
		if name == "" {
			name = models[0].Name()
		}
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("plan: mix names unknown model %q", s.Model)
		}
		if seen[i] {
			return nil, fmt.Errorf("plan: model %q appears twice in the mix", name)
		}
		seen[i] = true
		if s.Weight < 0 || math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
			return nil, fmt.Errorf("plan: mix weight %v for model %q", s.Weight, name)
		}
		weights[i] = s.Weight
		total += s.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("plan: mix weights sum to zero")
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights, nil
}

// apportion splits total groups across models proportionally to the
// normalized weights by largest remainder, guaranteeing at least one
// group per active (positive-weight) model — or, with floorAll, per
// model regardless of weight (the controller's rule when the plan has
// no overflow: every registered model must stay servable). It refuses
// when the groups cannot cover the floored models.
func apportion(weights []float64, total int, floorAll bool) ([]int, error) {
	active := 0
	for _, w := range weights {
		if w > 0 || floorAll {
			active++
		}
	}
	if active == 0 {
		return nil, fmt.Errorf("plan: no model has a positive mix weight")
	}
	if total < active {
		return nil, fmt.Errorf("plan: %d replica groups cannot hold a warm set for each of %d active models", total, active)
	}
	counts := make([]int, len(weights))
	rem := total - active
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, 0, active)
	used := 0
	for i, w := range weights {
		if w <= 0 && !floorAll {
			continue
		}
		q := w * float64(rem)
		fl := math.Floor(q)
		counts[i] = 1 + int(fl)
		used += int(fl)
		fracs = append(fracs, frac{i: i, f: q - fl})
	}
	// Largest remainder first; ties break on model order, so the split
	// is deterministic.
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for j := 0; j < rem-used && j < len(fracs); j++ {
		counts[fracs[j].i]++
	}
	return counts, nil
}

// Compute plans residency at a fixed group size: it normalizes the mix,
// apportions the replica groups (minus Options.Overflow) across the
// active models proportionally to their weights, assigns contiguous
// group ordinals, and prices the assignment's predictions. It refuses
// (with an error) when the groups cannot cover the active models —
// ReplicaGroups(k) ≥ Σ warm-set sizes is enforced by construction.
func Compute(sys *neuralcache.System, models []*neuralcache.Model, mix []Share, opts Options) (*Plan, error) {
	o, err := opts.withDefaults(sys)
	if err != nil {
		return nil, err
	}
	weights, err := Normalize(models, mix)
	if err != nil {
		return nil, err
	}
	total := sys.Replicas() / o.GroupSize
	if o.Overflow >= total {
		return nil, fmt.Errorf("plan: %d overflow groups leave nothing to pin (%d groups of %d slices)",
			o.Overflow, total, o.GroupSize)
	}
	counts, err := apportion(weights, total-o.Overflow, false)
	if err != nil {
		return nil, fmt.Errorf("%w at group size %d", err, o.GroupSize)
	}
	assign := make([][]int, len(models))
	next := 0
	for i, g := range counts {
		for j := 0; j < g; j++ {
			assign[i] = append(assign[i], next)
			next++
		}
	}
	overflow := make([]int, 0, o.Overflow)
	for ; next < total; next++ {
		overflow = append(overflow, next)
	}
	return build(sys, models, weights, assign, overflow, total, o)
}

// build assembles a Plan from a finished group assignment, pricing the
// per-model predictions on the System's clock.
func build(sys *neuralcache.System, models []*neuralcache.Model, weights []float64, assign [][]int, overflow []int, total int, o Options) (*Plan, error) {
	p := &Plan{
		GroupSize:  o.GroupSize,
		Groups:     total,
		MaxBatch:   o.MaxBatch,
		RatePerSec: o.RatePerSec,
		Overflow:   overflow,
	}
	for i, m := range models {
		svc, err := sys.ServiceTime(m, o.MaxBatch, o.GroupSize)
		if err != nil {
			return nil, err
		}
		rel, err := sys.ReloadTime(m, o.GroupSize)
		if err != nil {
			return nil, err
		}
		mp := ModelPlan{
			Model:        m.Name(),
			Weight:       weights[i],
			Groups:       assign[i],
			BatchService: svc,
			Reload:       rel,
		}
		if cold := rel + svc; cold > p.WorstColdStart {
			p.WorstColdStart = cold
		}
		if g := len(mp.Groups); g > 0 {
			mp.CapacityPerSec = float64(g*o.MaxBatch) / svc.Seconds()
			mp.PredictedP99 = svc
			if o.RatePerSec > 0 && mp.Weight > 0 {
				rho := mp.Weight * o.RatePerSec / mp.CapacityPerSec
				if rho >= 1 {
					mp.Saturated = true
					p.Saturated = true
				} else {
					// Heavy-traffic wait on a g-server warm set: the
					// queueing penalty grows as ρ/(1-ρ) and shrinks with
					// the number of groups absorbing concurrent batches —
					// the lever the k=14 two-group regime loses.
					wait := time.Duration(float64(svc) * rho / ((1 - rho) * float64(g)))
					mp.PredictedP99 = svc + wait
				}
			}
			if !mp.Saturated && mp.PredictedP99 > p.PredictedP99 {
				p.PredictedP99 = mp.PredictedP99
			}
			p.CapacityPerSec += mp.CapacityPerSec
			p.RestageCost += time.Duration(g) * rel
			p.PredictedColdDispatches += g
		}
		p.Models = append(p.Models, mp)
	}
	return p, nil
}

// CoSelect searches the candidate group sizes (Options.GroupSizes, or
// every divisor of the slice count) and returns the feasible plan with
// the lowest predicted p99 — preferring unsaturated plans, and on ties
// the smaller k, whose extra groups absorb mix drift more cheaply.
// Candidates whose groups cannot cover the active models are refused
// individually; CoSelect errors only when no candidate is feasible.
func CoSelect(sys *neuralcache.System, models []*neuralcache.Model, mix []Share, opts Options) (*Plan, error) {
	cands := opts.GroupSizes
	if len(cands) == 0 {
		cands = sys.GroupSizes()
	}
	var best *Plan
	var refused []string
	for _, k := range cands {
		o := opts
		o.GroupSize = k
		p, err := Compute(sys, models, mix, o)
		if err != nil {
			refused = append(refused, fmt.Sprintf("k=%d: %v", k, err))
			continue
		}
		if best == nil || better(p, best) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no feasible group size among %v (%s)", cands, strings.Join(refused, "; "))
	}
	return best, nil
}

// better reports whether plan a beats plan b: unsaturated first, then
// lower predicted p99, then more capacity headroom.
func better(a, b *Plan) bool {
	if a.Saturated != b.Saturated {
		return !a.Saturated
	}
	if a.Saturated {
		return a.CapacityPerSec > b.CapacityPerSec
	}
	if a.PredictedP99 != b.PredictedP99 {
		return a.PredictedP99 < b.PredictedP99
	}
	return false
}

// groupRange renders sorted group ordinals compactly ("0-2,5").
func groupRange(groups []int) string {
	if len(groups) == 0 {
		return "-"
	}
	var b strings.Builder
	for i := 0; i < len(groups); {
		j := i
		for j+1 < len(groups) && groups[j+1] == groups[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d", groups[i], groups[j])
		} else {
			fmt.Fprintf(&b, "%d", groups[i])
		}
		i = j + 1
	}
	return b.String()
}

// String renders the plan as the CLI's assignment table.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "residency plan: replica groups of %d slices, %d groups (%d pinned, %d overflow)\n",
		p.GroupSize, p.Groups, p.PinnedGroups(), len(p.Overflow))
	t := report.NewTable("Warm-set assignment", "Model", "Mix", "Groups", "IDs", "BatchSvc", "Reload", "Cap/s", "Pred p99")
	for _, mp := range p.Models {
		p99 := mp.PredictedP99.Round(time.Microsecond).String()
		if mp.Saturated {
			p99 = "saturated"
		}
		t.Add(mp.Model, report.Pct(mp.Weight), fmt.Sprint(len(mp.Groups)), groupRange(mp.Groups),
			mp.BatchService.Round(time.Microsecond).String(),
			mp.Reload.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", mp.CapacityPerSec), p99)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\npredicted p99 %v  worst cold start %v  capacity %.1f/s  restage cost %v (%d stagings)",
		p.PredictedP99.Round(time.Microsecond), p.WorstColdStart.Round(time.Microsecond),
		p.CapacityPerSec, p.RestageCost.Round(time.Microsecond), p.PredictedColdDispatches)
	if len(p.Overflow) > 0 {
		fmt.Fprintf(&b, "\noverflow groups %s stay free-for-all", groupRange(p.Overflow))
	}
	if p.Saturated {
		b.WriteString("\nWARNING: some warm set is saturated at the assumed rate")
	}
	return b.String()
}

package plan

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"neuralcache"
)

// Restage is one explicit rebalance operation a re-plan emits: stage
// model To's weights onto a replica group that was pinned elsewhere (or
// free-for-all). The applier skips the physical staging when the group
// already holds To's weights; Cost prices the §IV-E reload it pays
// otherwise.
type Restage struct {
	// Group is the replica-group ordinal to restage.
	Group int `json:"group"`
	// From is the model the group was pinned to; "" means it was an
	// overflow group.
	From string `json:"from,omitempty"`
	// To is the model whose weights the group must stage.
	To string `json:"to"`
	// Cost is To's reload estimate onto one group.
	Cost time.Duration `json:"cost_ns"`
}

// ControllerConfig tunes the online drift controller. The zero value is
// disabled; any positive Threshold enables it with the remaining fields
// defaulted.
type ControllerConfig struct {
	// Threshold is the total-variation distance (½ Σ|plan − observed|,
	// in [0, 1]) between the active plan's mix and the observed mix
	// beyond which the controller re-plans. 0 disables the controller.
	Threshold float64
	// HalfLife is the decay half-life of the served-mix EWMA: an
	// observation's influence halves every HalfLife of (virtual or
	// wall) clock. Default DefaultHalfLife.
	HalfLife time.Duration
	// MinInterval is the minimum time between re-plans, damping
	// oscillation. Default 2 × HalfLife.
	MinInterval time.Duration
	// MinObservations is the decayed request mass the EWMA must hold
	// before the controller trusts it enough to re-plan. Default 32.
	MinObservations float64
}

// Enabled reports whether the configuration turns the controller on.
func (c ControllerConfig) Enabled() bool { return c.Threshold > 0 }

func (c ControllerConfig) withDefaults() (ControllerConfig, error) {
	if c.Threshold < 0 || c.Threshold > 1 || math.IsNaN(c.Threshold) {
		return c, fmt.Errorf("plan: replan threshold %v outside [0, 1]", c.Threshold)
	}
	if c.HalfLife == 0 {
		c.HalfLife = DefaultHalfLife
	}
	if c.HalfLife < 0 {
		return c, fmt.Errorf("plan: EWMA half-life %v", c.HalfLife)
	}
	if c.MinInterval == 0 {
		c.MinInterval = 2 * c.HalfLife
	}
	if c.MinInterval < 0 {
		return c, fmt.Errorf("plan: replan interval %v", c.MinInterval)
	}
	if c.MinObservations == 0 {
		c.MinObservations = 32
	}
	if c.MinObservations < 0 || math.IsNaN(c.MinObservations) {
		return c, fmt.Errorf("plan: min observations %v", c.MinObservations)
	}
	return c, nil
}

// DefaultHalfLife is the decay half-life of a DecayedMix when none is
// configured.
const DefaultHalfLife = 500 * time.Millisecond

// DecayedMix is a time-decayed EWMA of per-model request mass: an
// observation's influence halves every half-life of (virtual or wall)
// clock. The Controller tracks the served mix with one, and package
// cluster the fleet's offered mix. The clock handed to Add must be
// monotone. Not safe for concurrent use.
type DecayedMix struct {
	halfLife time.Duration
	mass     []float64
	last     time.Duration
}

// NewDecayedMix returns an empty mix over the given number of models.
func NewDecayedMix(models int, halfLife time.Duration) *DecayedMix {
	return &DecayedMix{halfLife: halfLife, mass: make([]float64, models)}
}

// Add ages the mix to clock time now and adds n requests of model i.
func (d *DecayedMix) Add(i int, n float64, now time.Duration) {
	d.decay(now)
	d.mass[i] += n
}

// decay ages the mix to clock time now.
func (d *DecayedMix) decay(now time.Duration) {
	if now <= d.last {
		return
	}
	f := math.Exp2(-float64(now-d.last) / float64(d.halfLife))
	for i := range d.mass {
		d.mass[i] *= f
	}
	d.last = now
}

// total returns the decayed request mass of every model.
func (d *DecayedMix) total() float64 {
	total := 0.0
	for _, n := range d.mass {
		total += n
	}
	return total
}

// Shares returns the normalized mix as Shares of models, in order, or
// nil while the mix holds no mass. Uniform decay scales every model's
// mass alike, so the shares do not depend on when they are read.
func (d *DecayedMix) Shares(models []*neuralcache.Model) []Share {
	total := d.total()
	if total <= 0 {
		return nil
	}
	out := make([]Share, len(models))
	for i, m := range models {
		out[i] = Share{Model: m.Name(), Weight: d.mass[i] / total}
	}
	return out
}

// Controller is the online drift controller: it tracks the served mix
// with a time-decayed EWMA and, when the mix drifts beyond the
// configured threshold from the active plan's, recomputes the warm-set
// split at the same group size and emits the delta as Restage
// operations. All methods are safe for concurrent use; the clock handed
// to Observe/MaybeReplan must be monotone (a virtual clock makes the
// whole control loop deterministic).
type Controller struct {
	mu      sync.Mutex
	sys     *neuralcache.System
	models  []*neuralcache.Model
	index   map[string]int
	cfg     ControllerConfig
	opts    Options
	current *Plan

	mix        *DecayedMix // the served mix
	lastReplan time.Duration
}

// NewController builds a controller around an active plan. models must
// be the planner's model list in the same order the plan was computed
// with (a serve backend's registration order).
func NewController(sys *neuralcache.System, models []*neuralcache.Model, current *Plan, cfg ControllerConfig) (*Controller, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !c.Enabled() {
		return nil, fmt.Errorf("plan: controller threshold 0 (disabled)")
	}
	if current == nil {
		return nil, fmt.Errorf("plan: controller needs an active plan")
	}
	if len(models) != len(current.Models) {
		return nil, fmt.Errorf("plan: controller got %d models for a %d-model plan", len(models), len(current.Models))
	}
	ctrl := &Controller{
		sys:     sys,
		models:  models,
		index:   make(map[string]int, len(models)),
		cfg:     c,
		current: current,
		mix:     NewDecayedMix(len(models), c.HalfLife),
	}
	for i, m := range models {
		if m == nil || m.Name() != current.Models[i].Model {
			return nil, fmt.Errorf("plan: controller model %d does not match the plan's %q", i, current.Models[i].Model)
		}
		ctrl.index[m.Name()] = i
	}
	ctrl.opts = Options{
		GroupSize:  current.GroupSize,
		MaxBatch:   current.MaxBatch,
		RatePerSec: current.RatePerSec,
		Overflow:   len(current.Overflow),
	}
	return ctrl, nil
}

// Observe feeds one dispatch of n requests of a model into the
// served-mix EWMA at clock time now. Unknown model names are ignored.
func (c *Controller) Observe(model string, n int, now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[model]
	if !ok || n <= 0 {
		return
	}
	c.mix.Add(i, float64(n), now)
}

// Drift returns the total-variation distance between the active plan's
// mix and the observed mix (0 while the EWMA is empty). Read-only: it
// does not age the EWMA, which is safe because uniform decay scales
// every model's mass equally and so cannot change the normalized mix —
// samplers and debug endpoints may call it at any cadence without
// perturbing the control loop.
func (c *Controller) Drift() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drift()
}

// Observed returns the EWMA's normalized served mix as shares in the
// plan's model order, or nil while the EWMA holds no mass. Read-only
// like Drift, for the same decay-invariance reason.
func (c *Controller) Observed() []Share {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mix.Shares(c.models)
}

func (c *Controller) drift() float64 {
	mass := c.mix.total()
	if mass <= 0 {
		return 0
	}
	tv := 0.0
	for i, mp := range c.current.Models {
		tv += math.Abs(mp.Weight - c.mix.mass[i]/mass)
	}
	return tv / 2
}

// MaybeReplan re-plans when the observed mix has drifted beyond the
// threshold: it returns the new plan, the restage operations that turn
// the old assignment into the new one, and true. It returns false while
// drift is below threshold, the EWMA holds too little mass, the
// MinInterval damper is active, or the observed mix cannot be planned
// at the current group size (more active models than groups).
func (c *Controller) MaybeReplan(now time.Duration) (*Plan, []Restage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mix.decay(now)
	mass := c.mix.total()
	if mass < c.cfg.MinObservations || now-c.lastReplan < c.cfg.MinInterval {
		return nil, nil, false
	}
	if c.drift() <= c.cfg.Threshold {
		return nil, nil, false
	}
	weights := make([]float64, len(c.mix.mass))
	for i, n := range c.mix.mass {
		weights[i] = n / mass
	}
	next, ops, err := rebalance(c.sys, c.models, c.current, weights, c.opts)
	if err != nil {
		return nil, nil, false
	}
	c.current = next
	c.lastReplan = now
	return next, ops, true
}

// rebalance recomputes the warm-set split for new mix weights at the
// old plan's group size, moving as few groups as possible: each model
// keeps its currently pinned groups up to its new warm-set size, and
// only the difference is restaged. It returns the new plan and the
// restage operations that realize it.
func rebalance(sys *neuralcache.System, models []*neuralcache.Model, old *Plan, weights []float64, opts Options) (*Plan, []Restage, error) {
	if len(models) != len(old.Models) {
		return nil, nil, fmt.Errorf("plan: rebalance got %d models for a %d-model plan", len(models), len(old.Models))
	}
	// With no overflow pool, every registered model must keep a warm
	// set even when its observed weight has decayed to zero — otherwise
	// a re-plan would strand its next request with no eligible group.
	counts, err := apportion(weights, old.Groups-len(old.Overflow), len(old.Overflow) == 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%w at group size %d", err, old.GroupSize)
	}
	// Keep-then-fill: each model keeps its lowest-ordinal pinned groups
	// up to the new count; shrunk warm sets and the old overflow feed a
	// free pool that growing warm sets draw from in ascending order.
	assign := make([][]int, len(models))
	var pool []int
	for i, mp := range old.Models {
		keep := min(len(mp.Groups), counts[i])
		assign[i] = append([]int(nil), mp.Groups[:keep]...)
		pool = append(pool, mp.Groups[keep:]...)
	}
	pool = append(pool, old.Overflow...)
	sort.Ints(pool)
	for i := range models {
		need := counts[i] - len(assign[i])
		if need > 0 {
			assign[i] = append(assign[i], pool[:need]...)
			pool = pool[need:]
			sort.Ints(assign[i])
		}
	}
	overflow := append([]int(nil), pool...)
	next, err := build(sys, models, weights, assign, overflow, old.Groups, opts)
	if err != nil {
		return nil, nil, err
	}
	oldPinned := old.Pinned()
	var ops []Restage
	for i, m := range models {
		for _, g := range assign[i] {
			if oldPinned[g] == m.Name() {
				continue
			}
			cost, err := sys.ReloadTime(m, old.GroupSize)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, Restage{Group: g, From: oldPinned[g], To: m.Name(), Cost: cost})
		}
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].Group < ops[b].Group })
	return next, ops, nil
}

package node

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// ModelShare is one model's weight in a generated traffic mix.
type ModelShare struct {
	// Model names a registered model; "" means the backend's default.
	Model string `json:"model"`
	// Weight is the model's relative share of arrivals, normalized over
	// the mix's weight sum — weights need not sum to 1, so {7, 3} and
	// {0.7, 0.3} draw identically. A zero weight is allowed (the model
	// gets no generated traffic); negative, NaN and infinite weights,
	// and mixes whose weights sum to zero, are rejected by validation.
	Weight float64 `json:"weight"`
}

// MixShift is one scheduled traffic-mix change: from At onward,
// arrivals draw their model from Mix instead of the previous mix. The
// serving tier's drift controller (plan.Controller) exists to chase
// exactly these shifts.
type MixShift struct {
	// At is the load-relative time the shift takes effect (t = 0 is the
	// start of the arrival process).
	At time.Duration `json:"at_ns"`
	// Mix is the new traffic mix; the same validation and normalization
	// rules as the base mix apply, and it must be non-empty.
	Mix []ModelShare `json:"mix"`
}

// RateShift is one scheduled arrival-rate change: from At onward the
// process offers Rate requests per second.
type RateShift struct {
	At   time.Duration `json:"at_ns"`
	Rate float64       `json:"rate_per_sec"`
}

// Traffic is a seeded arrival process, the fields serve.Load and
// cluster.Load share. Rate is the open-loop rate until the first
// RateSchedule entry, or the closed-loop think rate. Seed seeds the
// interarrival, mix and reuse draws from separately salted generators,
// so enabling one never perturbs the others. Universe > 0 draws reuse
// keys Zipf(ZipfS) over [0, Universe); otherwise each key is the
// arrival's ordinal.
type Traffic struct {
	Rate         float64
	RateSchedule []RateShift
	Requests     int
	Duration     time.Duration
	Seed         int64
	Poisson      bool
	Mix          []ModelShare
	MixSchedule  []MixShift
	ZipfS        float64
	Universe     int
}

// Validate applies the rules every load shares: a request or duration
// budget, valid mixes, and strictly ascending shift schedules. Errors
// carry no package prefix; callers add theirs.
func (t Traffic) Validate() error {
	if t.Requests < 0 {
		return fmt.Errorf("%d requests", t.Requests)
	}
	if t.Requests == 0 && t.Duration <= 0 {
		return fmt.Errorf("load needs Requests or Duration")
	}
	if err := validateMix(t.Mix, "mix"); err != nil {
		return err
	}
	for i, shift := range t.MixSchedule {
		if shift.At <= 0 {
			return fmt.Errorf("mix shift %d at %v (must be after t=0)", i, shift.At)
		}
		if i > 0 && shift.At <= t.MixSchedule[i-1].At {
			return fmt.Errorf("mix schedule out of order at %v", shift.At)
		}
		if len(shift.Mix) == 0 {
			return fmt.Errorf("mix shift at %v has an empty mix", shift.At)
		}
		if err := validateMix(shift.Mix, fmt.Sprintf("mix shift at %v", shift.At)); err != nil {
			return err
		}
	}
	for i, shift := range t.RateSchedule {
		if shift.At <= 0 {
			return fmt.Errorf("rate shift %d at %v (must be after t=0)", i, shift.At)
		}
		if i > 0 && shift.At <= t.RateSchedule[i-1].At {
			return fmt.Errorf("rate schedule out of order at %v", shift.At)
		}
		if math.IsNaN(shift.Rate) || math.IsInf(shift.Rate, 0) || shift.Rate <= 0 {
			return fmt.Errorf("rate shift at %v to %v", shift.At, shift.Rate)
		}
	}
	return nil
}

// validateMix applies the mix rules: weights must be finite and
// non-negative, models distinct, and at least one weight positive (a
// mix summing to zero would silently misdraw — every arrival would
// land on the last entry — so it is rejected instead).
func validateMix(mix []ModelShare, what string) error {
	seen := make(map[string]bool, len(mix))
	total := 0.0
	for _, ms := range mix {
		if ms.Weight < 0 || math.IsNaN(ms.Weight) || math.IsInf(ms.Weight, 0) {
			return fmt.Errorf("%s weight %v for model %q", what, ms.Weight, ms.Model)
		}
		if seen[ms.Model] {
			return fmt.Errorf("model %q appears twice in the %s", ms.Model, what)
		}
		seen[ms.Model] = true
		total += ms.Weight
	}
	if len(mix) > 0 && total <= 0 {
		return fmt.Errorf("%s weights sum to zero", what)
	}
	return nil
}

// Models returns every model name the load can draw, in first-seen
// order, "" standing for the default model of an empty mix. Drivers
// resolve them up front: generated arrivals name their model by its
// index here.
func (t Traffic) Models() []string {
	names, _ := t.mixes()
	return names
}

// think draws one closed-loop think time: mean 1/Rate, exponential when
// Poisson, constant otherwise; zero when Rate is 0 (rng is only
// consulted under Poisson).
func (t Traffic) think(rng *rand.Rand) time.Duration {
	if t.Rate <= 0 {
		return 0
	}
	s := 1 / t.Rate
	if t.Poisson {
		s = rng.ExpFloat64() / t.Rate
	}
	return time.Duration(s * float64(time.Second))
}

// mixTable draws from a weighted mix by cumulative weight, yielding
// the drawn model's index in Traffic.Models(); the empty mix always
// draws the default model.
type mixTable struct {
	models []int
	cum    []float64
}

func newMixTable(mix []ModelShare, ordinal func(string) int) mixTable {
	if len(mix) == 0 {
		return mixTable{models: []int{ordinal("")}}
	}
	m := mixTable{models: make([]int, len(mix)), cum: make([]float64, len(mix))}
	total := 0.0
	for i, ms := range mix {
		total += ms.Weight
		m.models[i], m.cum[i] = ordinal(ms.Model), total
	}
	return m
}

// draw consults rng only when the mix has two entries or more.
func (m mixTable) draw(rng *rand.Rand) int {
	if len(m.models) == 1 {
		return m.models[0]
	}
	x := rng.Float64() * m.cum[len(m.cum)-1]
	for i, c := range m.cum {
		if x < c {
			return m.models[i]
		}
	}
	return m.models[len(m.models)-1]
}

// mixTimeline is a load's mix timeline: epoch 0 is the base mix from
// t = 0, each MixShift opens the next.
type mixTimeline []struct {
	at  time.Duration
	mix mixTable
}

// mixes builds the mix timeline and the model names its draws index.
func (t Traffic) mixes() ([]string, mixTimeline) {
	var names []string
	ordinal := func(name string) int {
		i := slices.Index(names, name)
		if i < 0 {
			i = len(names)
			names = append(names, name)
		}
		return i
	}
	m := make(mixTimeline, 1+len(t.MixSchedule))
	m[0].mix = newMixTable(t.Mix, ordinal)
	for i, shift := range t.MixSchedule {
		m[i+1].at, m[i+1].mix = shift.At, newMixTable(shift.Mix, ordinal)
	}
	return names, m
}

// draw picks a model, as its index in Traffic.Models(), from the mix
// active at time at. Closed-loop arrival times are not monotone across
// users, so it searches rather than keeping a cursor.
func (m mixTimeline) draw(at time.Duration, rng *rand.Rand) int {
	i := len(m) - 1
	for i > 0 && m[i].at > at {
		i--
	}
	return m[i].mix.draw(rng)
}

// Gen yields a load's deterministic arrival sequence: offsets from
// t = 0, each tagged with its mix-drawn model (an index in
// Traffic.Models()) and its reuse key.
type Gen struct {
	t      Traffic
	rng    *rand.Rand // interarrival and think draws (Poisson only)
	mixRNG *rand.Rand // model draws, independent of arrival times
	zipf   *rand.Zipf // reuse-key draws (Universe > 0 only)
	mixes  mixTimeline
	rates  []RateShift // rate timeline; entry 0 is Rate from t = 0
	count  int
	at     float64 // seconds: the latest arrival
	// Uniform spacing counts from the current rate epoch's first
	// arrival (ordinal first at time anchor; 0 at t = 0 in the first
	// epoch), so a single epoch spaces arrival k at exactly k/Rate.
	epoch, first int
	anchor       float64
}

// Arrivals starts the load's arrival generator.
func (t Traffic) Arrivals() *Gen {
	_, mixes := t.mixes()
	g := &Gen{t: t, mixes: mixes, rates: append([]RateShift{{Rate: t.Rate}}, t.RateSchedule...)}
	if t.Poisson {
		g.rng = rand.New(rand.NewSource(t.Seed))
	}
	if len(t.Mix) > 0 || len(t.MixSchedule) > 0 {
		g.mixRNG = rand.New(rand.NewSource(t.Seed ^ 0x6d69780a)) // "mix" salt
	}
	if t.Universe > 0 {
		rng := rand.New(rand.NewSource(t.Seed ^ 0x72657573)) // "reus" salt
		g.zipf = rand.NewZipf(rng, t.ZipfS, 1, uint64(t.Universe-1))
	}
	return g
}

// Next returns the next open-loop arrival's offset, model (its index in
// Traffic.Models()) and reuse key, or false when the load is exhausted.
func (g *Gen) Next() (time.Duration, int, uint64, bool) {
	if g.count++; g.t.Requests > 0 && g.count > g.t.Requests {
		return 0, 0, 0, false
	}
	i := len(g.rates) - 1 // the rate epoch of the previous arrival
	for i > 0 && g.rates[i].At.Seconds() > g.at {
		i--
	}
	if g.t.Poisson {
		// Piecewise-homogeneous Poisson: draw one unit exponential and
		// spend it across rate epochs — the residual mass carries over a
		// boundary, so the process stays memoryless within each epoch.
		e := g.rng.ExpFloat64()
		for ; i+1 < len(g.rates); i++ {
			end, r := g.rates[i+1].At.Seconds(), g.rates[i].Rate
			if g.at+e/r <= end {
				break
			}
			e -= (end - g.at) * r
			g.at = end
		}
		g.at += e / g.rates[i].Rate
	} else {
		// Uniform spacing at the rate of the epoch the previous arrival
		// landed in; a boundary takes effect from the next interarrival.
		if i != g.epoch {
			g.epoch, g.anchor, g.first = i, g.at, g.count-1
		}
		g.at = g.anchor + float64(g.count-g.first)/g.rates[i].Rate
	}
	return g.tag(time.Duration(g.at * float64(time.Second)))
}

// NextClosed returns a closed-loop user's next arrival: a think time
// after its completion at now, tagged like Next, or false when the
// request or duration budget is spent. Draw order follows completion
// order, which the virtual clock makes deterministic.
func (g *Gen) NextClosed(now time.Duration) (time.Duration, int, uint64, bool) {
	if g.count++; g.t.Requests > 0 && g.count > g.t.Requests {
		return 0, 0, 0, false
	}
	return g.tag(now + g.t.think(g.rng))
}

// tag ends a Duration-bounded load past its window, and otherwise draws
// the arrival's model from the mix active at its time and its reuse
// key: Zipf over the universe under reuse, else the arrival ordinal —
// every input distinct.
func (g *Gen) tag(at time.Duration) (time.Duration, int, uint64, bool) {
	if g.t.Requests == 0 && at > g.t.Duration {
		return 0, 0, 0, false
	}
	key := uint64(g.count)
	model := g.mixes.draw(at, g.mixRNG)
	if g.zipf != nil {
		key = g.zipf.Uint64()
	}
	return at, model, key, true
}

package cluster

import (
	"testing"
	"time"

	"neuralcache/serve"
)

// TestArrivalGenUniformRateSchedule: without Poisson, spacing is
// exactly 1/rate of the epoch the previous arrival landed in, so a
// rate shift takes effect from the next interarrival.
func TestArrivalGenUniformRateSchedule(t *testing.T) {
	g := Load{
		Rate: 1000, Requests: 15,
		RateSchedule: []RateShift{{At: 10 * time.Millisecond, Rate: 2000}},
	}.traffic().Arrivals()
	var got []time.Duration
	for {
		at, _, _, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, at)
	}
	if len(got) != 15 {
		t.Fatalf("%d arrivals, want 15", len(got))
	}
	for i := 0; i < 10; i++ {
		if want := time.Duration(i+1) * time.Millisecond; got[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, got[i], want)
		}
	}
	for i := 10; i < 15; i++ {
		want := 10*time.Millisecond + time.Duration(i-9)*500*time.Microsecond
		if got[i] != want {
			t.Fatalf("arrival %d at %v, want %v (post-shift spacing)", i, got[i], want)
		}
	}
}

// TestArrivalGenPoissonPiecewise: the piecewise-homogeneous process is
// deterministic per seed, strictly monotone, and runs roughly twice as
// fast after doubling the rate.
func TestArrivalGenPoissonPiecewise(t *testing.T) {
	load := Load{
		Rate: 1000, Requests: 4000, Seed: 99, Poisson: true,
		RateSchedule: []RateShift{{At: 2 * time.Second, Rate: 2000}},
	}
	a, b := load.traffic().Arrivals(), load.traffic().Arrivals()
	var before, after int
	prev := time.Duration(-1)
	for {
		at, _, _, ok := a.Next()
		bt, _, _, bok := b.Next()
		if ok != bok || at != bt {
			t.Fatal("same seed diverged")
		}
		if !ok {
			break
		}
		if at <= prev {
			t.Fatalf("non-monotone arrival %v after %v", at, prev)
		}
		prev = at
		if at < 2*time.Second {
			before++
		} else {
			after++
		}
	}
	if before+after != 4000 {
		t.Fatalf("%d arrivals, want 4000", before+after)
	}
	// ~2000 arrivals land in the first 2s epoch at rate 1000/s; the
	// rest at 2000/s. Loose 10% band — it's a seeded draw, not a mean.
	if before < 1800 || before > 2200 {
		t.Errorf("%d arrivals in the rate-1000 epoch, want ≈2000", before)
	}
}

// TestArrivalGenMixSchedule: models are drawn from the mix epoch the
// arrival lands in, and the mix draw does not perturb arrival times.
func TestArrivalGenMixSchedule(t *testing.T) {
	base := Load{Rate: 1000, Requests: 30, Seed: 5, Poisson: true}
	mixed := base
	mixed.Mix = []serve.ModelShare{{Model: "a", Weight: 1}}
	mixed.MixSchedule = []serve.MixShift{
		{At: 15 * time.Millisecond, Mix: []serve.ModelShare{{Model: "b", Weight: 1}}},
	}
	g, gm := base.traffic().Arrivals(), mixed.traffic().Arrivals()
	names, namesm := base.traffic().Models(), mixed.traffic().Models()
	for {
		at, draw, _, ok := g.Next()
		atm, drawm, _, okm := gm.Next()
		if ok != okm {
			t.Fatal("length diverged")
		}
		if !ok {
			break
		}
		if at != atm {
			t.Fatalf("mix perturbed the schedule: %v vs %v", at, atm)
		}
		if model := names[draw]; model != "" {
			t.Fatalf("mixless load drew model %q", model)
		}
		want := "a"
		if atm >= 15*time.Millisecond {
			want = "b"
		}
		if modelm := namesm[drawm]; modelm != want {
			t.Fatalf("arrival at %v drew %q, want %q", atm, modelm, want)
		}
	}
}

func TestLoadValidation(t *testing.T) {
	cases := []Load{
		{},
		{Rate: -1, Requests: 10},
		{Rate: 1000},
		{Rate: 1000, Requests: -1},
		{Rate: 1000, Requests: 10, Mix: []serve.ModelShare{{Model: "a", Weight: -1}}},
		{Rate: 1000, Requests: 10, Mix: []serve.ModelShare{{Model: "a", Weight: 1}, {Model: "a", Weight: 1}}},
		{Rate: 1000, Requests: 10, Mix: []serve.ModelShare{{Model: "a", Weight: 0}}},
		{Rate: 1000, Requests: 10, MixSchedule: []serve.MixShift{{At: 0, Mix: []serve.ModelShare{{Model: "a", Weight: 1}}}}},
		{Rate: 1000, Requests: 10, MixSchedule: []serve.MixShift{
			{At: 2 * time.Millisecond, Mix: []serve.ModelShare{{Model: "a", Weight: 1}}},
			{At: time.Millisecond, Mix: []serve.ModelShare{{Model: "a", Weight: 1}}}}},
		{Rate: 1000, Requests: 10, MixSchedule: []serve.MixShift{{At: time.Millisecond}}},
		{Rate: 1000, Requests: 10, RateSchedule: []RateShift{{At: 0, Rate: 500}}},
		{Rate: 1000, Requests: 10, RateSchedule: []RateShift{{At: time.Millisecond, Rate: -5}}},
		{Rate: 1000, Requests: 10, RateSchedule: []RateShift{
			{At: 2 * time.Millisecond, Rate: 500}, {At: time.Millisecond, Rate: 500}}},
	}
	for i, load := range cases {
		if err := load.validate(); err == nil {
			t.Errorf("case %d: invalid load accepted: %+v", i, load)
		}
	}
	ok := Load{Rate: 1000, Duration: time.Second, Poisson: true,
		Mix:          []serve.ModelShare{{Model: "a", Weight: 1}},
		MixSchedule:  []serve.MixShift{{At: time.Millisecond, Mix: []serve.ModelShare{{Model: "b", Weight: 1}}}},
		RateSchedule: []RateShift{{At: time.Millisecond, Rate: 500}}}
	if err := ok.validate(); err != nil {
		t.Errorf("valid load rejected: %v", err)
	}
	if got := ok.traffic().Models(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("models() = %v", got)
	}
}

package cluster

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func views(accepting ...bool) []NodeView {
	vs := make([]NodeView, len(accepting))
	for i, a := range accepting {
		vs[i] = NodeView{Index: i, Name: nodeName(i), Accepting: a, Groups: 28}
	}
	return vs
}

func nodeName(i int) string { return string(rune('a' + i)) }

func TestLeastLoadedPick(t *testing.T) {
	vs := views(true, true, true)
	vs[0].QueueDepth = 10
	vs[1].QueueDepth = 2
	vs[2].QueueDepth = 5
	if got := (LeastLoaded{}).Pick("m", vs); got != 1 {
		t.Errorf("picked %d, want the lightest node 1", got)
	}
	// Ties break to the lowest index.
	vs[1].QueueDepth = 5
	if got := (LeastLoaded{}).Pick("m", vs); got != 1 {
		t.Errorf("tie picked %d, want 1", got)
	}
	// Load normalizes per group: deeper queue on a bigger node wins.
	vs = views(true, true)
	vs[0].Groups, vs[0].QueueDepth = 28, 40
	vs[1].Groups, vs[1].QueueDepth = 7, 20
	if got := (LeastLoaded{}).Pick("m", vs); got != 0 {
		t.Errorf("picked %d, want the per-group lighter node 0", got)
	}
	// Non-accepting nodes are skipped; none accepting means -1.
	vs = views(false, true)
	vs[1].QueueDepth = 1 << 20
	if got := (LeastLoaded{}).Pick("m", vs); got != 1 {
		t.Errorf("picked %d, want the only accepting node", got)
	}
	if got := (LeastLoaded{}).Pick("m", views(false, false)); got != -1 {
		t.Errorf("picked %d from a fully drained fleet", got)
	}
}

func TestAffinityStableHome(t *testing.T) {
	vs := views(true, true, true, true)
	r := ModelAffinity{}
	home := r.Pick("inception_v3", vs)
	if home < 0 {
		t.Fatal("no home")
	}
	// Same model, same views: same home, regardless of load.
	vs[home].QueueDepth = 1 << 20
	if got := r.Pick("inception_v3", vs); got != home {
		t.Errorf("home moved from %d to %d under load", home, got)
	}
	// Removing an unrelated node must not move the home (the rendezvous
	// minimal-disruption property); removing the home re-ranks it.
	other := (home + 1) % len(vs)
	vs[other].Accepting = false
	if got := r.Pick("inception_v3", vs); got != home {
		t.Errorf("home moved from %d to %d when node %d drained", home, got, other)
	}
	vs[other].Accepting = true
	vs[home].Accepting = false
	if got := r.Pick("inception_v3", vs); got == home || got < 0 {
		t.Errorf("dead home still picked (%d)", got)
	}
}

func TestPowerOfTwoDeterministicSeeded(t *testing.T) {
	vs := views(true, true, true, true)
	vs[0].QueueDepth, vs[1].QueueDepth, vs[2].QueueDepth, vs[3].QueueDepth = 3, 9, 1, 7
	a, b := NewPowerOfTwo(42), NewPowerOfTwo(42)
	for i := 0; i < 200; i++ {
		pa, pb := a.Pick("m", vs), b.Pick("m", vs)
		if pa != pb {
			t.Fatalf("draw %d: same seed diverged (%d vs %d)", i, pa, pb)
		}
		if pa < 0 || !vs[pa].Accepting {
			t.Fatalf("draw %d: picked %d", i, pa)
		}
	}
	// A single accepting node needs no draw.
	if got := NewPowerOfTwo(1).Pick("m", views(false, true, false)); got != 1 {
		t.Errorf("picked %d, want 1", got)
	}
	if got := NewPowerOfTwo(1).Pick("m", views(false, false)); got != -1 {
		t.Errorf("picked %d from a drained fleet", got)
	}
}

// TestRendezvousMatchesHashFNV pins the in-place rank to hash/fnv's
// FNV-1a over the model name, a zero byte and the node name.
func TestRendezvousMatchesHashFNV(t *testing.T) {
	names := []string{"", "a", "m", "inception_v3", "resnet_18", "small_cnn",
		"node-0", "node-13", "ünï\x00cödé", strings.Repeat("xy", 300)}
	for _, model := range names {
		for _, node := range names {
			h := fnv.New64a()
			h.Write([]byte(model))
			h.Write([]byte{0})
			h.Write([]byte(node))
			if got, want := rendezvous(model, node), h.Sum64(); got != want {
				t.Errorf("rendezvous(%q, %q) = %#x, hash/fnv gives %#x", model, node, got, want)
			}
		}
	}
}

// copyingPick is the power-of-two pick that gathers the accepting views
// into a slice of their own before drawing two of them.
func copyingPick(rng *rand.Rand, views []NodeView) int {
	var accepting []NodeView
	for _, v := range views {
		if v.Accepting {
			accepting = append(accepting, v)
		}
	}
	switch len(accepting) {
	case 0:
		return -1
	case 1:
		return accepting[0].Index
	}
	i := rng.Intn(len(accepting))
	j := rng.Intn(len(accepting) - 1)
	if j >= i {
		j++
	}
	a, b := accepting[i], accepting[j]
	if bl, al := b.load(), a.load(); bl < al || (bl == al && b.Index < a.Index) {
		return b.Index
	}
	return a.Index
}

// TestPowerOfTwoMatchesCopyingPick draws from the same seed as the
// copying pick over random fleets and must pick the same node every time.
func TestPowerOfTwoMatchesCopyingPick(t *testing.T) {
	fleets := rand.New(rand.NewSource(3))
	p, ref := NewPowerOfTwo(11), rand.New(rand.NewSource(11))
	for draw := 0; draw < 2000; draw++ {
		vs := views(make([]bool, fleets.Intn(7))...)
		for i := range vs {
			vs[i].Accepting = fleets.Intn(4) > 0
			vs[i].QueueDepth = fleets.Intn(5)
		}
		if got, want := p.Pick("m", vs), copyingPick(ref, vs); got != want {
			t.Fatalf("draw %d over %+v: picked %d, the copying pick %d", draw, vs, got, want)
		}
	}
}

func TestPowerOfTwoPickAllocatesNothing(t *testing.T) {
	vs := views(true, false, true, true)
	p := NewPowerOfTwo(5)
	if allocs := testing.AllocsPerRun(100, func() { p.Pick("m", vs) }); allocs != 0 {
		t.Errorf("Pick allocated %.0f times, want 0", allocs)
	}
}

// TestPickLeavesViewsUnchanged: Pick must not modify the views. The
// simulator writes each view's fixed fields once per run, so a router
// that wrote one would corrupt every later pick.
func TestPickLeavesViewsUnchanged(t *testing.T) {
	vs := views(true, false, true, true, true)
	for i := range vs {
		vs[i].QueueDepth, vs[i].QueueLimit, vs[i].BusyGroups = 3*i, 64, i%2
	}
	want := slices.Clone(vs)
	for _, r := range []Router{LeastLoaded{}, ModelAffinity{}, NewPowerOfTwo(1)} {
		for _, model := range []string{"inception_v3", "resnet_18", ""} {
			for range 8 {
				r.Pick(model, vs)
			}
			if !slices.Equal(vs, want) {
				t.Fatalf("%s: Pick(%q) changed the views to %+v", r.Name(), model, vs)
			}
		}
	}
}

func TestParseRouter(t *testing.T) {
	for _, name := range []string{"least-loaded", "affinity", "p2c"} {
		r, err := ParseRouter(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("ParseRouter(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := ParseRouter("random", 7); err == nil {
		t.Error("unknown router accepted")
	}
}

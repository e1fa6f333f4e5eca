package node

import (
	"testing"
	"time"

	"neuralcache/plan"
)

// Models A and B of the selection tests.
const (
	modelA = 0
	modelB = 1
)

// TestPickPlanned pins the plan-aware selection order: warm pinned >
// warm overflow > cold pinned > never-staged overflow > any overflow,
// and never a foreign pinned group.
func TestPickPlanned(t *testing.T) {
	// Groups: 0,1 pinned to A; 2 pinned to B; 3,4 overflow.
	pinned := []int{modelA, modelA, modelB, -1, -1}
	free := []bool{true, true, true, true, true}
	staged := []int{modelA, -1, modelB, modelA, -1}
	if id, warm := pickPlanned(free, staged, pinned, modelA); id != 0 || !warm {
		t.Fatalf("warm pinned: got %d/%v", id, warm)
	}
	// Warm overflow beats cold pinned.
	free = []bool{false, true, true, true, true}
	if id, warm := pickPlanned(free, staged, pinned, modelA); id != 3 || !warm {
		t.Fatalf("warm overflow: got %d/%v", id, warm)
	}
	// Cold pinned beats never-staged overflow.
	free = []bool{false, true, true, false, true}
	if id, warm := pickPlanned(free, staged, pinned, modelA); id != 1 || warm {
		t.Fatalf("cold pinned: got %d/%v", id, warm)
	}
	// Foreign pinned groups are never eligible: only B's group free.
	free = []bool{false, false, true, false, false}
	if id, _ := pickPlanned(free, staged, pinned, modelA); id != -1 {
		t.Fatalf("foreign pinned group claimed: %d", id)
	}
	// Never-staged overflow beats evicting a warm overflow group.
	free = []bool{false, false, false, true, true}
	staged = []int{modelA, -1, modelB, modelB, -1}
	if id, warm := pickPlanned(free, staged, pinned, modelA); id != 4 || warm {
		t.Fatalf("empty overflow: got %d/%v", id, warm)
	}
	// Last resort: evict an overflow group.
	staged = []int{modelA, -1, modelB, modelB, modelB}
	if id, warm := pickPlanned(free, staged, pinned, modelA); id != 3 || warm {
		t.Fatalf("evict overflow: got %d/%v", id, warm)
	}
}

// TestPickShardWarmFirst pins the reactive order: warm > never staged >
// evict, lowest ordinal first.
func TestPickShardWarmFirst(t *testing.T) {
	free := []bool{true, true, true}
	if id, warm := pickShard(free, []int{modelB, -1, modelA}, modelA); id != 2 || !warm {
		t.Fatalf("warm: got %d/%v", id, warm)
	}
	if id, warm := pickShard(free, []int{modelB, -1, modelB}, modelA); id != 1 || warm {
		t.Fatalf("never staged: got %d/%v", id, warm)
	}
	if id, warm := pickShard(free, []int{modelB, modelB, modelB}, modelA); id != 0 || warm {
		t.Fatalf("evict: got %d/%v", id, warm)
	}
	if id, _ := pickShard([]bool{false, false}, []int{modelA, modelA}, modelA); id != -1 {
		t.Fatalf("claimed a busy group: %d", id)
	}
}

// TestGroupsRestageLifecycle walks groups through re-plans: an op on a
// busy group waits for its release and then stages, an op on a free
// group stages at once, a newer re-plan drops a pending op, and an op
// for the weights a group already holds is free.
func TestGroupsRestageLifecycle(t *testing.T) {
	names := []string{"a", "b"}
	g := NewGroups(2)
	if id, warm := g.Claim(modelB); id != 0 || warm || g.Busy() != 1 {
		t.Fatalf("first claim %d/%v, %d busy", id, warm, g.Busy())
	}
	pin := []int{modelA, modelB}
	now, err := g.Replan(pin, []plan.Restage{
		{Group: 0, To: "a", Cost: time.Millisecond},
		{Group: 1, To: "b"},
	}, names)
	if err != nil || len(now) != 1 || now[0] != (Op{Group: 1, Model: modelB, From: -1}) || g.Busy() != 2 {
		t.Fatalf("re-plan began %+v (%v), %d busy; want only the free group", now, err, g.Busy())
	}
	op, restage := g.Release(0)
	if !restage || op != (Op{Group: 0, Model: modelA, From: modelB, Cost: time.Millisecond}) {
		t.Fatalf("release of a group with a pending restage: %+v, %v", op, restage)
	}
	if _, restage := g.Release(0); restage || g.Busy() != 1 {
		t.Fatalf("second release restaged again (%d busy)", g.Busy())
	}
	// A newer re-plan supersedes the op pending on busy group 1.
	if _, err := g.Replan(pin, []plan.Restage{{Group: 1, To: "a"}}, names); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Replan(pin, nil, names); err != nil {
		t.Fatal(err)
	}
	if _, restage := g.Release(1); restage {
		t.Fatal("a superseded op restaged")
	}
	// Group 0 already holds A: ordering A onto it is free.
	if now, _ := g.Replan(pin, []plan.Restage{{Group: 0, To: "a"}}, names); len(now) != 0 {
		t.Fatalf("restaged weights the group already holds: %+v", now)
	}
	if id, warm := g.Claim(modelA); id != 0 || !warm {
		t.Fatalf("claim after restage: %d/%v", id, warm)
	}
	if _, err := g.Replan(pin, []plan.Restage{{Group: 0, To: "c"}}, names); err == nil {
		t.Fatal("re-plan to an unregistered model accepted")
	}
}

// TestPins resolves plan assignments and rejects bad ones.
func TestPins(t *testing.T) {
	names := []string{"a", "b"}
	p := func() *plan.Plan {
		return &plan.Plan{Groups: 3, Models: []plan.ModelPlan{
			{Model: "a", Groups: []int{2}},
			{Model: "b", Groups: []int{0}},
		}}
	}
	pin, err := Pins(p(), 3, names)
	if err != nil || len(pin) != 3 || pin[0] != modelB || pin[1] != -1 || pin[2] != modelA {
		t.Fatalf("pins %v, %v", pin, err)
	}
	if _, err := Pins(p(), 2, names); err == nil {
		t.Error("a 3-group plan accepted for 2 groups")
	}
	bad := p()
	bad.Models[0].Groups = []int{3}
	if _, err := Pins(bad, 3, names); err == nil {
		t.Error("group 3 of 3 accepted")
	}
	bad = p()
	bad.Models = append(bad.Models, plan.ModelPlan{Model: "c"})
	if _, err := Pins(bad, 3, names); err == nil {
		t.Error("unregistered model accepted")
	}
	// B without a warm set is servable only from an overflow group.
	if err := Servable([]int{modelA, modelA}, names); err == nil {
		t.Error("pins stranding model b accepted")
	}
	if err := Servable([]int{modelA, -1}, names); err != nil {
		t.Errorf("an overflow group left b unservable: %v", err)
	}
}

// TestEventsOrder: events pop in time order, ties in push order.
func TestEventsOrder(t *testing.T) {
	var q Events
	ats := []time.Duration{5, 1, 5, 3, 1, 9, 0, 5}
	for i, at := range ats {
		q.Push(Event{At: at, Model: i})
	}
	want := []int{6, 1, 4, 3, 0, 2, 7, 5}
	for _, w := range want {
		if e := q.Pop(); e.Model != w {
			t.Fatalf("popped %d (at %v), want %d", e.Model, e.At, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left", q.Len())
	}
}

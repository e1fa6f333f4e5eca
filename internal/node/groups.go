package node

import (
	"fmt"
	"slices"
	"time"

	"neuralcache/plan"
)

// Groups is a node's replica-group table: which groups are free, which
// model (registry index) each has staged (-1: none), each group's
// pinned model under a plan (-1: overflow; nil pin: no plan), and the
// re-plan restages waiting for busy groups. Node drives it.
type Groups struct {
	free    []bool
	staged  []int
	pin     []int
	pending map[int]Op
	nfree   int
}

// Op is one weight staging on a group: Model's weights replace From's
// (-1 when the group held none). Cost is the plan's reload price; the
// simulators reprice with the backend instead.
type Op struct {
	Group, Model, From int
	Cost               time.Duration
}

// NewGroups returns a table of n free, never-staged, unpinned groups.
func NewGroups(n int) Groups {
	t := Groups{free: make([]bool, n), staged: make([]int, n)}
	t.Reset()
	return t
}

// Reset frees every group and forgets its weights, pins and pending
// restages.
func (t *Groups) Reset() {
	for g := range t.free {
		t.free[g] = true
		t.staged[g] = -1
	}
	t.nfree = len(t.free)
	t.pin = nil
	t.pending = nil
}

// Busy returns how many groups are claimed.
func (t *Groups) Busy() int { return len(t.free) - t.nfree }

// Claim claims the best free group for the model — warm-first
// (pickShard), or plan-aware (pickPlanned) under a plan — and reports
// whether it already stages the model (warm); a cold claim stages it.
// It returns -1 when no eligible group is free.
func (t *Groups) Claim(model int) (id int, warm bool) {
	if t.pin == nil {
		id, warm = pickShard(t.free, t.staged, model)
	} else {
		id, warm = pickPlanned(t.free, t.staged, t.pin, model)
	}
	if id >= 0 {
		t.free[id] = false
		t.nfree--
		if !warm {
			t.staged[id] = model
		}
	}
	return id, warm
}

// stage claims group g if it is free and stages the model's weights on
// it, returning the model it evicts (-1 for none).
func (t *Groups) stage(g, model int) (from int) {
	if t.free[g] {
		t.free[g] = false
		t.nfree--
	}
	from, t.staged[g] = t.staged[g], model
	return from
}

// Release frees group g after its batch or staging — unless a re-plan
// left a restage to another model pending on it: then the group stays
// claimed, the model is staged, and Release returns the op, whose
// reload the caller must pay before releasing the group again.
func (t *Groups) Release(g int) (op Op, restage bool) {
	if op, ok := t.pending[g]; ok {
		delete(t.pending, g)
		if t.staged[g] != op.Model {
			op.From = t.stage(g, op.Model)
			return op, true
		}
	}
	t.free[g] = true
	t.nfree++
	return Op{}, false
}

// Adopt installs a plan's pins and stages every pinned group's model,
// returning the stagings for the caller to pay.
func (t *Groups) Adopt(pin []int) []Op {
	t.pin = pin
	clear(t.pending)
	var ops []Op
	for g, mi := range pin {
		if mi >= 0 {
			ops = append(ops, Op{Group: g, Model: mi, From: t.stage(g, mi)})
		}
	}
	return ops
}

// Replan installs a re-plan's pins and orders its restages. A group
// already holding an op's model is skipped; a free one is staged at
// once and returned for the caller to pay; a busy one keeps the op
// pending until Release. Ops a superseded plan left pending are
// dropped: a stale op would stage a model no longer pinned there, and a
// group left staged-mismatched pays one cold dispatch instead.
func (t *Groups) Replan(pin []int, restages []plan.Restage, names []string) ([]Op, error) {
	ops := make([]Op, len(restages))
	for i, r := range restages {
		mi := slices.Index(names, r.To)
		if mi < 0 {
			return nil, fmt.Errorf("re-plan stages unregistered model %q", r.To)
		}
		ops[i] = Op{Group: r.Group, Model: mi, Cost: r.Cost}
	}
	t.pin = pin
	clear(t.pending)
	now := ops[:0]
	for _, op := range ops {
		switch g := op.Group; {
		case g < 0 || g >= len(t.free) || t.staged[g] == op.Model:
		case t.free[g]:
			op.From = t.stage(g, op.Model)
			now = append(now, op)
		default:
			if t.pending == nil {
				t.pending = make(map[int]Op)
			}
			t.pending[g] = op
		}
	}
	return now, nil
}

// pickShard is the warm-first policy: the lowest-ordinal free group
// already staging the wanted model (warm), else the lowest-ordinal
// never-staged one, else the lowest-ordinal free one (evict). It
// returns -1 when no group is free.
func pickShard(free []bool, staged []int, want int) (id int, warm bool) {
	bestFree, bestEmpty := -1, -1
	for i, f := range free {
		if !f {
			continue
		}
		if staged[i] == want {
			return i, true
		}
		if staged[i] < 0 && bestEmpty < 0 {
			bestEmpty = i
		}
		if bestFree < 0 {
			bestFree = i
		}
	}
	if bestEmpty >= 0 {
		bestFree = bestEmpty
	}
	return bestFree, false
}

// pickPlanned is the plan-aware policy: the model may claim its own
// pinned groups and the overflow pool (pin -1), never another model's
// pinned groups. Preference order: warm pinned > warm overflow > cold
// pinned > never-staged overflow > any overflow (evict). It returns -1
// when no eligible group is free — unlike the reactive policy, a
// free-but-foreign group does not count.
func pickPlanned(free []bool, staged, pinned []int, want int) (id int, warm bool) {
	coldPinned, overWarm, overEmpty, overAny := -1, -1, -1, -1
	for i, f := range free {
		if !f {
			continue
		}
		switch pinned[i] {
		case want:
			if staged[i] == want {
				return i, true
			}
			if coldPinned < 0 {
				coldPinned = i
			}
		case -1:
			switch {
			case staged[i] == want:
				if overWarm < 0 {
					overWarm = i
				}
			case staged[i] < 0:
				if overEmpty < 0 {
					overEmpty = i
				}
			}
			if overAny < 0 {
				overAny = i
			}
		}
	}
	if overWarm >= 0 {
		return overWarm, true
	}
	for _, id := range []int{coldPinned, overEmpty, overAny} {
		if id >= 0 {
			return id, false
		}
	}
	return -1, false
}

// Pins resolves a plan's per-group assignment against the registered
// model names: pin[g] is the model pinned to group g, -1 for overflow.
// It rejects a plan for another group count, unregistered models and
// groups outside [0, groups). Errors carry no package prefix.
func Pins(p *plan.Plan, groups int, names []string) ([]int, error) {
	if p.Groups != groups {
		return nil, fmt.Errorf("plan assigns %d groups, node schedules %d", p.Groups, groups)
	}
	pin := make([]int, groups)
	for g := range pin {
		pin[g] = -1
	}
	for _, mp := range p.Models {
		mi := slices.Index(names, mp.Model)
		if mi < 0 {
			return nil, fmt.Errorf("plan names unregistered model %q", mp.Model)
		}
		for _, g := range mp.Groups {
			if g < 0 || g >= groups {
				return nil, fmt.Errorf("plan pins model %s to group %d of %d", mp.Model, g, groups)
			}
			pin[g] = mi
		}
	}
	return pin, nil
}

// Servable checks that pins leave every model a warm set or an overflow
// group to serve from; without one, its requests would wait forever.
func Servable(pin []int, names []string) error {
	for mi, name := range names {
		if !slices.Contains(pin, -1) && !slices.Contains(pin, mi) {
			return fmt.Errorf("plan leaves model %s unservable (no warm set and no overflow groups)", name)
		}
	}
	return nil
}

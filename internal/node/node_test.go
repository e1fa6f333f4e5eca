package node

import (
	"testing"
	"time"

	"neuralcache/plan"
)

// flatPricer charges every batch 1 ms and every reload 10 ms.
type flatPricer struct{}

func (flatPricer) ServiceTime(string, int, int) (time.Duration, error) { return time.Millisecond, nil }
func (flatPricer) ReloadTime(string, int) (time.Duration, error)       { return 10 * time.Millisecond, nil }

// recorder is a Driver that keeps what the node reports.
type recorder struct{ batches []Batch }

func (r *recorder) Dispatched(_ *Node, b Batch)                   { r.batches = append(r.batches, b) }
func (r *recorder) Replanning(*Node, time.Duration, float64, int) {}
func (r *recorder) Restaged(*Node, Op, time.Duration)             {}
func (r *recorder) models() (out []int) {
	for _, b := range r.batches {
		out = append(out, b.Model)
	}
	return out
}

// TestDispatchOrder pins the batch former on one group: a partial batch
// waits out its linger (scheduling the deadline), a full one goes at
// once, and ready models go oldest head first with registry order on
// equal heads.
func TestDispatchOrder(t *testing.T) {
	var ev Events
	rec := &recorder{}
	n := New(Config{Names: []string{"a", "b", "c"}, Pricer: flatPricer{}, Groups: 1,
		GroupSize: 1, MaxBatch: 2, Linger: time.Millisecond}, &ev, rec)
	n.Enqueue(2, 0, -1, 0)
	n.Enqueue(1, 0, -1, 0)
	n.Enqueue(0, 0, -1, 0)
	if err := n.Dispatch(0); err != nil || len(rec.batches) != 0 {
		t.Fatalf("partial batches dispatched before their linger: %v, %v", rec.models(), err)
	}
	if ev.Len() != 1 {
		t.Fatalf("%d events pending, want the linger deadline", ev.Len())
	}
	if e := ev.Pop(); e.Kind != Linger || e.At != time.Millisecond {
		t.Fatalf("pending event %+v, want a linger at 1ms", e)
	}
	// All three heads are equally old: registry order, one per free group.
	for now := time.Millisecond; n.Depth() > 0; now += 20 * time.Millisecond {
		if err := n.Dispatch(now); err != nil {
			t.Fatal(err)
		}
		if err := n.Finish(now, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.models(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("dispatch order %v, want [0 1 2]", got)
	}
	// A full batch skips the linger; a partial one waits it out.
	rec.batches = nil
	n.Enqueue(1, 100500*time.Microsecond, -1, 0)
	n.Enqueue(0, 101*time.Millisecond, -1, 0)
	n.Enqueue(0, 101*time.Millisecond, -1, 0)
	if err := n.Dispatch(101 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 1 || rec.batches[0].Model != 0 || rec.batches[0].Size != 2 {
		t.Fatalf("full batch of a: dispatched %+v", rec.batches)
	}
	n.Finish(101*time.Millisecond, 0)
	if err := n.Dispatch(101 * time.Millisecond); err != nil || len(rec.batches) != 1 {
		t.Fatalf("b dispatched before its linger: %+v", rec.batches)
	}
	if err := n.Dispatch(101500 * time.Microsecond); err != nil || len(rec.batches) != 2 || rec.batches[1].Model != 1 {
		t.Fatalf("lingered b: dispatched %+v", rec.batches)
	}
	n.Finish(101500*time.Microsecond, 0)
	// An older head beats registry order.
	rec.batches = nil
	n.Enqueue(2, 200*time.Millisecond, -1, 0)
	n.Enqueue(0, 200500*time.Microsecond, -1, 0)
	for now := 210 * time.Millisecond; n.Depth() > 0; now += 20 * time.Millisecond {
		if err := n.Dispatch(now); err != nil {
			t.Fatal(err)
		}
		n.Finish(now, 0)
	}
	if got := rec.models(); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("dispatch order %v, want [2 0]", got)
	}
	if n.Warm+n.Cold != 7 || n.Batches != 7 {
		t.Fatalf("%d warm + %d cold of %d batches, want 7", n.Warm, n.Cold, n.Batches)
	}
}

// TestAdoptRefusesStrandingPlan: every node refuses a plan that leaves a
// model neither a warm set nor an overflow group to serve from.
func TestAdoptRefusesStrandingPlan(t *testing.T) {
	var ev Events
	n := New(Config{Name: "n", Names: []string{"a", "b"}, Pricer: flatPricer{}, Groups: 2,
		GroupSize: 1, MaxBatch: 1}, &ev, &recorder{})
	strands := &plan.Plan{GroupSize: 1, Groups: 2, Models: []plan.ModelPlan{{Model: "a", Groups: []int{0, 1}}, {Model: "b"}}}
	if err := n.Adopt(0, strands, nil); err == nil {
		t.Fatal("node adopted a plan that strands model b")
	}
	if n.Plan() != nil || ev.Len() != 0 {
		t.Fatalf("refused plan left plan %v and %d events", n.Plan(), ev.Len())
	}
}

// newSettleNode returns a node over models a and b on the given groups,
// dispatching batches of one, or of two after a 1 ms linger.
func newSettleNode(groups, maxBatch int) (*Node, *Events, *recorder) {
	var ev Events
	rec := &recorder{}
	n := New(Config{Name: "n", Names: []string{"a", "b"}, Pricer: flatPricer{}, Groups: groups,
		GroupSize: 1, MaxBatch: maxBatch, Linger: time.Millisecond}, &ev, rec)
	return n, &ev, rec
}

// TestSettledNodeWaitsForLinger: a node whose only head lingers settles
// on its deadline. Passes before it dispatch nothing and push no second
// linger event; the pass at the deadline dispatches.
func TestSettledNodeWaitsForLinger(t *testing.T) {
	n, ev, rec := newSettleNode(1, 2)
	n.Enqueue(0, 0, -1, 0)
	for _, now := range []time.Duration{0, 200 * time.Microsecond, 999 * time.Microsecond} {
		if err := n.Dispatch(now); err != nil || len(rec.batches) != 0 || ev.Len() != 1 {
			t.Fatalf("pass at %v: %d batches, %d events, %v; want none and the one linger", now, len(rec.batches), ev.Len(), err)
		}
	}
	if err := n.Dispatch(time.Millisecond); err != nil || len(rec.batches) != 1 {
		t.Fatalf("pass at the deadline dispatched %d batches (%v), want 1", len(rec.batches), err)
	}
}

// TestFinishWakesSettledNode: a node with every group busy settles, and
// the first pass after Finish dispatches.
func TestFinishWakesSettledNode(t *testing.T) {
	n, _, rec := newSettleNode(1, 1)
	n.Enqueue(0, 0, -1, 0)
	n.Enqueue(1, 0, -1, 0)
	if err := n.Dispatch(0); err != nil || len(rec.batches) != 1 {
		t.Fatalf("first pass dispatched %d batches (%v), want 1", len(rec.batches), err)
	}
	if err := n.Dispatch(time.Microsecond); err != nil || len(rec.batches) != 1 {
		t.Fatalf("pass with no free group dispatched %d batches (%v)", len(rec.batches), err)
	}
	if err := n.Finish(time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Dispatch(time.Millisecond); err != nil || len(rec.batches) != 2 || rec.batches[1].Model != 1 {
		t.Fatalf("pass after Finish dispatched %+v (%v), want b second", rec.batches, err)
	}
}

// TestEnqueueWakesSettledNode: an empty node settles, and the first pass
// after Enqueue dispatches.
func TestEnqueueWakesSettledNode(t *testing.T) {
	n, _, rec := newSettleNode(1, 1)
	if err := n.Dispatch(0); err != nil || len(rec.batches) != 0 {
		t.Fatalf("empty node dispatched %d batches (%v)", len(rec.batches), err)
	}
	n.Enqueue(0, 0, -1, 0)
	if err := n.Dispatch(0); err != nil || len(rec.batches) != 1 {
		t.Fatalf("pass after Enqueue dispatched %d batches (%v), want 1", len(rec.batches), err)
	}
}

// TestAdoptWakesSettledNode: a node whose ready model has no eligible
// free group settles, and the first pass after Adopt claims under the
// new pins.
func TestAdoptWakesSettledNode(t *testing.T) {
	n, _, rec := newSettleNode(2, 1)
	pinned := &plan.Plan{GroupSize: 1, Groups: 2, Models: []plan.ModelPlan{
		{Model: "a", Groups: []int{0}}, {Model: "b", Groups: []int{1}}}}
	if err := n.Adopt(0, pinned, nil); err != nil {
		t.Fatal(err)
	}
	now := 10 * time.Millisecond // both stagings done
	for g := range 2 {
		if err := n.Finish(now, g); err != nil {
			t.Fatal(err)
		}
	}
	n.Enqueue(1, now, -1, 0)
	n.Enqueue(1, now, -1, 0)
	// b's one group takes the first; group 0 is a's alone.
	if err := n.Dispatch(now); err != nil || len(rec.batches) != 1 || rec.batches[0].Group != 1 {
		t.Fatalf("pinned pass dispatched %+v (%v), want one b batch on group 1", rec.batches, err)
	}
	if err := n.Adopt(now, &plan.Plan{GroupSize: 1, Groups: 2}, nil); err != nil { // all overflow
		t.Fatal(err)
	}
	if err := n.Dispatch(now); err != nil || len(rec.batches) != 2 || rec.batches[1].Group != 0 {
		t.Fatalf("pass after Adopt dispatched %+v (%v), want b's second batch on group 0", rec.batches, err)
	}
}

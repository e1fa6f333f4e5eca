package node

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestEventsInterleaved runs 10,000 seeded Push and Pop calls, in
// phases that grow and drain the heap, with times drawn from 32 values
// so ties abound. Every pop must be the head of a stable sort of the
// pending events by time (time, then push order), Next must give its
// time beforehand, and a popped completion must carry the arrivals and
// keys it was pushed with, although slab slots are reused throughout;
// it must still carry them after every Push up to the next Pop.
func TestEventsInterleaved(t *testing.T) {
	type pushed struct {
		at       time.Duration
		id       int
		arrivals []time.Duration
		keys     []uint64
	}
	var q Events
	var pending []pushed // in push order
	var last *Event      // the last Pop's event
	var lastWant pushed
	holds := func(e *Event, want pushed) bool {
		return e.Model == want.id && e.At == want.at &&
			slices.Equal(e.Arrivals, want.arrivals) && slices.Equal(e.Keys, want.keys)
	}
	rng := rand.New(rand.NewSource(21))
	pops, maxPending := 0, 0
	pop := func(op int) {
		byTime := slices.Clone(pending)
		slices.SortStableFunc(byTime, func(a, b pushed) int { return cmp.Compare(a.at, b.at) })
		want := byTime[0]
		if next := q.Next(); next != want.at {
			t.Fatalf("op %d: Next %v, want %v", op, next, want.at)
		}
		e := q.Pop()
		if !holds(e, want) {
			t.Fatalf("op %d: popped event %d at %v with arrivals %v keys %v, pushed %d at %v with %v and %v",
				op, e.Model, e.At, e.Arrivals, e.Keys, want.id, want.at, want.arrivals, want.keys)
		}
		last, lastWant = e, want
		pending = slices.DeleteFunc(pending, func(p pushed) bool { return p.id == want.id })
		pops++
	}
	for op := 0; op < 10_000; op++ {
		pushShare := 3 // of 10: draining phases
		if op/1000%2 == 0 {
			pushShare = 7 // growing phases
		}
		if len(pending) > 0 && rng.Intn(10) >= pushShare {
			pop(op)
			continue
		}
		p := pushed{at: time.Duration(rng.Intn(32)), id: op}
		for n := rng.Intn(5); n > 0; n-- {
			p.arrivals = append(p.arrivals, time.Duration(rng.Int63n(1000)))
			p.keys = append(p.keys, rng.Uint64())
		}
		q.Push(Event{At: p.at, Kind: Completion, Model: p.id,
			Arrivals: slices.Clone(p.arrivals), Keys: slices.Clone(p.keys)})
		pending = append(pending, p)
		if last != nil && !holds(last, lastWant) {
			t.Fatalf("op %d: a Push overwrote the last popped event %d", op, lastWant.id)
		}
		maxPending = max(maxPending, len(pending))
		if q.Len() != len(pending) {
			t.Fatalf("op %d: Len %d, want %d", op, q.Len(), len(pending))
		}
	}
	for len(pending) > 0 {
		pop(-1)
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left", q.Len())
	}
	if pops < 4000 || maxPending < 200 {
		t.Fatalf("%d pops, at most %d pending: the sequence did not exercise slot reuse", pops, maxPending)
	}
}

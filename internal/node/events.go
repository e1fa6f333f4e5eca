package node

import "time"

// Event kinds of the virtual clock. Restage ends a planner weight
// staging; Lifecycle is a driver's own change (a cluster node's kill,
// drain or join), never pushed by a Node.
const (
	Arrival = iota
	Completion
	Linger
	Restage
	Lifecycle
)

// Event is one scheduled state change. Node and Epoch are the node and
// incarnation that scheduled it, so a driver that resets a node can
// tell its stale events when they pop. Model is an arrival's or batch's
// model (a Lifecycle event's change); User and Key are an arrival's
// closed-loop user (-1 open loop) and reuse key; Arrivals, Users and
// Keys are a completed batch's admission times, users (nil open loop)
// and keys (nil unless queued).
type Event struct {
	At                              time.Duration
	seq                             uint64 // FIFO tiebreak among equal times
	Kind, Node, Epoch, Model, Group int
	User                            int
	Key                             uint64
	Arrivals                        []time.Duration
	Users                           []int
	Keys                            []uint64
}

// Events is a virtual clock's pending events: a binary min-heap on
// (At, push order), holding events by value so pushing allocates
// nothing once the heap has grown.
type Events struct {
	h   []Event
	seq uint64
}

// Len returns the number of pending events.
func (q *Events) Len() int { return len(q.h) }

// Push schedules e after every pending event with the same At.
func (q *Events) Push(e Event) {
	e.seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = e
}

// Next returns the earliest pending event's time; the heap must not be
// empty.
func (q *Events) Next() time.Duration { return q.h[0].At }

// Pop removes and returns the earliest event.
func (q *Events) Pop() Event {
	top, n := q.h[0], len(q.h)-1
	last := q.h[n]
	q.h[n] = Event{} // drop the batch slices for the collector
	q.h = q.h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q.h[r].before(&q.h[c]) {
				c = r
			}
			if !q.h[c].before(&last) {
				break
			}
			q.h[i] = q.h[c]
			i = c
		}
		q.h[i] = last
	}
	return top
}

func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

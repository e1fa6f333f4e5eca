package node

import "time"

// Event kinds of the virtual clock. Completion ends a batch, pushed by a
// virtual-clock driver from Dispatched; Restage ends a planner weight
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
	Kind, Node, Epoch, Model, Group int
	User                            int
	Key                             uint64
	Arrivals                        []time.Duration
	Users                           []int
	Keys                            []uint64
}

// Events is a virtual clock's pending events: a binary min-heap on
// (At, push order). The heap sifts small pointer-free slots; the events
// themselves stay put, by value, in a slab of fixed-size blocks whose
// popped slots drop their batch slices and are reused. Growing the slab
// moves no event, and pushing allocates nothing once the heap has grown.
type Events struct {
	h      []slot
	blocks []*[eventBlock]Event // the slab
	free   []int32              // vacant slab slots
	popped int32                // 1 + the slot the last Pop returned; 0 before any
	seq    uint64
}

// eventBlock is the slab's unit of growth, in events: small, so a heap
// that only ever holds a few events stays about as small as it is.
const eventBlock = 8

// slot is one heap entry: an event's time, its push ordinal (the FIFO
// tiebreak among equal times) and its slab index.
type slot struct {
	at  time.Duration
	seq uint64
	i   int32
}

func (s slot) before(o slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// event returns slab slot i.
func (q *Events) event(i int32) *Event { return &q.blocks[i/eventBlock][i%eventBlock] }

// Len returns the number of pending events.
func (q *Events) Len() int { return len(q.h) }

// Push schedules e after every pending event with the same At.
func (q *Events) Push(e Event) {
	if len(q.free) == 0 {
		base := int32(len(q.blocks) * eventBlock)
		q.blocks = append(q.blocks, new([eventBlock]Event))
		for j := int32(eventBlock - 1); j >= 0; j-- {
			q.free = append(q.free, base+j)
		}
	}
	i := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	*q.event(i) = e
	s := slot{at: e.At, seq: q.seq, i: i}
	q.seq++
	q.h = append(q.h, s)
	j := len(q.h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !s.before(q.h[p]) {
			break
		}
		q.h[j] = q.h[p]
		j = p
	}
	q.h[j] = s
}

// Next returns the earliest pending event's time; the heap must not be
// empty.
func (q *Events) Next() time.Duration { return q.h[0].at }

// Pop removes the earliest event and returns it in place: the pointer
// stays valid, and Push reuses its slot for no other event, until the
// next Pop, which drops the event's batch slices for the collector and
// frees the slot.
func (q *Events) Pop() *Event {
	if i := q.popped - 1; i >= 0 {
		e := q.event(i)
		e.Arrivals, e.Users, e.Keys = nil, nil, nil
		q.free = append(q.free, i)
	}
	top, n := q.h[0], len(q.h)-1
	q.popped = top.i + 1
	last := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q.h[r].before(q.h[c]) {
				c = r
			}
			if !q.h[c].before(last) {
				break
			}
			q.h[i] = q.h[c]
			i = c
		}
		q.h[i] = last
	}
	return q.event(top.i)
}

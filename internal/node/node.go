// Package node is the scheduling core of one Neural Cache serving node:
// per-model admission queues, the ready/linger micro-batch former, the
// replica-group table (warm-first and plan-aware claims, planner
// restages, drift-controller re-plans), the event heap and the seeded
// arrival generator.
//
// Three drivers run it. serve.Simulate drives one Node on a virtual
// clock, cluster.Simulate one per fleet node on a shared virtual clock,
// and serve.Server one on the wall clock under its mutex, where a timer
// stands in for popping the next event. Drivers keep admission,
// accounting, tracing and reports; a Node reports each dispatch,
// restage and re-plan to its Driver at the point it acts, so event and
// trace order stay the driver's.
package node

import (
	"fmt"
	"math"
	"time"

	"neuralcache/plan"
)

// Pricer prices a node's work: serve.Backend's ServiceTime and
// ReloadTime.
type Pricer interface {
	ServiceTime(model string, n, groupSize int) (time.Duration, error)
	ReloadTime(model string, groupSize int) (time.Duration, error)
}

// Driver is what a Node reports to. Dispatched reports each batch, with
// the node's counters already including it; a driver on a virtual clock
// pushes the batch's Completion event there, before anything else.
// Replanning precedes a re-plan's restages, before Replans counts it.
// Restaged follows each staging's completion push; op.Cost is its
// reload time.
type Driver interface {
	Dispatched(n *Node, b Batch)
	Replanning(n *Node, at time.Duration, drift float64, restages int)
	Restaged(n *Node, op Op, at time.Duration)
}

// Batch is one dispatch at At: Size requests of Model, admitted at
// Arrivals (oldest first), on Group. Users and Keys are the requests'
// closed-loop users and reuse keys when the node queues them, else nil.
// The slices are copies the driver may keep.
type Batch struct {
	Model, Group, Size  int
	Warm                bool
	At, Service, Reload time.Duration
	Arrivals            []time.Duration
	Users               []int
	Keys                []uint64
}

// Config fixes a node's scheduling parameters. ID is stamped on its
// events and Name prefixes its plan errors; model indices index Names.
// Users and Keys queue each request's closed-loop user and reuse key
// for its Batch. Drift reads the controller's drift for Replanning
// (tracing). Every node rejects a plan that strands a model (see
// Servable).
type Config struct {
	ID                          int
	Name                        string
	Names                       []string
	Pricer                      Pricer
	Groups, GroupSize, MaxBatch int
	Linger                      time.Duration
	Users, Keys, Drift          bool
}

// Bounds of Node.settledUntil.
const (
	unsettled      = time.Duration(math.MinInt64)
	settledForever = time.Duration(math.MaxInt64)
)

// Tally counts one model's warm and cold dispatches on a node.
type Tally struct {
	Warm, Cold int
}

// Node is one node's scheduling state; its times are the driver's clock.
type Node struct {
	groups Groups
	cfg    Config
	ev     *Events
	drv    Driver

	queues     []queue
	arrivals   chunk[time.Duration] // batch copies for the driver
	users      chunk[int]
	keys       chunk[uint64]
	depth      int
	maxDepth   int
	lastLinger time.Duration
	ready      []int // dispatch candidates, reused across passes
	epoch      int

	// Dispatch passes before settledUntil do nothing: the last pass
	// ended with nothing it could do, and nothing has changed the node
	// since. It is that pass's earliest linger deadline, or
	// settledForever when it had none; unsettled holds no pass back.
	settledUntil time.Duration

	ctrl *plan.Controller
	plan *plan.Plan

	// Counters, cumulative across Reset.
	Batches, Batched  int
	Warm, Cold        int
	Restages, Replans int
	Models            []Tally
}

// queue is one model's admitted, undispatched requests.
type queue struct {
	at    []time.Duration
	users []int    // parallel to at when Config.Users
	keys  []uint64 // parallel to at when Config.Keys
	head  int
}

func (q *queue) len() int { return len(q.at) - q.head }

// Block lengths of a chunk, in elements: each block doubles the last
// from chunkMin up to chunkMax. Small blocks keep a short run's unused
// tail small; chunkMax bounds it on long ones.
const (
	chunkMin = 32
	chunkMax = 256
)

// chunk hands out copies of batch slices cut from blocks it allocates,
// so a dispatch allocates nothing of its own. Each copy is capped by a
// three-index slice: no copy shares storage with another or with the
// queue it came from, and a block is collected once its last copy is.
type chunk[T any] struct {
	free []T // the current block's uncut tail
	size int // the current block's length
}

// copy returns a copy of src, which must not be empty.
func (c *chunk[T]) copy(src []T) []T {
	n := len(src)
	if len(c.free) < n {
		c.size = min(max(2*c.size, chunkMin), chunkMax)
		c.free = make([]T, max(c.size, n))
	}
	dst := c.free[:n:n]
	c.free = c.free[n:]
	copy(dst, src)
	return dst
}

// New returns an idle node that pushes its events onto ev and reports
// to drv.
func New(cfg Config, ev *Events, drv Driver) *Node {
	return &Node{
		groups:       NewGroups(cfg.Groups),
		cfg:          cfg,
		ev:           ev,
		drv:          drv,
		queues:       make([]queue, len(cfg.Names)),
		lastLinger:   -1,
		settledUntil: unsettled,
		Models:       make([]Tally, len(cfg.Names)),
	}
}

// ID returns the node's ordinal and Epoch its incarnation (bumped by
// Reset). Depth is the admitted, undispatched request count, MaxDepth
// its high-water mark and QueueLen model mi's share. BusyGroups counts
// claimed groups. Plan and Controller are nil when reactive.
func (n *Node) ID() int                      { return n.cfg.ID }
func (n *Node) Epoch() int                   { return n.epoch }
func (n *Node) Depth() int                   { return n.depth }
func (n *Node) MaxDepth() int                { return n.maxDepth }
func (n *Node) QueueLen(mi int) int          { return n.queues[mi].len() }
func (n *Node) BusyGroups() int              { return n.groups.Busy() }
func (n *Node) Plan() *plan.Plan             { return n.plan }
func (n *Node) Controller() *plan.Controller { return n.ctrl }

// Enqueue admits one request of model mi at time at; user and key ride
// along when the node queues them.
func (n *Node) Enqueue(mi int, at time.Duration, user int, key uint64) {
	q := &n.queues[mi]
	q.at = append(q.at, at)
	if n.cfg.Users {
		q.users = append(q.users, user)
	}
	if n.cfg.Keys {
		q.keys = append(q.keys, key)
	}
	n.depth++
	if n.depth > n.maxDepth {
		n.maxDepth = n.depth
	}
	n.settledUntil = unsettled
}

// Adopt installs plan p at time now: every pinned group begins staging
// its model's weights (so the traffic it then serves dispatches warm),
// and ctrl, when non-nil, re-plans from here on.
func (n *Node) Adopt(now time.Duration, p *plan.Plan, ctrl *plan.Controller) error {
	pin, err := n.pins(p)
	if err != nil {
		return err
	}
	n.plan, n.ctrl = p, ctrl
	n.settledUntil = unsettled
	for _, op := range n.groups.Adopt(pin) {
		if err := n.restage(now, op); err != nil {
			return err
		}
	}
	return nil
}

// Reset drops the node's scheduling state — queues, group weights,
// plan, pending restages and controller — as when the node dies, and
// bumps its epoch so its in-flight events pop stale. Counters survive.
func (n *Node) Reset() {
	clear(n.queues)
	n.depth = 0
	n.epoch++
	n.groups.Reset()
	n.ctrl, n.plan = nil, nil
	n.lastLinger = -1
	n.settledUntil = unsettled
}

// Finish frees group g, whose batch or staging ended at now, or begins
// the restage a re-plan left pending on it.
func (n *Node) Finish(now time.Duration, g int) error {
	n.settledUntil = unsettled
	if op, ok := n.groups.Release(g); ok {
		return n.restage(now, op)
	}
	return nil
}

// Dispatch runs the micro-batching policy at now: a model is ready with
// a full batch or a head that has lingered; ready models go oldest head
// first (registry order on ties) onto the group Claim picks, skipping
// any whose eligible groups are all busy (under a plan), so none
// head-of-line-blocks the others. Then the earliest linger deadline is
// scheduled.
//
// A pass that ends with nothing it can do (no queued request, no free
// group, or no ready model that can claim one) settles the node: the
// next Dispatch returns at once unless Enqueue, Finish, Adopt or Reset
// has changed the node since, or now has reached that pass's earliest
// linger deadline. Nothing else can change a pass's outcome: a failed
// Claim changes nothing, and the settling pass pushed its deadline.
func (n *Node) Dispatch(now time.Duration) error {
	if now < n.settledUntil {
		return nil
	}
	return n.pass(now)
}

// pass is one Dispatch pass over a node that may have work to do.
func (n *Node) pass(now time.Duration) error {
	for n.depth > 0 && n.groups.nfree > 0 {
		deadline := time.Duration(-1)
		n.ready = n.ready[:0]
		for mi := range n.queues {
			q := &n.queues[mi]
			if q.len() == 0 {
				continue
			}
			head := q.at[q.head]
			if q.len() < n.cfg.MaxBatch && now < head+n.cfg.Linger {
				if dl := head + n.cfg.Linger; deadline < 0 || dl < deadline {
					deadline = dl
				}
				continue
			}
			// Insert in head order; equal heads keep registry order.
			i := len(n.ready)
			n.ready = append(n.ready, mi)
			for ; i > 0 && n.head(n.ready[i-1]) > head; i-- {
				n.ready[i] = n.ready[i-1]
			}
			n.ready[i] = mi
		}
		mi, g, warm := -1, -1, false
		for _, m := range n.ready {
			if g, warm = n.groups.Claim(m); g >= 0 {
				mi = m
				break
			}
		}
		if mi < 0 {
			// A completion or restage retries the ready models; lingering
			// ones still need their deadline.
			if deadline >= 0 && deadline != n.lastLinger {
				n.ev.Push(Event{At: deadline, Kind: Linger, Node: n.cfg.ID, Epoch: n.epoch})
				n.lastLinger = deadline
			}
			n.settledUntil = settledForever
			if deadline >= 0 {
				n.settledUntil = deadline
			}
			return nil
		}
		if err := n.dispatch(now, mi, g, warm); err != nil {
			return err
		}
	}
	n.settledUntil = settledForever
	return nil
}

func (n *Node) head(mi int) time.Duration {
	q := &n.queues[mi]
	return q.at[q.head]
}

// dispatch pops one batch of model mi onto the claimed group, reports
// it to the driver and feeds the drift controller. The batch carries its
// arrivals, and its users and keys when queued, as copies cut from the
// node's chunks.
func (n *Node) dispatch(now time.Duration, mi, g int, warm bool) error {
	q := &n.queues[mi]
	k := min(q.len(), n.cfg.MaxBatch)
	b := Batch{Model: mi, Group: g, Size: k, Warm: warm, At: now,
		Arrivals: n.arrivals.copy(q.at[q.head : q.head+k])}
	if n.cfg.Users {
		b.Users = n.users.copy(q.users[q.head : q.head+k])
	}
	if n.cfg.Keys {
		b.Keys = n.keys.copy(q.keys[q.head : q.head+k])
	}
	q.head += k
	n.depth -= k
	if q.head == len(q.at) {
		q.at, q.users, q.keys, q.head = q.at[:0], q.users[:0], q.keys[:0], 0
	} else if q.head > 4096 && q.head > len(q.at)/2 {
		q.at = append(q.at[:0], q.at[q.head:]...)
		if n.cfg.Users {
			q.users = append(q.users[:0], q.users[q.head:]...)
		}
		if n.cfg.Keys {
			q.keys = append(q.keys[:0], q.keys[q.head:]...)
		}
		q.head = 0
	}
	name := n.cfg.Names[mi]
	var err error
	if b.Service, err = n.cfg.Pricer.ServiceTime(name, k, n.cfg.GroupSize); err != nil {
		return err
	}
	if !warm {
		if b.Reload, err = n.cfg.Pricer.ReloadTime(name, n.cfg.GroupSize); err != nil {
			return err
		}
	}
	n.Batches++
	n.Batched += k
	t := &n.Models[mi]
	if warm {
		n.Warm++
		t.Warm++
	} else {
		n.Cold++
		t.Cold++
	}
	n.drv.Dispatched(n, b)
	if n.ctrl == nil {
		return nil
	}
	n.ctrl.Observe(name, k, now)
	// Drift must be read before MaybeReplan: an applied re-plan rebases
	// the controller's reference mix, zeroing it.
	var drift float64
	if n.cfg.Drift {
		drift = n.ctrl.Drift()
	}
	next, ops, ok := n.ctrl.MaybeReplan(now)
	if !ok {
		return nil
	}
	n.drv.Replanning(n, now, drift, len(ops))
	return n.replan(now, next, ops)
}

// replan adopts a controller re-plan: the pins switch at once, and each
// restage starts once its group is free.
func (n *Node) replan(now time.Duration, next *plan.Plan, restages []plan.Restage) error {
	pin, err := n.pins(next)
	if err != nil {
		return err
	}
	ops, err := n.groups.Replan(pin, restages, n.cfg.Names)
	if err != nil {
		return err
	}
	n.plan = next
	n.Replans++
	for _, op := range ops {
		if err := n.restage(now, op); err != nil {
			return err
		}
	}
	return nil
}

// pins resolves a plan for this node and checks that it strands no
// model.
func (n *Node) pins(p *plan.Plan) ([]int, error) {
	pin, err := Pins(p, n.cfg.Groups, n.cfg.Names)
	if err == nil {
		err = Servable(pin, n.cfg.Names)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", n.cfg.Name, err)
	}
	return pin, nil
}

// restage holds op's claimed group for its model's reload time.
func (n *Node) restage(now time.Duration, op Op) error {
	rel, err := n.cfg.Pricer.ReloadTime(n.cfg.Names[op.Model], n.cfg.GroupSize)
	if err != nil {
		return err
	}
	op.Cost = rel
	n.ev.Push(Event{At: now + rel, Kind: Restage, Node: n.cfg.ID, Epoch: n.epoch, Group: op.Group})
	n.Restages++
	n.drv.Restaged(n, op, now)
	return nil
}

package cluster

import (
	"fmt"
	"math/rand"
	"sync"
)

// NodeView is the read-only state a Router sees for one node at routing
// time. The slice holding the views is valid only during Pick: the
// simulator refreshes the load fields (Accepting, QueueDepth,
// BusyGroups) in place for every arrival and writes the others once per
// run, so a router must copy what it keeps and must never modify a
// view.
type NodeView struct {
	// Index is the node's ordinal in the cluster's node list — the value
	// Pick returns to route there.
	Index int
	// Name is the node's unique name (NodeSpec.Name).
	Name string
	// Accepting reports whether the node admits new requests: false
	// while draining or down. Routers must not pick non-accepting nodes.
	Accepting bool
	// QueueDepth is the node's admitted-but-undispatched request count;
	// QueueLimit is its admission bound (requests are rejected at the
	// node once QueueDepth reaches it).
	QueueDepth int
	QueueLimit int
	// BusyGroups is how many of the node's Groups replica groups are
	// occupied (serving a batch or restaging weights).
	BusyGroups int
	Groups     int
}

// load is the normalized load score routers compare: queued plus busy
// work per replica group, so a 28-group node at depth 40 scores lighter
// than a 7-group node at depth 20. Heterogeneous fleets need the
// normalization; uniform ones are unaffected.
func (v NodeView) load() float64 {
	groups := v.Groups
	if groups < 1 {
		groups = 1
	}
	return float64(v.QueueDepth+v.BusyGroups) / float64(groups)
}

// Router picks the node an arrival is routed to. Pick returns the
// chosen view's Index, or -1 when no accepting node exists. Routers
// must be deterministic given their construction (a seeded generator is
// fine: the virtual-clock simulator calls Pick in a deterministic event
// order) and safe for concurrent use by the wall-clock Cluster. Pick
// must not modify the views, nor keep them after it returns.
type Router interface {
	// Name identifies the policy in reports ("least-loaded",
	// "affinity", "p2c").
	Name() string
	// Pick routes one arrival of the named model ("" = the default
	// model) across the views.
	Pick(model string, views []NodeView) int
}

// LeastLoaded routes every arrival to the accepting node with the
// lowest per-group load (queued + busy work over replica groups), ties
// to the lowest index. It balances instantaneous load perfectly but is
// model-blind: a model's traffic sprays across the fleet, so every node
// ends up cycling every model through its groups — maximal reload
// churn under multi-model mixes.
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Router.
func (LeastLoaded) Pick(model string, views []NodeView) int {
	best := -1
	var bestLoad float64
	for _, v := range views {
		if !v.Accepting {
			continue
		}
		if l := v.load(); best < 0 || l < bestLoad {
			best, bestLoad = v.Index, l
		}
	}
	return best
}

// ModelAffinity routes by consistent hashing on the model name:
// highest-random-weight (rendezvous) hashing over the accepting nodes,
// so each model has a stable home node, its traffic always lands on
// warm groups there, and cross-node reload churn is minimized — the
// fleet-level generalization of the scheduler's warm-first policy.
// When a node drains or dies only the models homed on it move
// (rendezvous re-ranks per model); the rest of the fleet's residency is
// untouched. The cost is load blindness: a hot-spot model saturates its
// home node while others idle — exactly the trade the per-node planners
// and the drift controller absorb.
type ModelAffinity struct{}

// Name implements Router.
func (ModelAffinity) Name() string { return "affinity" }

// Pick implements Router.
func (ModelAffinity) Pick(model string, views []NodeView) int {
	best := -1
	var bestRank uint64
	for _, v := range views {
		if !v.Accepting {
			continue
		}
		if r := rendezvous(model, v.Name); best < 0 || r > bestRank {
			best, bestRank = v.Index, r
		}
	}
	return best
}

// rendezvous ranks (model, node) pairs with FNV-1a over the model name,
// a zero byte and the node name; the model's home is the accepting node
// with the highest rank. Node names are unique within a cluster, so
// ranks tie only with astronomically small probability (ties fall to
// the lowest index via the strict > above).
func rendezvous(model, node string) uint64 {
	h := fnv1a(fnvOffset64, model)
	h *= fnvPrime64 // the zero byte: XOR with 0 leaves h as it is
	return fnv1a(h, node)
}

// FNV-1a's 64-bit parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the FNV-1a state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// PowerOfTwo samples two distinct accepting nodes from a seeded
// generator and routes to the less loaded of the pair — the classic
// two-choices result: near-least-loaded balance at O(1) state with no
// global scan contention. Construct with NewPowerOfTwo; the seed makes
// simulated runs reproducible.
type PowerOfTwo struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPowerOfTwo returns a power-of-two-choices router drawing its
// candidate pairs from a generator seeded with seed.
func NewPowerOfTwo(seed int64) *PowerOfTwo {
	return &PowerOfTwo{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Router.
func (p *PowerOfTwo) Name() string { return "p2c" }

// Pick implements Router. It counts the accepting views, draws two
// distinct ranks among them and finds those views with a second scan,
// so it allocates nothing.
func (p *PowerOfTwo) Pick(model string, views []NodeView) int {
	n, last := 0, -1
	for k := range views {
		if views[k].Accepting {
			n, last = n+1, k
		}
	}
	switch n {
	case 0:
		return -1
	case 1:
		return views[last].Index
	}
	p.mu.Lock()
	i := p.rng.Intn(n)
	j := p.rng.Intn(n - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	var a, b *NodeView
	seen := 0
	for k := range views {
		if !views[k].Accepting {
			continue
		}
		switch seen {
		case i:
			a = &views[k]
		case j:
			b = &views[k]
		}
		seen++
	}
	if bl, al := b.load(), a.load(); bl < al || (bl == al && b.Index < a.Index) {
		return b.Index
	}
	return a.Index
}

// ParseRouter resolves a router by its Name: "least-loaded",
// "affinity" or "p2c" (seeded with seed). cmd/ncserve's -router flag
// and scenario configs go through here.
func ParseRouter(name string, seed int64) (Router, error) {
	switch name {
	case "least-loaded":
		return LeastLoaded{}, nil
	case "affinity":
		return ModelAffinity{}, nil
	case "p2c":
		return NewPowerOfTwo(seed), nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q (want least-loaded, affinity or p2c)", name)
}

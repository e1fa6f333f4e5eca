package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"neuralcache"
	"neuralcache/serve"
)

// ErrNoNode reports that no cluster member was accepting when a
// request arrived at the front door.
var ErrNoNode = errors.New("cluster: no accepting node")

// Member names one wall-clock cluster node and its serve.Server.
type Member struct {
	// Name uniquely identifies the node; "" defaults to "node<i>".
	// The affinity router rendezvous-hashes on it.
	Name   string
	Server *serve.Server
}

// liveNode is one member plus its admission gate.
type liveNode struct {
	name      string
	srv       *serve.Server
	accepting atomic.Bool
}

// Cluster is the wall-clock front door over real serve.Servers: the
// Router picks a node per submission from live queue-depth and
// busy-group views, and Drain/Join rotate members out of and into the
// accepting set without stopping their in-flight work. The node list
// is fixed at construction; all methods are safe for concurrent use.
type Cluster struct {
	router Router
	nodes  []*liveNode
	byName map[string]*liveNode
}

// New builds a front door over the members. A nil router defaults to
// LeastLoaded. The cluster does not own the servers' lifetimes beyond
// Close, which closes them all.
func New(router Router, members ...Member) (*Cluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no members")
	}
	if router == nil {
		router = LeastLoaded{}
	}
	c := &Cluster{router: router, byName: make(map[string]*liveNode, len(members))}
	for i, m := range members {
		if m.Server == nil {
			return nil, fmt.Errorf("cluster: member %d has no server", i)
		}
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("node%d", i)
		}
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("cluster: member name %q appears twice", name)
		}
		n := &liveNode{name: name, srv: m.Server}
		n.accepting.Store(true)
		c.nodes = append(c.nodes, n)
		c.byName[name] = n
	}
	return c, nil
}

// views snapshots the members for one routing decision, in a slice of
// its own: SubmitModel runs concurrently, so the slice cluster.Simulate
// reuses across arrivals would race here.
func (c *Cluster) views() []NodeView {
	views := make([]NodeView, len(c.nodes))
	for i, n := range c.nodes {
		o := n.srv.Options()
		views[i] = NodeView{
			Index:      i,
			Name:       n.name,
			Accepting:  n.accepting.Load(),
			QueueDepth: n.srv.QueueDepth(),
			QueueLimit: o.QueueDepth,
			BusyGroups: n.srv.BusyGroups(),
			Groups:     o.Replicas,
		}
	}
	return views
}

// Submit routes one request for the default model.
func (c *Cluster) Submit(ctx context.Context, in *neuralcache.Tensor) (*serve.Response, error) {
	return c.SubmitModel(ctx, "", in)
}

// SubmitModel routes one request for the named model ("" = default) to
// the router's pick and submits it there. Returns ErrNoNode when no
// member is accepting.
func (c *Cluster) SubmitModel(ctx context.Context, model string, in *neuralcache.Tensor) (*serve.Response, error) {
	views := c.views()
	pick := c.router.Pick(model, views)
	if pick < 0 || pick >= len(c.nodes) || !views[pick].Accepting {
		return nil, ErrNoNode
	}
	n := c.nodes[pick]
	if model == "" {
		return n.srv.Submit(ctx, in)
	}
	return n.srv.SubmitModel(ctx, model, in)
}

// Drain removes the named member from the accepting set: the router
// stops picking it, while its queued and in-flight work finishes
// normally on its own server.
func (c *Cluster) Drain(name string) error {
	n, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	if !n.accepting.CompareAndSwap(true, false) {
		return fmt.Errorf("cluster: node %q already draining", name)
	}
	return nil
}

// Join returns a drained member to the accepting set.
func (c *Cluster) Join(name string) error {
	n, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	if !n.accepting.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: node %q already accepting", name)
	}
	return nil
}

// Accepting reports whether the named member currently admits traffic.
func (c *Cluster) Accepting(name string) (bool, error) {
	n, ok := c.byName[name]
	if !ok {
		return false, fmt.Errorf("cluster: unknown node %q", name)
	}
	return n.accepting.Load(), nil
}

// Names lists the member names in construction order.
func (c *Cluster) Names() []string {
	names := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		names[i] = n.name
	}
	return names
}

// Server returns the named member's serve.Server (for stats or
// direct, router-bypassing submission).
func (c *Cluster) Server(name string) (*serve.Server, error) {
	n, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %q", name)
	}
	return n.srv, nil
}

// NodeStats pairs a member's name and gate with its server's counters.
type NodeStats struct {
	Name      string
	Accepting bool
	Stats     serve.Stats
}

// Stats snapshots every member.
func (c *Cluster) Stats() []NodeStats {
	out := make([]NodeStats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = NodeStats{Name: n.name, Accepting: n.accepting.Load(), Stats: n.srv.Stats()}
	}
	return out
}

// Close closes every member's server, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

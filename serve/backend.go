package serve

import (
	"context"
	"fmt"
	"time"

	"neuralcache"
)

// Backend is one way of servicing a batch of inference requests on a
// replica group of k LLC slices. A backend registers one or more models;
// every batch is homogeneous in model, and the scheduler charges
// ReloadTime when a group's staged model changes (§IV-E filter
// streaming). Implementations must be safe for concurrent use: the
// server invokes Execute from one goroutine per busy group.
type Backend interface {
	// Name identifies the backend in reports ("bitexact", "analytic").
	Name() string
	// Models returns the registered models in registration order. The
	// first is the default, used by requests that do not name a model.
	Models() []*neuralcache.Model
	// Lookup resolves a request's model name; "" means the default
	// model. Unknown names are an error.
	Lookup(name string) (*neuralcache.Model, error)
	// System returns the modeled cache the backend serves on.
	System() *neuralcache.System
	// RequiresInput reports whether requests must carry an input tensor.
	// The server rejects nil-input submissions to a backend that needs
	// them at admission time.
	RequiresInput() bool
	// ServiceTime returns the modeled wall-clock a replica group of
	// groupSize slices is occupied serving a warm batch of n requests of
	// the named model. It must be deterministic: the same (model, n,
	// groupSize) always yields the same duration. The node core prices
	// every dispatch, so it should be cheap to repeat; both backends
	// here read System.ServiceTime, which keeps each price. Once it
	// prices n = 1 it must price every batch size: NewServer checks
	// n = 1, and the node core prices each batch after taking it from
	// the queue.
	ServiceTime(model string, n, groupSize int) (time.Duration, error)
	// ReloadTime returns the §IV-E weight-staging cost a groupSize-slice
	// group pays before its first batch of the named model after serving
	// a different one (or nothing). One reload warms the whole group.
	// Deterministic per (model, groupSize).
	ReloadTime(model string, groupSize int) (time.Duration, error)
	// Execute produces one result per input for a batch of the named
	// model on a replica group of groupSize slices. cold reports that
	// the group just switched to this model, so the execution should
	// also pay ReloadTime. The analytic backend returns nil results (it
	// models time, not values).
	Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error)
}

// serviceClock holds the model registry and reads batch service and
// reload times from System.ServiceTime and System.ReloadTime, which
// keep every price they compute.
type serviceClock struct {
	sys    *neuralcache.System
	models []*neuralcache.Model
	byName map[string]*neuralcache.Model
}

func newServiceClock(sys *neuralcache.System, first *neuralcache.Model, more []*neuralcache.Model) *serviceClock {
	c := &serviceClock{sys: sys, byName: make(map[string]*neuralcache.Model)}
	for _, m := range append([]*neuralcache.Model{first}, more...) {
		if m == nil {
			panic("serve: nil model registered")
		}
		if _, dup := c.byName[m.Name()]; dup {
			panic(fmt.Sprintf("serve: model %q registered twice", m.Name()))
		}
		c.byName[m.Name()] = m
		c.models = append(c.models, m)
	}
	return c
}

func (c *serviceClock) Models() []*neuralcache.Model {
	return append([]*neuralcache.Model(nil), c.models...)
}

func (c *serviceClock) Lookup(name string) (*neuralcache.Model, error) {
	if name == "" {
		return c.models[0], nil
	}
	m, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("serve: model %q not registered (have %s)",
			name, joinModelNames(c.models, ", "))
	}
	return m, nil
}

func (c *serviceClock) System() *neuralcache.System { return c.sys }

func (c *serviceClock) ServiceTime(model string, n, groupSize int) (time.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("serve: service time for batch of %d", n)
	}
	m, err := c.Lookup(model)
	if err != nil {
		return 0, err
	}
	return c.sys.ServiceTime(m, n, groupSize)
}

func (c *serviceClock) ReloadTime(model string, groupSize int) (time.Duration, error) {
	m, err := c.Lookup(model)
	if err != nil {
		return 0, err
	}
	return c.sys.ReloadTime(m, groupSize)
}

// BitExactBackend serves requests by executing the model bit-accurately
// on the simulated compute arrays (System.Run). Outputs are byte-
// identical to calling Run directly, for any batching, shard assignment,
// model mix or worker count; service times are still priced by the
// replica estimate so occupancy accounting matches the analytic
// backend's.
type BitExactBackend struct {
	*serviceClock
}

// NewBitExactBackend builds the bit-accurate backend serving one or more
// models; the first is the default for requests that do not name one.
// Every model must have weights (InitWeights) before its first request,
// and model names must be unique (duplicates panic).
func NewBitExactBackend(sys *neuralcache.System, first *neuralcache.Model, more ...*neuralcache.Model) *BitExactBackend {
	return &BitExactBackend{serviceClock: newServiceClock(sys, first, more)}
}

// Name implements Backend.
func (b *BitExactBackend) Name() string { return "bitexact" }

// RequiresInput implements Backend: bit-accurate execution needs the
// input tensor.
func (b *BitExactBackend) RequiresInput() bool { return true }

// Execute runs every input through System.Run on the named model. Inputs
// are executed sequentially within the batch (each Run already
// parallelizes a layer's work groups across Config.Workers goroutines);
// a per-input failure fails the whole batch, mirroring the hardware
// where a replica group's batch shares one staged weight set. Neither
// cold nor groupSize changes the outputs — reload is a time cost,
// grouping is a placement choice, and System.Run stages weights afresh
// each call — so served bytes stay identical to direct Run either way.
func (b *BitExactBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	m, err := b.Lookup(model)
	if err != nil {
		return nil, err
	}
	out := make([]*neuralcache.InferenceResult, len(inputs))
	for i, in := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if in == nil {
			return nil, fmt.Errorf("serve: bit-exact execute: nil input")
		}
		res, err := b.sys.Run(m, in)
		if err != nil {
			return nil, fmt.Errorf("serve: bit-exact execute: %w", err)
		}
		out[i] = res
	}
	return out, nil
}

// AnalyticBackend services requests on modeled time only: Execute
// returns nil results after pacing the caller by the replica-group
// service time (plus the reload time on cold dispatches), so a real
// Server running this backend emulates Inception-scale occupancy in
// wall-clock time, while Simulate charges the same service time on its
// virtual clock without sleeping at all.
type AnalyticBackend struct {
	*serviceClock
}

// NewAnalyticBackend builds the analytic-clocked backend serving one or
// more models; the first is the default for requests that do not name
// one. Estimation is shape-only, so models need no weights and requests
// need no input tensors. Model names must be unique (duplicates panic).
func NewAnalyticBackend(sys *neuralcache.System, first *neuralcache.Model, more ...*neuralcache.Model) *AnalyticBackend {
	return &AnalyticBackend{serviceClock: newServiceClock(sys, first, more)}
}

// Name implements Backend.
func (b *AnalyticBackend) Name() string { return "analytic" }

// RequiresInput implements Backend: estimation is shape-only, so
// requests may be input-less.
func (b *AnalyticBackend) RequiresInput() bool { return false }

// Execute sleeps for the batch's modeled service time on a
// groupSize-slice replica group — plus the §IV-E weight-reload time when
// cold — and returns nil results. The sleep is interruptible by ctx.
func (b *AnalyticBackend) Execute(ctx context.Context, model string, inputs []*neuralcache.Tensor, cold bool, groupSize int) ([]*neuralcache.InferenceResult, error) {
	d, err := b.ServiceTime(model, len(inputs), groupSize)
	if err != nil {
		return nil, err
	}
	if cold {
		rel, err := b.ReloadTime(model, groupSize)
		if err != nil {
			return nil, err
		}
		d += rel
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return make([]*neuralcache.InferenceResult, len(inputs)), nil
}

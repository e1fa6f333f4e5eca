package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/serve"
)

// newTestCluster builds a two-node wall-clock cluster over analytic
// backends (which sleep the modeled time, so SmallCNN keeps the test
// fast).
func newTestCluster(t *testing.T, router Router) *Cluster {
	t.Helper()
	m := neuralcache.SmallCNN()
	members := make([]Member, 2)
	for i := range members {
		cfg := neuralcache.DefaultConfig()
		cfg.Workers = 1
		sys, err := neuralcache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(serve.NewAnalyticBackend(sys, m),
			serve.Options{MaxLinger: serve.NoLinger})
		if err != nil {
			t.Fatal(err)
		}
		members[i].Server = srv
	}
	c, err := New(router, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterSubmitDrainJoin drives the wall-clock front door: routed
// submissions complete, drained members stop being picked, a fully
// drained fleet returns ErrNoNode, and Join restores service.
func TestClusterSubmitDrainJoin(t *testing.T) {
	c := newTestCluster(t, ModelAffinity{})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		resp, err := c.Submit(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "node0" || names[1] != "node1" {
		t.Fatalf("names %v", names)
	}
	// Drain both: the front door turns requests away without touching
	// a server.
	for _, n := range names {
		if err := c.Drain(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(names[0]); err == nil {
		t.Error("double drain accepted")
	}
	if _, err := c.Submit(ctx, nil); !errors.Is(err, ErrNoNode) {
		t.Fatalf("submit on drained fleet: %v, want ErrNoNode", err)
	}
	if acc, err := c.Accepting(names[0]); err != nil || acc {
		t.Errorf("Accepting(%s) = %v, %v", names[0], acc, err)
	}
	// Join one back: service resumes on the survivor only.
	if err := c.Join(names[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(names[1]); err == nil {
		t.Error("double join accepted")
	}
	resp, err := c.SubmitModel(ctx, "small_cnn", nil)
	if err != nil || resp.Err != nil {
		t.Fatalf("submit after join: %v / %v", err, resp.Err)
	}
	stats := c.Stats()
	if len(stats) != 2 {
		t.Fatalf("%d stat rows", len(stats))
	}
	var served uint64
	for _, st := range stats {
		served += st.Stats.Served
	}
	if served != 9 {
		t.Errorf("fleet served %d, want 9", served)
	}
	if stats[0].Accepting || !stats[1].Accepting {
		t.Errorf("accepting flags %v/%v", stats[0].Accepting, stats[1].Accepting)
	}
	if _, err := c.Server("nope"); err == nil {
		t.Error("unknown node lookup succeeded")
	}
}

// TestClusterConcurrentSubmit hammers the front door from many
// goroutines while a drain/join cycle runs — the -race companion to
// the simulator's determinism tests.
func TestClusterConcurrentSubmit(t *testing.T) {
	c := newTestCluster(t, NewPowerOfTwo(3))
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := c.Submit(ctx, nil)
				if err != nil {
					errs <- err
					return
				}
				if resp.Err != nil {
					errs <- resp.Err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.Drain("node0"); err != nil {
			errs <- err
			return
		}
		if err := c.Join("node0"); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterCloseLeavesNoGoroutines: Close closes every member's
// server while routed submissions are still running, and once they
// have returned no goroutine of the cluster or its servers is left.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c := newTestCluster(t, NewPowerOfTwo(3))
	var wg sync.WaitGroup
	served := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				resp, err := c.Submit(context.Background(), nil)
				if errors.Is(err, serve.ErrClosed) {
					return
				}
				if err != nil || resp.Err != nil {
					t.Errorf("submit: %v / %+v", err, resp)
					return
				}
				if i == 0 {
					served <- struct{}{}
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-served
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1s after Close, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClusterConstruction(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := New(nil, Member{}); err == nil {
		t.Error("nil server accepted")
	}
	c := newTestCluster(t, nil)
	if err := c.Drain("ghost"); err == nil {
		t.Error("drain of unknown node accepted")
	}
	if err := c.Join("ghost"); err == nil {
		t.Error("join of unknown node accepted")
	}
	if _, err := c.Accepting("ghost"); err == nil {
		t.Error("accepting of unknown node succeeded")
	}
}

package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/plan"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// The goldens below pin the plan, re-plan, front-cache and closed-loop
// paths of Simulate byte for byte. Each mirrors one ncserve run (the
// command is in the comment), so the CLI and the library must agree on
// every byte too.

// driftRun is the drift scenario:
//
//	ncserve -models inception,resnet -mix 0.8,0.2 -mix-shift 15s:0.2,0.8 \
//	  -rate 600 -requests 30000 -seed 42 -group 7 -maxbatch 8 -linger 5ms \
//	  -plan -replan-threshold 0.15 -trace t.json -timeline 500ms
//
// planned is false for the reactive baseline (no -plan, no
// -replan-threshold), traced attaches a Tracer.
func driftRun(t testing.TB, planned, traced bool) (*LoadReport, *Tracer) {
	t.Helper()
	cfg := neuralcache.DefaultConfig()
	cfg.GroupSize = 7
	sys, err := neuralcache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := []*neuralcache.Model{neuralcache.InceptionV3(), neuralcache.ResNet18()}
	backend := NewAnalyticBackend(sys, models[0], models[1])
	load := Load{
		Rate: 600, Requests: 30000, Seed: 42, Poisson: true,
		Mix: []ModelShare{{Model: "inception_v3", Weight: 0.8}, {Model: "resnet_18", Weight: 0.2}},
		MixSchedule: []MixShift{{At: 15 * time.Second, Mix: []ModelShare{
			{Model: "inception_v3", Weight: 0.2}, {Model: "resnet_18", Weight: 0.8}}}},
	}
	opts := Options{MaxBatch: 8, MaxLinger: 5 * time.Millisecond, GroupSize: 7,
		TimelineInterval: 500 * time.Millisecond}
	if planned {
		p, err := plan.Compute(sys, models, planShares(0.8, 0.2),
			plan.Options{GroupSize: 7, MaxBatch: 8, RatePerSec: load.Rate})
		if err != nil {
			t.Fatal(err)
		}
		opts.Plan = p
		opts.Replan = plan.ControllerConfig{Threshold: 0.15}
	}
	if traced {
		opts.Trace = NewTracer()
	}
	rep, err := Simulate(backend, opts, load)
	if err != nil {
		t.Fatal(err)
	}
	return rep, opts.Trace
}

// checkGolden compares a report's indented JSON with testdata/name.
func checkGolden(t *testing.T, name string, rep *LoadReport) {
	t.Helper()
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("LoadReport JSON diverged from testdata/%s", name)
	}
}

// TestSimulateDriftGolden pins the planned + re-planning drift run: the
// report (plan, restages, replans and the 500 ms timeline) and the
// trace, by digest.
func TestSimulateDriftGolden(t *testing.T) {
	rep, tr := driftRun(t, true, true)
	checkGolden(t, "golden_sim_drift.json", rep)
	blob := traceJSON(t, tr)
	sum := sha256.Sum256(blob)
	const wantSum = "a4ffcfcc45da763989f6312570a4122f648dfa6168d363048316d23d5397f93a"
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		t.Errorf("trace SHA-256 %s, want %s (%d bytes)", got, wantSum, len(blob))
	}
	if tr.Len() != 39949 {
		t.Errorf("trace holds %d events, want 39949", tr.Len())
	}
}

// TestSimulateCachedZipfGolden pins a front-cache run:
//
//	ncserve -model inception -rate 2000 -requests 30000 -seed 42 \
//	  -reuse 4096 -zipf 1.1 -cache 1024
func TestSimulateCachedZipfGolden(t *testing.T) {
	backend := NewAnalyticBackend(newSystem(t, 0), neuralcache.InceptionV3())
	rep, err := Simulate(backend, Options{Cache: CacheOptions{Capacity: 1024}}, Load{
		Rate: 2000, Requests: 30000, Seed: 42, Poisson: true,
		Reuse: Reuse{ZipfS: 1.1, Universe: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_sim_cache_zipf.json", rep)
}

// TestSimulateClosedLoopGolden pins a closed-loop run:
//
//	ncserve -model inception -concurrency 64 -requests 20000 -seed 42
func TestSimulateClosedLoopGolden(t *testing.T) {
	backend := NewAnalyticBackend(newSystem(t, 0), neuralcache.InceptionV3())
	rep, err := Simulate(backend, Options{}, Load{
		Requests: 20000, Seed: 42, Poisson: true, Concurrency: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_sim_closed_loop.json", rep)
}

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"neuralcache/internal/nn"
)

var updateEstimates = flag.Bool("update-estimates", false, "rewrite testdata/estimate_golden.json")

// estimateEntry pins one analytic estimate (or one reload): its latency
// and a digest of the whole report it came with, or the error it failed
// with.
type estimateEntry struct {
	Key            string  `json:"key"`
	LatencySeconds float64 `json:"latency_seconds"`
	ReportSHA256   string  `json:"report_sha256,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// bundledNets are the bundled networks, by constructor.
var bundledNets = []func() *nn.Network{
	nn.InceptionV3, nn.ResNet18, nn.SmallCNN, nn.SparseCNN, nn.Int4CNN,
	nn.WideCNN, nn.BranchyCNN, nn.SmallResNet, nn.BNNet,
}

// goldenConfig is one system the golden prices on.
type goldenConfig struct {
	name    string
	cfg     Config
	batches []int
}

// goldenConfigs are the whole paper cache, the replica groups the
// serving tier prices (1, 2 and 7 of its 14 slices, 3 of a 24-slice
// cache), and the packing and bank-latch ablations at batch 1.
func goldenConfigs(t *testing.T) []goldenConfig {
	t.Helper()
	group := func(c Config, k int) Config {
		g, err := c.ReplicaGroup(k)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	paper := DefaultConfig()
	noPack := DefaultConfig()
	noPack.Mapping.PackingEnabled = false
	noLatch := DefaultConfig()
	noLatch.Fabric.BankLatch = false
	batches := []int{1, 3, 8, 16}
	return []goldenConfig{
		{"paper", paper, batches},
		{"k1", group(paper, 1), batches},
		{"k2", group(paper, 2), batches},
		{"k3of24", group(paper.WithSlices(24), 3), batches},
		{"k7", group(paper, 7), batches},
		{"no-packing", noPack, []int{1}},
		{"no-bank-latch", noLatch, []int{1}},
	}
}

// digest is the SHA-256 of v's JSON encoding, which spells every float
// in its shortest exact form: equal digests mean bit-identical reports.
func digest(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// runEstimates prices every bundled net on every golden config, at
// densities 1 and 0.5, and prices each net's reload there.
func runEstimates(t *testing.T) []estimateEntry {
	t.Helper()
	var out []estimateEntry
	for _, gc := range goldenConfigs(t) {
		sys, err := New(gc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, build := range bundledNets {
			net := build()
			for _, batch := range gc.batches {
				for _, density := range []float64{1, 0.5} {
					e := estimateEntry{Key: fmt.Sprintf("%s/%s/b%d/d%g", net.Name, gc.name, batch, density)}
					// Some nets do not map without packing: the error is
					// part of the model too.
					if rep, err := sys.EstimateDensity(net, batch, density); err != nil {
						e.Error = err.Error()
					} else {
						e.LatencySeconds = rep.Latency()
						e.ReportSHA256 = digest(t, rep)
					}
					out = append(out, e)
				}
			}
			rel, err := sys.EstimateReload(net)
			if err != nil {
				t.Fatalf("%s reload on %s: %v", net.Name, gc.name, err)
			}
			out = append(out, estimateEntry{
				Key:            fmt.Sprintf("%s/%s/reload", net.Name, gc.name),
				LatencySeconds: rel.Seconds,
				ReportSHA256:   digest(t, rel),
			})
		}
	}
	return out
}

// TestEstimateGolden pins the analytic model bit for bit: the latency
// and a digest of the full report (layers, phases, ledger, energy) of
// every bundled net at several batches and densities, on the paper
// cache, on the replica groups the serving tier prices and on two
// ablations, plus every reload. A speed-up of the pricing must pass it
// unchanged; rewrite it with -update-estimates only for a deliberate
// change to the cost model.
func TestEstimateGolden(t *testing.T) {
	got := runEstimates(t)
	const path = "testdata/estimate_golden.json"
	if *updateEstimates {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []estimateEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d estimates, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("estimate %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

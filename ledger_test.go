package neuralcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"
)

var updateLedger = flag.Bool("update-ledger", false, "rewrite testdata/cycle_ledger.json")

// ledgerEntry is one run's absolute cycle ledger: every counter the
// functional engine charges, plus digests of what it computed.
type ledgerEntry struct {
	Model           string `json:"model"`
	SkipZeroSlices  bool   `json:"skip_zero_slices"`
	Workers         int    `json:"workers"`
	ComputeCycles   uint64 `json:"compute_cycles"`
	AccessCycles    uint64 `json:"access_cycles"`
	ArraysUsed      int    `json:"arrays_used"`
	FabricBusCycles uint64 `json:"fabric_bus_cycles"`
	SkippedSlices   uint64 `json:"skipped_slices"`
	TotalSlices     uint64 `json:"total_slices"`
	SkipCyclesSaved uint64 `json:"skip_cycles_saved"`
	OutputSHA256    string `json:"output_sha256"`
	LogitsSHA256    string `json:"logits_sha256"`
}

// ledgerModels are the verification nets the ledger covers, with their
// weight seeds. SmallCNN, Int4CNN and WideCNN use the weight seeds of
// the serve-bitexact benchmark, so their dense entries are its canonical
// counts.
var ledgerModels = []struct {
	build func() *Model
	seed  int64
}{
	{SmallCNN, 7},
	{Int4CNN, 11},
	{WideCNN, 13},
	{BranchyCNN, 17},
	{SmallResNet, 19},
	{SparseCNN, 23},
}

// runLedger executes every ledger model, dense and zero-skipping, at
// one and four workers, on a seeded input per model.
func runLedger(t *testing.T) []ledgerEntry {
	t.Helper()
	var out []ledgerEntry
	for _, lm := range ledgerModels {
		m := lm.build()
		m.InitWeights(lm.seed)
		h, w, c := m.InputShape()
		in := NewTensor(h, w, c, 1.0/255)
		rng := rand.New(rand.NewSource(lm.seed + 1000))
		for i := range in.Data {
			in.Data[i] = uint8(rng.Intn(256))
		}
		for _, skip := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.SkipZeroSlices = skip
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(m, in)
				if err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
				logits := make([]byte, 4*len(res.Logits))
				for i, v := range res.Logits {
					binary.LittleEndian.PutUint32(logits[4*i:], uint32(v))
				}
				outSum := sha256.Sum256(res.Output.Data)
				logitSum := sha256.Sum256(logits)
				out = append(out, ledgerEntry{
					Model:           m.Name(),
					SkipZeroSlices:  skip,
					Workers:         workers,
					ComputeCycles:   res.ComputeCycles,
					AccessCycles:    res.AccessCycles,
					ArraysUsed:      res.ArraysUsed,
					FabricBusCycles: res.FabricBusCycles,
					SkippedSlices:   res.SkippedSlices,
					TotalSlices:     res.TotalSlices,
					SkipCyclesSaved: res.SkipCyclesSaved,
					OutputSHA256:    hex.EncodeToString(outSum[:]),
					LogitsSHA256:    hex.EncodeToString(logitSum[:]),
				})
			}
		}
	}
	return out
}

// TestCycleLedgerGolden pins the absolute cycle ledger of the
// functional engine: compute, access and fabric cycles, arrays used, the
// zero-skip counters and digests of the outputs, for every verification
// net, dense and skipping, at one and four workers. The other goldens
// compare two paths of the same code; this one catches a change that
// moves every path alike. Rewrite it with -update-ledger only for a
// deliberate change to the cost model.
func TestCycleLedgerGolden(t *testing.T) {
	got := runLedger(t)
	const path = "testdata/cycle_ledger.json"
	if *updateLedger {
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
	var want []ledgerEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ledger has %d entries, golden %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("ledger entry %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// The serve-bitexact benchmark's canonical dense counts.
	canon := map[string][3]uint64{
		"small_cnn": {135448, 192384, 0},
		"int4_cnn":  {107816, 189872, 0},
		"wide_cnn":  {188888, 17344, 72},
	}
	checked := 0
	for _, e := range got {
		c, ok := canon[e.Model]
		if !ok || e.SkipZeroSlices {
			continue
		}
		checked++
		if e.ComputeCycles != c[0] || e.AccessCycles != c[1] || e.FabricBusCycles != c[2] {
			t.Errorf("%s at %d workers: compute/access/fabric %d/%d/%d, benchmark canon %d/%d/%d",
				e.Model, e.Workers, e.ComputeCycles, e.AccessCycles, e.FabricBusCycles, c[0], c[1], c[2])
		}
	}
	if checked != 2*len(canon) {
		t.Errorf("cross-checked %d dense entries against the benchmark canon, want %d", checked, 2*len(canon))
	}
}

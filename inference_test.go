package neuralcache

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestRunWithNilFaultsEqualsRun: the fault path with no faults must be
// exactly the plain Run — the dedup contract between the two entry
// points.
func TestRunWithNilFaultsEqualsRun(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() *Model{SmallCNN, SmallResNet} {
		m := build()
		m.InitWeights(3)
		h, w, c := m.InputShape()
		in := NewTensor(h, w, c, 1.0/255)
		r := rand.New(rand.NewSource(4))
		for i := range in.Data {
			in.Data[i] = uint8(r.Intn(256))
		}

		plain, err := sys.Run(m, in)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := sys.RunWithFaults(m, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Output.Data, faulty.Output.Data) {
			t.Fatalf("%s: outputs differ between Run and fault-free RunWithFaults", m.Name())
		}
		if !reflect.DeepEqual(plain, faulty) {
			t.Fatalf("%s: results differ between Run and fault-free RunWithFaults:\n%+v\nvs\n%+v",
				m.Name(), plain, faulty)
		}
	}
}

// TestRunInputShapeValidation: both entry points reject mis-shaped
// inputs with the same error text (the shared checkInput helper).
func TestRunInputShapeValidation(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(1)
	bad := NewTensor(1, 1, 1, 1)
	_, errRun := sys.Run(m, bad)
	_, errFaulty := sys.RunWithFaults(m, bad, nil)
	if errRun == nil || errFaulty == nil {
		t.Fatal("mis-shaped input accepted")
	}
	if errRun.Error() != errFaulty.Error() {
		t.Fatalf("divergent shape errors: %q vs %q", errRun, errFaulty)
	}
}

// TestRunRejectsBadInputs: a nil tensor, a tensor whose Data does not
// hold H·W·C bytes and a model without weights are errors from Run,
// RunWithFaults and RunReference alike — never a panic, and never a run
// on zero-padded or truncated data. So is a fault RunWithFaults cannot
// place. Estimate still prices a model without weights.
func TestRunRejectsBadInputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(1)
	bare := SmallCNN()
	h, w, c := m.InputShape()
	good := NewTensor(h, w, c, 1.0/255)
	short := &Tensor{H: h, W: w, C: c, Scale: 1.0 / 255, Data: make([]uint8, 10)}
	long := NewTensor(h, w, c, 1.0/255)
	long.Data = append(long.Data, 1)
	for _, tc := range []struct {
		name, want string
		m          *Model
		in         *Tensor
	}{
		{"nil tensor", "nil input tensor", m, nil},
		{"short data", "holds 10 data bytes", m, short},
		{"long data", "data bytes, want", m, long},
		{"no weights", "no weights", bare, good},
	} {
		for _, run := range []struct {
			name string
			fn   func() (*InferenceResult, error)
		}{
			{"Run", func() (*InferenceResult, error) { return sys.Run(tc.m, tc.in) }},
			{"RunWithFaults", func() (*InferenceResult, error) {
				return sys.RunWithFaults(tc.m, tc.in, []Fault{{Array: 0, Lane: 1, Kind: FaultDeadLane}})
			}},
			{"RunReference", func() (*InferenceResult, error) { return tc.m.RunReference(tc.in) }},
		} {
			res, err := run.fn()
			if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
				t.Errorf("%s with %s: result %v, error %v; want an error containing %q",
					run.name, tc.name, res, err, tc.want)
			}
		}
	}
	for _, f := range []Fault{
		{Array: 0, Row: 3, Lane: 256, Kind: FaultStuckAt1},
		{Array: 0, Row: -1, Lane: 3, Kind: FaultStuckAt0},
		{Array: 0, Lane: -1, Kind: FaultDeadLane},
		{Array: 0, Row: 3, Lane: 3, Kind: FaultKind(7)},
		{Array: -1, Row: 3, Lane: 3, Kind: FaultStuckAt1},
		{Array: 288, Lane: 3, Kind: FaultDeadLane},
		{Array: 1 << 30, Row: 3, Lane: 3, Kind: FaultStuckAt0},
	} {
		if res, err := sys.RunWithFaults(m, good, []Fault{f}); err == nil || res != nil {
			t.Errorf("RunWithFaults with %+v: result %v, error %v; want an error", f, res, err)
		}
	}
	if _, err := sys.Estimate(bare, 1); err != nil {
		t.Errorf("Estimate of a model without weights: %v", err)
	}
}

// TestRunSteadyStateAllocations locks in that a bit-exact run pays only
// for simulated work: once a warm-up run has filled the System's cache
// pool, a run on the full 14-slice LLC allocates no staging buffer (the
// input and filter images, accumulators and worker scratch are pooled
// with the cache), only its results, trace and requantized tensors:
// 12–16 KB on SmallCNN, Int4CNN and WideCNN, with or without -race.
func TestRunSteadyStateAllocations(t *testing.T) {
	const limit = 20 << 10 // bytes per run
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() *Model{SmallCNN, Int4CNN, WideCNN} {
		m := build()
		m.InitWeights(5)
		h, w, c := m.InputShape()
		in := NewTensor(h, w, c, 1.0/255)
		for i := range in.Data {
			in.Data[i] = uint8(i * 13)
		}
		if _, err := sys.Run(m, in); err != nil {
			t.Fatal(err)
		}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := sys.Run(m, in); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
			t.Errorf("%s: %d bytes allocated per steady-state Run, want under %d", m.Name(), per, limit)
		}
	}
}

// TestModelByName: every advertised name builds, unknown names fail.
func TestModelByName(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatalf("ModelByName(%q): %v", name, err)
		}
		if m.Name() == "" {
			t.Fatalf("ModelByName(%q): empty model name", name)
		}
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

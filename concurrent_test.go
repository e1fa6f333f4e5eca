package neuralcache

import (
	"reflect"
	"sync"
	"testing"
)

// A System's configuration is immutable after New. Run and Estimate
// build their mutable state per call; bit-exact runs lease simulated
// caches from a pool the System keeps and return them reset. These tests
// pin that contract down by hammering one System from several
// goroutines; run them under `go test -race` to turn any regression into
// a hard failure.

func TestConcurrentRunSameSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(7)
	h, w, c := m.InputShape()
	in := NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 11)
	}
	want, err := sys.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	results := make([]*InferenceResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = sys.Run(m, in)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		r := results[g]
		for i := range want.Output.Data {
			if r.Output.Data[i] != want.Output.Data[i] {
				t.Fatalf("goroutine %d: output byte %d differs", g, i)
			}
		}
		if r.ComputeCycles != want.ComputeCycles || r.AccessCycles != want.AccessCycles ||
			r.ArraysUsed != want.ArraysUsed {
			t.Fatalf("goroutine %d: counters differ: %+v vs %+v", g, r, want)
		}
	}
}

func TestConcurrentRunAndEstimateSameSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(3)
	h, w, c := m.InputShape()
	in := NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 5)
	}
	wantEst, err := sys.Estimate(m, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := sys.Run(m, in); err != nil {
				errCh <- err
			}
		}()
		go func() {
			defer wg.Done()
			est, err := sys.Estimate(m, 1)
			if err != nil {
				errCh <- err
				return
			}
			if est.LatencySeconds != wantEst.LatencySeconds {
				t.Errorf("concurrent estimate latency %g, want %g", est.LatencySeconds, wantEst.LatencySeconds)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentRunAndRunWithFaultsSameSystem interleaves healthy and
// faulty runs of two models on one System. Pooled caches pass between
// them, so any defect, cell or counter a faulty run left behind would
// show up in a later healthy run: every result must equal its
// sequential counterpart.
func TestConcurrentRunAndRunWithFaultsSameSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 1
	cfg.Workers = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stuck cells across the first arrays both plans touch, and dead
	// lanes on the array holding one of WideCNN's live output channels.
	var faults []Fault
	for lane := 0; lane < 256; lane += 7 {
		faults = append(faults,
			Fault{Array: lane % 8, Row: 79, Lane: lane, Kind: FaultStuckAt1},
			Fault{Array: 5, Lane: lane, Kind: FaultDeadLane})
	}
	type job struct {
		m      *Model
		in     *Tensor
		faulty bool
		want   *InferenceResult
	}
	var jobs []job
	for _, mdl := range []struct {
		build func() *Model
		seed  int64
	}{{SmallCNN, 3}, {WideCNN, 1}} {
		m := mdl.build()
		m.InitWeights(mdl.seed)
		h, w, c := m.InputShape()
		in := NewTensor(h, w, c, 1.0/255)
		for j := range in.Data {
			in.Data[j] = uint8(j*7 + 1)
		}
		clean, err := sys.Run(m, in)
		if err != nil {
			t.Fatal(err)
		}
		dirty, err := sys.RunWithFaults(m, in, faults)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(clean, dirty) {
			t.Fatalf("%s: the faults changed nothing; the test would check nothing", m.Name())
		}
		jobs = append(jobs, job{m, in, false, clean}, job{m, in, true, dirty})
	}

	const goroutines, rounds = 4, 3
	got := make([][]*InferenceResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				jb := jobs[(g+r)%len(jobs)]
				var res *InferenceResult
				var err error
				if jb.faulty {
					res, err = sys.RunWithFaults(jb.m, jb.in, faults)
				} else {
					res, err = sys.Run(jb.m, jb.in)
				}
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for r, res := range got[g] {
			jb := jobs[(g+r)%len(jobs)]
			if !reflect.DeepEqual(res, jb.want) {
				t.Errorf("goroutine %d round %d (%s, faulty %v): result differs from the sequential run",
					g, r, jb.m.Name(), jb.faulty)
			}
		}
	}
}

package neuralcache

import (
	"math/rand"
	"reflect"
	"testing"
)

func faultTestSetup(t *testing.T) (*System, *Model, *Tensor) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Slices = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := SmallCNN()
	m.InitWeights(55)
	h, w, c := m.InputShape()
	in := NewTensor(h, w, c, 1.0/255)
	r := rand.New(rand.NewSource(66))
	for i := range in.Data {
		in.Data[i] = uint8(r.Intn(256))
	}
	return sys, m, in
}

func TestRunWithFaultsNoFaultsEqualsRun(t *testing.T) {
	sys, m, in := faultTestSetup(t)
	clean, err := sys.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := sys.RunWithFaults(m, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Output.Data {
		if clean.Output.Data[i] != zero.Output.Data[i] {
			t.Fatal("empty fault list changed the output")
		}
	}
}

func TestRunWithFaultsCorruptsHeavyCampaign(t *testing.T) {
	sys, m, in := faultTestSetup(t)
	clean, err := sys.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	// A heavy campaign: stuck MSBs across many lanes of the first arrays
	// must visibly corrupt the logits.
	var faults []Fault
	for lane := 0; lane < 256; lane += 3 {
		faults = append(faults, Fault{Array: 0, Row: 79, Lane: lane, Kind: FaultStuckAt1})
		faults = append(faults, Fault{Array: 1, Row: 79, Lane: lane, Kind: FaultStuckAt1})
	}
	dirty, err := sys.RunWithFaults(m, in, faults)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range clean.Logits {
		if clean.Logits[i] != dirty.Logits[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("heavy stuck-at campaign left every logit untouched")
	}
}

// TestRunAfterFaultsMatchesFreshSystem: a System reuses its simulated
// caches, so a Run after a faulty run on the same System must see none
// of the injected defects — its result equals a fresh System's Run.
func TestRunAfterFaultsMatchesFreshSystem(t *testing.T) {
	sys, m, in := faultTestSetup(t)
	// Stuck cells and dead lanes on arrays the SmallCNN plan touches:
	// ordinals 0-3 hold the first convolution's groups, and rows 0-79
	// hold its operands, products and accumulators.
	var faults []Fault
	for a := 0; a < 4; a++ {
		for lane := a; lane < 256; lane += 5 {
			faults = append(faults, Fault{Array: a, Row: 79 - a*20, Lane: lane, Kind: FaultStuckAt1})
			faults = append(faults, Fault{Array: a, Row: 40 + a, Lane: lane / 2, Kind: FaultStuckAt0})
		}
		faults = append(faults, Fault{Array: a, Lane: 17 * a, Kind: FaultDeadLane})
	}
	fresh, _, _ := faultTestSetup(t)
	want, err := fresh.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := sys.RunWithFaults(m, in, faults)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(dirty.Logits, want.Logits) {
		t.Fatal("the fault campaign left every logit untouched; it checks nothing")
	}
	got, err := sys.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run after RunWithFaults differs from a fresh System's Run:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunWithFaultsBNNet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := BNNet()
	m.InitWeights(9)
	h, w, c := m.InputShape()
	in := NewTensor(h, w, c, 1.0/255)
	for i := range in.Data {
		in.Data[i] = uint8(i * 13)
	}
	// BNNet through the public facade, with and without faults.
	clean, err := sys.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.RunReference(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Output.Data {
		if clean.Output.Data[i] != ref.Output.Data[i] {
			t.Fatalf("BNNet in-cache output %d differs from reference", i)
		}
	}
	if _, err := sys.RunWithFaults(m, in, []Fault{{Array: 0, Row: 10, Lane: 1, Kind: FaultDeadLane}}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKindsExposed(t *testing.T) {
	if FaultStuckAt0 == FaultStuckAt1 || FaultStuckAt1 == FaultDeadLane {
		t.Error("fault kinds not distinct")
	}
}

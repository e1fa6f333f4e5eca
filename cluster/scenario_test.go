package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"neuralcache"
	"neuralcache/serve"
)

// The scenarios below mirror ncserve's fleet runs (the command is in
// each comment; ncserve's -poisson defaults to true).

// TestKillScenarioSurvivorsHoldCapacity kills one of three deep-queued
// stock nodes early:
//
//	ncserve -cluster 3 -model inception -rate 7018 -requests 30000 -seed 5 \
//	  -queue 1048576 -kill-node 20ms:2
//
// The report must repeat byte for byte, end with the node states
// live/live/down, lose in-flight work, balance its ledger, and serve
// within 5% of the two survivors' capacity bound.
func TestKillScenarioSurvivorsHoldCapacity(t *testing.T) {
	run := func() (*Report, []byte) {
		deep := NodeSpec{QueueDepth: 1 << 20}
		rep, err := Simulate([]*neuralcache.Model{neuralcache.InceptionV3()}, Options{
			Nodes:  []NodeSpec{deep, deep, deep},
			Events: []NodeEvent{{At: 20 * time.Millisecond, Node: 2, Kind: KillNode}},
		}, Load{Rate: 7018, Requests: 30000, Seed: 5, Poisson: true})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, blob
	}
	rep, blob := run()
	if _, again := run(); !bytes.Equal(blob, again) {
		t.Error("kill scenario report differs between identical runs")
	}
	for i, want := range []string{"live", "live", "down"} {
		if rep.Nodes[i].State != want {
			t.Errorf("node %d ended %s, want %s", i, rep.Nodes[i].State, want)
		}
	}
	if rep.Lost == 0 {
		t.Error("kill lost no in-flight work")
	}
	if rep.Offered != rep.Served+rep.Rejected+rep.Lost {
		t.Errorf("offered %d != served %d + rejected %d + lost %d", rep.Offered, rep.Served, rep.Rejected, rep.Lost)
	}
	if math.Abs(rep.ThroughputPerSec-rep.CapacityPerSec) > 0.05*rep.CapacityPerSec {
		t.Errorf("throughput %.1f/s not within 5%% of the survivors' %.1f/s", rep.ThroughputPerSec, rep.CapacityPerSec)
	}
}

// TestAffinityHomesHotSpotMix runs the same hot-spot mix inversion
// under model-blind and affinity routing:
//
//	ncserve -cluster 4 -models inception,resnet,small -mix 0.6,0.3,0.1 \
//	  -mix-shift 4s:0.1,0.2,0.7 -rate 900 -requests 8000 -seed 23 [-router affinity]
//
// Rendezvous homes serve each model on exactly one node and pay fewer
// §IV-E reloads; least-loaded spreads some model over several nodes.
func TestAffinityHomesHotSpotMix(t *testing.T) {
	models := testModels()
	mix := func(w ...float64) []serve.ModelShare {
		out := make([]serve.ModelShare, len(models))
		for i, m := range models {
			out[i] = serve.ModelShare{Model: m.Name(), Weight: w[i]}
		}
		return out
	}
	load := Load{Rate: 900, Requests: 8000, Seed: 23, Poisson: true,
		Mix:         mix(0.6, 0.3, 0.1),
		MixSchedule: []serve.MixShift{{At: 4 * time.Second, Mix: mix(0.1, 0.2, 0.7)}}}
	run := func(r Router) *Report {
		rep, err := Simulate(models, Options{Nodes: make([]NodeSpec, 4), Router: r}, load)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ll, aff := run(LeastLoaded{}), run(ModelAffinity{})
	if aff.ColdDispatches >= ll.ColdDispatches {
		t.Errorf("affinity cold dispatches %d not below least-loaded %d", aff.ColdDispatches, ll.ColdDispatches)
	}
	for _, m := range aff.PerModel {
		if m.NodesServed != 1 {
			t.Errorf("affinity served %s on %d nodes", m.Model, m.NodesServed)
		}
	}
	spread := false
	for _, m := range ll.PerModel {
		spread = spread || m.NodesServed > 1
	}
	if !spread {
		t.Error("least-loaded served every model on a single node")
	}
	if ll.Served != 8000 || aff.Served != 8000 {
		t.Errorf("served %d least-loaded, %d affinity, want 8000", ll.Served, aff.Served)
	}
}

// TestDrainRejoinLosesNothing drains a node and rejoins it:
//
//	ncserve -cluster 2 -model inception -rate 1700 -requests 10000 -seed 7 \
//	  -drain 1s:0 -join 3s:0
//
// Queued work finishes, nothing is lost, and the node comes back live
// and serves.
func TestDrainRejoinLosesNothing(t *testing.T) {
	rep, err := Simulate([]*neuralcache.Model{neuralcache.InceptionV3()}, Options{
		Nodes: make([]NodeSpec, 2),
		Events: []NodeEvent{
			{At: time.Second, Node: 0, Kind: DrainNode},
			{At: 3 * time.Second, Node: 0, Kind: JoinNode},
		},
	}, Load{Rate: 1700, Requests: 10000, Seed: 7, Poisson: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Errorf("drain and rejoin lost %d requests", rep.Lost)
	}
	if n := rep.Nodes[0]; n.State != "live" || n.Served == 0 {
		t.Errorf("rejoined node ended %s having served %d", n.State, n.Served)
	}
}

// TestKillDuringPrestageDropsStaleRestages kills a planned node while
// its startup pre-stages are still streaming and rejoins it later: the
// dead incarnation's restage completions must pop stale, leaving the
// group table untouched — busy groups never go negative and the
// rejoined node pre-stages a second full round.
func TestKillDuringPrestageDropsStaleRestages(t *testing.T) {
	rep, err := Simulate([]*neuralcache.Model{neuralcache.InceptionV3()}, Options{
		Nodes: []NodeSpec{{Plan: true}, {}},
		Events: []NodeEvent{
			{At: time.Millisecond, Node: 0, Kind: KillNode},
			{At: 50 * time.Millisecond, Node: 0, Kind: JoinNode},
		},
		TimelineInterval: 5 * time.Millisecond,
	}, Load{Rate: 2000, Requests: 400, Seed: 2, Poisson: true})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	for _, p := range rep.Timeline.Samples {
		if p.BusyGroups < 0 {
			t.Fatalf("%d busy groups at %v", p.BusyGroups, p.T)
		}
	}
	if n := rep.Nodes[0]; n.State != "live" || n.Restages != 2*n.Groups {
		t.Errorf("rejoined node %s with %d restages, want two rounds of %d", n.State, n.Restages, n.Groups)
	}
}

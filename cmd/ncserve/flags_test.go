package main

import (
	"strings"
	"testing"
	"time"

	"neuralcache/cluster"
)

// TestValidateFlagsObservabilityVsSweeps: -trace and -timeline record a
// single run, so every combination with either sweep axis must die the
// same way.
func TestValidateFlagsObservabilityVsSweeps(t *testing.T) {
	for _, f := range []runFlags{
		{backend: "analytic", trace: true, sweepGroups: true},
		{backend: "analytic", trace: true, sweepCache: true},
		{backend: "analytic", timeline: true, sweepGroups: true},
		{backend: "analytic", timeline: true, sweepCache: true},
		{backend: "analytic", trace: true, timeline: true, sweepGroups: true, sweepCache: true},
	} {
		err := validateFlags(f)
		if err == nil {
			t.Fatalf("%+v accepted", f)
		}
		if !strings.Contains(err.Error(), "record a single run") {
			t.Errorf("%+v: inconsistent rejection %q", f, err)
		}
	}
	// Either axis alone, or trace+timeline on one run, is fine.
	for _, f := range []runFlags{
		{backend: "analytic", trace: true, timeline: true},
		{backend: "analytic", sweepGroups: true},
		{backend: "analytic", sweepCache: true},
	} {
		if err := validateFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
}

// TestValidateFlagsMatrix walks the remaining cross-flag rules.
func TestValidateFlagsMatrix(t *testing.T) {
	bad := []struct {
		name string
		f    runFlags
		want string // error substring
	}{
		{"unknown backend", runFlags{backend: "quantum"}, "unknown backend"},
		{"replan without plan", runFlags{backend: "analytic", replan: true}, "-replan-threshold requires -plan"},
		{"zipf without reuse", runFlags{backend: "analytic", zipfSet: true}, "-zipf requires -reuse"},
		{"both sweeps", runFlags{backend: "analytic", sweepGroups: true, sweepCache: true}, "one axis per sweep"},
		{"plan with group sweep", runFlags{backend: "analytic", plan: true, sweepGroups: true}, "co-selects one group size"},
		{"plan with cache sweep", runFlags{backend: "analytic", plan: true, sweepCache: true}, "-sweep-cache cannot be combined with -plan"},
		{"group sweep on bitexact", runFlags{backend: "bitexact", sweepGroups: true}, "-sweep-groups needs the analytic backend"},
		{"cache sweep on bitexact", runFlags{backend: "bitexact", sweepCache: true}, "-sweep-cache needs the analytic backend"},
		{"replicas with group sweep", runFlags{backend: "analytic", sweepGroups: true, replicas: true}, "each point uses all groups"},
		{"debug-addr on analytic", runFlags{backend: "analytic", debugAddr: true}, "-debug-addr needs the wall-clock bitexact backend"},
		{"router without cluster", runFlags{backend: "analytic", routerSet: true}, "need -cluster"},
		{"lifecycle without cluster", runFlags{backend: "analytic", lifecycle: true}, "need -cluster"},
		{"rate-shift without cluster", runFlags{backend: "analytic", rateShift: true}, "need -cluster"},
		{"cluster on bitexact", runFlags{backend: "bitexact", cluster: true}, "-cluster simulates on the analytic backend"},
		{"cluster with sweep", runFlags{backend: "analytic", cluster: true, sweepCache: true}, "one fleet scenario"},
		{"cluster closed loop", runFlags{backend: "analytic", cluster: true, concurrency: true}, "open-loop fleet"},
		{"cluster with cache", runFlags{backend: "analytic", cluster: true, cache: true}, "without a front cache"},
		{"cluster with reuse", runFlags{backend: "analytic", cluster: true, reuse: true}, "without a front cache"},
		{"cluster with replicas", runFlags{backend: "analytic", cluster: true, replicas: true}, "-replicas cannot be combined with -cluster"},
		{"cluster with geometry", runFlags{backend: "analytic", cluster: true, geometrySet: true}, "geometry comes from the -cluster spec"},
	}
	for _, tc := range bad {
		err := validateFlags(tc.f)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	good := []runFlags{
		{backend: "analytic"},
		{backend: "bitexact", debugAddr: true},
		{backend: "analytic", plan: true, replan: true, trace: true, timeline: true},
		{backend: "analytic", reuse: true, zipfSet: true, cache: true},
		{backend: "analytic", cluster: true},
		{backend: "analytic", cluster: true, routerSet: true, lifecycle: true, rateShift: true},
		{backend: "analytic", cluster: true, plan: true, replan: true, trace: true, timeline: true},
	}
	for _, f := range good {
		if err := validateFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
}

// TestValidateSizes: a -maxbatch below 1 dies with a named error, as
// -group does, instead of pricing the default rate at one batch size
// and serving at another.
func TestValidateSizes(t *testing.T) {
	for _, tc := range []struct {
		group, maxBatch int
		want            string
	}{
		{0, 16, "-group 0: need at least one slice per replica group"},
		{1, 0, "-maxbatch 0: need at least one request per batch"},
		{7, -3, "-maxbatch -3: need at least one request per batch"},
	} {
		err := validateSizes(tc.group, tc.maxBatch)
		if err == nil || err.Error() != tc.want {
			t.Errorf("-group %d -maxbatch %d: error %v, want %q", tc.group, tc.maxBatch, err, tc.want)
		}
	}
	if err := validateSizes(1, 1); err != nil {
		t.Errorf("-group 1 -maxbatch 1 rejected: %v", err)
	}
}

func TestParseNodeSpecs(t *testing.T) {
	specs, err := parseNodeSpecs("3")
	if err != nil || len(specs) != 3 || specs[0] != (cluster.NodeSpec{}) {
		t.Fatalf("count form: %v, %v", specs, err)
	}
	specs, err = parseNodeSpecs(" 2x14, 1x14/7 ,2x24/2")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.NodeSpec{
		{Sockets: 2, Slices: 14},
		{Sockets: 1, Slices: 14, GroupSize: 7},
		{Sockets: 2, Slices: 24, GroupSize: 2},
	}
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		if specs[i] != w {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], w)
		}
	}
	for _, bad := range []string{"", "0", "-2", "2x", "x14", "2x14/", "2x14/0", "ax14", "2x14,zzz"} {
		if _, err := parseNodeSpecs(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseClusterEvents(t *testing.T) {
	evs, err := parseClusterEvents("400ms:2", "150ms:1", "300ms:1; 1s:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.NodeEvent{
		{At: 400 * time.Millisecond, Node: 2, Kind: cluster.KillNode},
		{At: 150 * time.Millisecond, Node: 1, Kind: cluster.DrainNode},
		{At: 300 * time.Millisecond, Node: 1, Kind: cluster.JoinNode},
		{At: time.Second, Node: 2, Kind: cluster.JoinNode},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
	for _, bad := range []string{"400ms", "oops:1", "400ms:x"} {
		if _, err := parseClusterEvents(bad, "", ""); err == nil {
			t.Errorf("kill %q accepted", bad)
		}
	}
}

func TestParseClusterRateShifts(t *testing.T) {
	shifts, err := parseClusterRateShifts("10s:4000; 20s:800.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.RateShift{
		{At: 10 * time.Second, Rate: 4000},
		{At: 20 * time.Second, Rate: 800.5},
	}
	if len(shifts) != len(want) {
		t.Fatalf("%d shifts, want %d", len(shifts), len(want))
	}
	for i, w := range want {
		if shifts[i] != w {
			t.Errorf("shift %d = %+v, want %+v", i, shifts[i], w)
		}
	}
	if got, err := parseClusterRateShifts(""); err != nil || got != nil {
		t.Errorf("empty flag: %v, %v", got, err)
	}
	for _, bad := range []string{"10s", "x:100", "10s:fast"} {
		if _, err := parseClusterRateShifts(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

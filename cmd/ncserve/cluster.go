package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"neuralcache"
	"neuralcache/cluster"
	"neuralcache/obs"
)

// parseNodeSpecs parses the -cluster fleet description: either a bare
// node count ("4" — four stock two-socket nodes) or a comma-separated
// list of SOCKETSxSLICES[/GROUP] geometries ("2x14,1x14,2x14/2").
func parseNodeSpecs(s string) ([]cluster.NodeSpec, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("-cluster %d: need at least one node", n)
		}
		return make([]cluster.NodeSpec, n), nil
	}
	parts := strings.Split(s, ",")
	specs := make([]cluster.NodeSpec, len(parts))
	for i, p := range parts {
		spec, err := parseNodeSpec(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-cluster node %d %q: %v", i, strings.TrimSpace(p), err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// parseNodeSpec parses one SOCKETSxSLICES[/GROUP] geometry. Divisibility
// of the group size is left to the cluster's own validation.
func parseNodeSpec(p string) (cluster.NodeSpec, error) {
	var ns cluster.NodeSpec
	geom, group, hasGroup := strings.Cut(p, "/")
	so, sl, ok := strings.Cut(geom, "x")
	if !ok {
		return ns, fmt.Errorf("want SOCKETSxSLICES[/GROUP]")
	}
	var err error
	if ns.Sockets, err = strconv.Atoi(so); err != nil {
		return ns, fmt.Errorf("sockets %q: %v", so, err)
	}
	if ns.Slices, err = strconv.Atoi(sl); err != nil {
		return ns, fmt.Errorf("slices %q: %v", sl, err)
	}
	if hasGroup {
		if ns.GroupSize, err = strconv.Atoi(group); err != nil {
			return ns, fmt.Errorf("group %q: %v", group, err)
		}
	}
	if ns.Sockets < 1 || ns.Slices < 1 || (hasGroup && ns.GroupSize < 1) {
		return ns, fmt.Errorf("want positive SOCKETSxSLICES[/GROUP]")
	}
	return ns, nil
}

// parseClusterEvents merges the three lifecycle schedules into one
// scenario. The simulator fires events in time order; same-instant
// entries fire in list order (kills, then drains, then joins).
func parseClusterEvents(kill, drain, join string) ([]cluster.NodeEvent, error) {
	var out []cluster.NodeEvent
	for _, f := range []struct {
		flag string
		s    string
		kind cluster.EventKind
	}{
		{"-kill-node", kill, cluster.KillNode},
		{"-drain", drain, cluster.DrainNode},
		{"-join", join, cluster.JoinNode},
	} {
		evs, err := parseNodeEvents(f.flag, f.s, f.kind)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	return out, nil
}

// parseNodeEvents parses one lifecycle flag: semicolon-separated t:node
// entries ("400ms:0;1s:2").
func parseNodeEvents(flagName, s string, kind cluster.EventKind) ([]cluster.NodeEvent, error) {
	if s == "" {
		return nil, nil
	}
	var out []cluster.NodeEvent
	for _, entry := range strings.Split(s, ";") {
		at, idx, ok := strings.Cut(strings.TrimSpace(entry), ":")
		if !ok {
			return nil, fmt.Errorf("%s entry %q: want t:node", flagName, entry)
		}
		t, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			return nil, fmt.Errorf("%s time %q: %v", flagName, at, err)
		}
		n, err := strconv.Atoi(strings.TrimSpace(idx))
		if err != nil {
			return nil, fmt.Errorf("%s node %q: %v", flagName, idx, err)
		}
		out = append(out, cluster.NodeEvent{At: t, Node: n, Kind: kind})
	}
	return out, nil
}

// parseClusterRateShifts parses -rate-shift: semicolon-separated t:rate
// entries ("10s:4000;20s:800") forming the diurnal schedule.
func parseClusterRateShifts(s string) ([]cluster.RateShift, error) {
	if s == "" {
		return nil, nil
	}
	var out []cluster.RateShift
	for _, entry := range strings.Split(s, ";") {
		at, rs, ok := strings.Cut(strings.TrimSpace(entry), ":")
		if !ok {
			return nil, fmt.Errorf("-rate-shift entry %q: want t:rate", entry)
		}
		t, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			return nil, fmt.Errorf("-rate-shift time %q: %v", at, err)
		}
		r, err := strconv.ParseFloat(strings.TrimSpace(rs), 64)
		if err != nil {
			return nil, fmt.Errorf("-rate-shift rate %q: %v", rs, err)
		}
		out = append(out, cluster.RateShift{At: t, Rate: r})
	}
	return out, nil
}

// fleetCapacity sums the nodes' §VI-B replica-group throughput bounds
// for the default model — the fleet analogue of fillLoad's rate
// default. Zero geometry fields default like cluster.NodeSpec; MaxBatch
// comes from -maxbatch, which is at least 1.
func fleetCapacity(specs []cluster.NodeSpec, resident []*neuralcache.Model) (float64, error) {
	total := 0.0
	for _, ns := range specs {
		sockets, slices, group := ns.Sockets, ns.Slices, ns.GroupSize
		if sockets == 0 {
			sockets = 2
		}
		if slices == 0 {
			slices = 14
		}
		if group == 0 {
			group = 1
		}
		cfg := neuralcache.DefaultConfig()
		cfg.Sockets, cfg.Slices = sockets, slices
		if group > 1 {
			cfg.GroupSize = group
		}
		sys, err := neuralcache.New(cfg)
		if err != nil {
			return 0, err
		}
		st, err := sys.ServiceTime(resident[0], ns.MaxBatch, group)
		if err != nil {
			return 0, err
		}
		total += float64(sockets*slices/group*ns.MaxBatch) / st.Seconds()
	}
	return total, nil
}

// runCluster simulates the -cluster fleet scenario and prints its
// report as text or JSON, optionally writing the fleet trace.
func runCluster(resident []*neuralcache.Model, copts cluster.Options, load cluster.Load, traceOut *os.File, traceFile string, jsonOut bool) {
	if load.Requests == 0 && load.Duration == 0 {
		load.Requests = 100_000
	}
	if load.Rate == 0 {
		c, err := fleetCapacity(copts.Nodes, resident)
		if err != nil {
			log.Fatal(err)
		}
		// Twice the surviving-fleet bound, like the single-node default:
		// the report shows the routers at the fleet's throughput limit.
		load.Rate = 2 * c
	}
	if traceOut != nil {
		copts.Trace = &obs.Trace{}
	}
	rep, err := cluster.Simulate(resident, copts, load)
	if err != nil {
		log.Fatal(err)
	}
	if traceOut != nil {
		if err := copts.Trace.WriteJSON(traceOut); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := traceOut.Close(); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if !jsonOut {
			fmt.Printf("trace: %d events -> %s (open in ui.perfetto.dev)\n\n", copts.Trace.Len(), traceFile)
		}
	}
	if jsonOut {
		emitJSON(rep)
		return
	}
	fmt.Println(rep)
}

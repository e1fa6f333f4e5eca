package main

import (
	"errors"
	"fmt"
)

// runFlags captures the flag state the compatibility matrix inspects —
// plain values, not the flag.FlagSet — so the matrix is testable
// without re-registering flags. The *Set fields distinguish "flag given
// explicitly" from "default value" where the default is meaningful.
type runFlags struct {
	backend     string
	trace       bool // -trace given a path
	timeline    bool // -timeline > 0
	sweepGroups bool
	sweepCache  bool
	plan        bool
	replan      bool // -replan-threshold != 0
	replicas    bool // -replicas != 0
	concurrency bool // -concurrency > 0
	cache       bool // -cache > 0
	reuse       bool // -reuse > 0
	zipfSet     bool // -zipf explicitly given
	debugAddr   bool
	geometrySet bool // -sockets/-slices/-group explicitly given
	cluster     bool // -cluster given
	routerSet   bool // -router explicitly given
	lifecycle   bool // -kill-node/-drain/-join given
	rateShift   bool // -rate-shift given
}

// validateFlags rejects flag combinations that cannot run together, in
// a fixed check order so the same bad invocation always dies the same
// way. Single-flag value errors (negative counts, malformed grammars)
// stay at their parse sites; only cross-flag rules live here.
func validateFlags(f runFlags) error {
	switch f.backend {
	case "analytic", "bitexact":
	default:
		return fmt.Errorf("unknown backend %q", f.backend)
	}
	if f.replan && !f.plan {
		return errors.New("-replan-threshold requires -plan")
	}
	if f.zipfSet && !f.reuse {
		return errors.New("-zipf requires -reuse (a unique-input load has no reuse distribution)")
	}
	if (f.trace || f.timeline) && (f.sweepGroups || f.sweepCache) {
		return errors.New("-trace/-timeline record a single run and cannot be combined with a sweep")
	}
	if f.sweepCache && f.sweepGroups {
		return errors.New("-sweep-cache cannot be combined with -sweep-groups (one axis per sweep)")
	}
	if f.plan && f.sweepGroups {
		return errors.New("-plan cannot be combined with -sweep-groups (the planner co-selects one group size)")
	}
	if f.plan && f.sweepCache {
		return errors.New("-sweep-cache cannot be combined with -plan (sweep one axis at a time)")
	}
	if f.sweepGroups && f.backend != "analytic" {
		return fmt.Errorf("-sweep-groups needs the analytic backend, not %q", f.backend)
	}
	if f.sweepCache && f.backend != "analytic" {
		return fmt.Errorf("-sweep-cache needs the analytic backend, not %q", f.backend)
	}
	if f.sweepGroups && f.replicas {
		return errors.New("-replicas cannot be combined with -sweep-groups (each point uses all groups of its size)")
	}
	if f.debugAddr && f.backend != "bitexact" {
		return fmt.Errorf("-debug-addr needs the wall-clock bitexact backend, not %q (the analytic backend finishes before you could look)", f.backend)
	}
	if !f.cluster {
		if f.routerSet || f.lifecycle || f.rateShift {
			return errors.New("-router, -kill-node, -drain, -join and -rate-shift need -cluster")
		}
		return nil
	}
	// Fleet mode: -cluster replays one scenario on the cluster
	// simulator. Single-node axes with no fleet meaning are rejected
	// rather than silently ignored.
	switch {
	case f.backend != "analytic":
		return fmt.Errorf("-cluster simulates on the analytic backend, not %q", f.backend)
	case f.sweepGroups || f.sweepCache:
		return errors.New("-cluster runs one fleet scenario and cannot be combined with a sweep")
	case f.concurrency:
		return errors.New("-cluster drives an open-loop fleet (-concurrency is the single-node closed loop)")
	case f.cache || f.reuse:
		return errors.New("-cluster nodes serve without a front cache (-cache/-reuse are single-node)")
	case f.replicas:
		return errors.New("-replicas cannot be combined with -cluster (node geometry comes from the -cluster spec)")
	case f.geometrySet:
		return errors.New("-sockets/-slices/-group cannot be combined with -cluster (node geometry comes from the -cluster spec)")
	}
	return nil
}

// validateSizes rejects a -group or -maxbatch below one.
func validateSizes(group, maxBatch int) error {
	if group < 1 {
		return fmt.Errorf("-group %d: need at least one slice per replica group", group)
	}
	if maxBatch < 1 {
		return fmt.Errorf("-maxbatch %d: need at least one request per batch", maxBatch)
	}
	return nil
}

// Command perfbench is the repository's benchmark: it drives the serving
// tier through its public APIs on one of three workloads, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. See README.md for the workloads, the metrics and how to
// compare two commits.
//
//	go run . -workload sim-node -seed 1 -seconds 40 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark traffic shape. Its constructor prepares the
// inputs from the seed (input pools, reference outputs, load specs);
// build then constructs the program's objects and runs the warm-up op,
// which is exactly the span setup_s times.
type workload interface {
	build(rec *recorder) (instance, error)
}

// instance is one constructed copy of the program under a workload.
type instance interface {
	// run executes ops until the deadline, checking every output, and
	// accumulates them into p.
	run(until time.Time, p *phase) error
	// layers adds the per-layer metrics this instance measured while
	// it ran with a recorder.
	layers(m map[string]float64)
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64, t *tally) (workload, error){
	"serve-bitexact": newBitExact,
	"sim-node":       newSimNode,
	"sim-fleet":      newSimFleet,
}

// tally counts checked ops and the ones whose output was wrong or that
// returned an error.
type tally struct{ attempted, failed int }

// check counts one op, failed unless ok.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// phase accumulates one timed phase.
type phase struct {
	ops      int             // ops run (requests on serve-bitexact, Simulate calls on the sims)
	requests int             // requests completed: served, or simulated arrivals
	lat      []time.Duration // wall time of each op
	elapsed  time.Duration   // timed wall time
	alloc    uint64          // heap bytes allocated while timed

	// Each timed chunk's own throughput and latency quantiles (ms).
	rates, p50s, p90s []float64
}

// done records one op that ran from t0 to t1 and completed n requests.
func (p *phase) done(t0, t1 time.Time, n int) {
	p.ops++
	p.requests += n
	p.lat = append(p.lat, t1.Sub(t0))
}

func (p *phase) reqPerSec() float64 { return float64(p.requests) / p.elapsed.Seconds() }

// timed runs inst as one chunk of d after a full GC, adding its ops,
// wall time and heap allocation to p, and the chunk's own throughput
// and latency quantiles.
func timed(inst instance, d time.Duration, p *phase) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	first, requests := len(p.lat), p.requests
	start := time.Now()
	err := inst.run(start.Add(d), p)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	p.elapsed += elapsed
	p.alloc += after.TotalAlloc - before.TotalAlloc
	if ops := p.lat[first:]; len(ops) > 0 {
		p.rates = append(p.rates, float64(p.requests-requests)/elapsed.Seconds())
		p.p50s = append(p.p50s, percentile(ops, 0.50))
		p.p90s = append(p.p90s, percentile(ops, 0.90))
	}
	return err
}

// measure runs d of timed ops in chunks. Before each chunk it builds a
// fresh instance, timing the construction and its warm-up op as one
// setup sample. Spreading the constructions over the whole run lets
// the median setup time average the same machine states as the timed
// metrics, instead of sampling the first second of the run only.
func measure(wl workload, d time.Duration, chunks int) ([]float64, *phase, error) {
	var setups []float64
	p := &phase{}
	for i := 0; i < chunks; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := wl.build(nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = timed(inst, d/time.Duration(chunks), p)
		inst.close()
		if err != nil {
			return nil, nil, err
		}
	}
	if p.requests == 0 {
		return nil, nil, fmt.Errorf("no request completed in %v", d)
	}
	return setups, p, nil
}

// sizes scales the fixed amounts of work outside the timed ops: the
// number of chunks (and so of constructions) of an end-to-end run and
// the repetitions of each layer probe. Tests shrink them.
type sizes struct {
	chunks    int           // constructions, each followed by a timed chunk
	probeReps int           // repetitions of each millisecond-scale probe
	microOps  int           // calls per batch of each nanosecond-scale probe
	sideRun   time.Duration // traced run of each workload other than the one named
}

var fullSizes = sizes{chunks: 20, probeReps: 7, microOps: 4096, sideRun: 1500 * time.Millisecond}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "trace file of the traced mode (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {%s}, -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace-"+*name+".json")
	}
	d := time.Duration(*seconds * float64(time.Second))
	var err error
	if *traceFlag == 1 {
		err = runTraced(os.Stdout, *name, *seed, d, fullSizes, *traceOut)
	} else {
		err = runEndToEnd(os.Stdout, *name, *seed, d, fullSizes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// echoEnv prints the settings that change every number, so a result
// never travels without them.
func echoEnv(w io.Writer, name string, seed int64, d time.Duration, traced bool) {
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  mode %s\n", name, seed, d.Seconds(), mode)
	fmt.Fprintf(w, "# nproc %d  GOMAXPROCS %d  %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// runEndToEnd measures one workload untraced, with the program's
// objects unwrapped. setup_s is the median construction time; the
// throughput and latency metrics are medians over the run's chunks of
// each chunk's own value, so a burst of host contention shorter than
// half the run cannot move them; allocation is pooled over the run.
func runEndToEnd(w io.Writer, name string, seed int64, d time.Duration, sz sizes) error {
	echoEnv(w, name, seed, d, false)
	var t tally
	wl, err := workloads[name](seed, &t)
	if err != nil {
		return err
	}
	setups, p, err := measure(wl, d, sz.chunks)
	if err != nil {
		return err
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"req_per_s":        median(p.rates),
		"latency_p50_ms":   median(p.p50s),
		"latency_p90_ms":   median(p.p90s),
		"alloc_kb_per_req": float64(p.alloc) / 1024 / float64(p.requests),
	}
	fmt.Fprintf(w, "# ops %d  requests %d  elapsed %.3fs  attempted %d  failed %d\n",
		p.ops, p.requests, p.elapsed.Seconds(), t.attempted, t.failed)
	r, err := newResult(endToEnd, m, t.attempted, t.failed)
	if err != nil {
		return err
	}
	return r.write(w, endToEnd)
}

// runTraced measures the per-layer metrics. The named workload runs for
// half of d, in alternating chunks on an untraced and a traced instance
// (through the wrappers), which gives bench.trace_overhead_share and its
// layers' metrics; the other workloads run a short traced pass for
// theirs; then every layer is probed directly. The spans go to
// traceOut.
func runTraced(w io.Writer, name string, seed int64, d time.Duration, sz sizes, traceOut string) error {
	echoEnv(w, name, seed, d, true)
	var t tally
	rec := newRecorder()
	rec.process(pidBitExact, "serve-bitexact: requests and execute batches")
	rec.process(pidSimNode, "sim-node: serve.Simulate calls")
	rec.process(pidSimFleet, "sim-fleet: cluster.Simulate calls")
	rec.process(pidProbes, "layer probes")
	m := make(map[string]float64)

	wl, err := workloads[name](seed, &t)
	if err != nil {
		return err
	}
	plain, err := wl.build(nil)
	if err != nil {
		return err
	}
	defer plain.close()
	traced, err := wl.build(rec)
	if err != nil {
		return err
	}
	defer traced.close()
	base, tp := &phase{}, &phase{}
	chunk := d / time.Duration(4*sz.chunks)
	for i := 0; i < sz.chunks; i++ {
		if err := timed(plain, chunk, base); err != nil {
			return err
		}
		if err := timed(traced, chunk, tp); err != nil {
			return err
		}
	}
	traced.layers(m)
	m["bench.trace_overhead_share"] = 1 - tp.reqPerSec()/base.reqPerSec()

	for _, other := range workloadNames() {
		if other == name {
			continue
		}
		owl, err := workloads[other](seed, &t)
		if err != nil {
			return err
		}
		inst, err := owl.build(rec)
		if err != nil {
			return err
		}
		err = timed(inst, sz.sideRun, &phase{})
		inst.layers(m)
		inst.close()
		if err != nil {
			return err
		}
	}
	if err := probeLayers(m, rec, sz, &t); err != nil {
		return err
	}
	if err := rec.writeFile(traceOut); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(w, "# ops %d  requests %d  attempted %d  failed %d  trace %s (%d events)\n",
		tp.ops, tp.requests, t.attempted, t.failed, traceOut, rec.trace.Len())
	r, err := newResult(perLayer, m, t.attempted, t.failed)
	if err != nil {
		return err
	}
	return r.write(w, perLayer)
}

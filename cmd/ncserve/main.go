// Command ncserve load-tests the Neural Cache serving subsystem.
//
// The analytic backend (default) replays a generated arrival process
// through the replica-group scheduler on a deterministic virtual clock —
// hundreds of thousands of Inception-scale requests simulate in
// seconds — and prints a latency histogram and per-group utilization
// report. The bitexact backend starts the real asynchronous server and
// drives it with the same load generator in wall-clock time, executing
// every request bit-accurately on the simulated SRAM arrays.
//
// The serving unit is a replica group of -group consecutive LLC slices
// on one socket (default 1, the paper's §VI-B one-image-per-slice
// replication; -group must divide -slices). Bigger groups serve each
// image faster and reload models less often at the cost of replica
// count; -sweep-groups runs the same load at several group sizes and
// prints the Table IV-style latency/throughput/reload frontier (as a
// table, or as a JSON array with -json).
//
// Multiple models can be resident at once (-models): each arrival draws
// its model from the -mix weights, the scheduler dispatches warm-first,
// and cold dispatches pay the §IV-E weight-reload cost. The report
// splits dispatches into warm/cold counts and carries per-model latency
// percentiles.
//
// Traffic is open-loop by default (-rate arrivals per second, exposing
// queueing and rejection); -concurrency N switches to a closed loop of N
// users that each keep one request in flight (-rate then sets the
// per-user think rate; 0 = none), exposing latency under admission
// control.
//
// Observability: -trace out.json records the full request lifecycle —
// queue spans, warm/cold batch spans (cold ones with reload sub-spans),
// restage spans, rejection and re-plan instants, one lane per replica
// group — as Chrome trace-event JSON, viewable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. On the analytic backend the
// trace rides the virtual clock and is byte-identical across runs and
// worker counts; on bitexact it records real wall-clock offsets. The
// output file is created up front so an unwritable path fails before
// the run, not after it. -timeline 500ms samples queue depth, per-group
// utilization, warm/cold dispatch counts, offered/served rates and mix
// drift every interval into the report's "timeline" array. With
// -backend bitexact, -debug-addr host:port serves net/http/pprof and
// expvar (live queue depth, busy groups, counters, observed mix) while
// the load runs.
//
// -cache N puts a memoizing front-cache of N entries ahead of the
// admission queue: repeated inputs are served at admission without
// touching a replica group. -reuse U -zipf s makes the generated load
// reusable — each arrival draws its input identity from a Zipf(s)
// distribution over U distinct inputs — so the cache has something to
// hit. A byte comparison against the stored input guards every hit,
// so a cached response is never wrong. -sweep-cache 0,256,1024 runs
// the same reusable load at several capacities and prints the
// break-even frontier — which hit rate turns the cache into free
// replica capacity.
//
// -plan turns on the mix-aware residency planner: warm sets are sized
// from the -mix weights and pre-staged across the replica groups, and
// the group size is co-selected over the divisors of -slices (an
// explicit -group pins it instead). Pinned groups only ever serve their
// model, so steady traffic dispatches warm. -replan-threshold x attaches
// the online drift controller, and -mix-shift shifts the traffic mix
// mid-run (t:w1,w2,... — weights match -models; repeat with
// semicolons), the scenario the controller chases by restaging groups.
// The plan (assignment table, predictions, predicted vs observed cold
// dispatches) is printed with the report in text and embedded in -json
// output.
//
// -cluster lifts the run from one node to a fleet: it simulates N
// Neural Cache nodes (a bare count for stock nodes, or comma-separated
// SOCKETSxSLICES[/GROUP] geometries for a heterogeneous fleet) behind
// one front door on the same deterministic virtual clock. -router picks
// the routing policy — least-loaded, affinity (rendezvous-hash models
// to home nodes, so steady traffic dispatches warm) or p2c
// (power-of-two-choices). The scenario plays lifecycle events from
// -kill-node, -drain and -join (semicolon-separated t:node entries) and
// a diurnal -rate-shift schedule (t:rate); -plan/-replan-threshold give
// every node a mix-aware warm set and its own drift controller, and
// -trace/-timeline record the fleet with one process lane per node. The
// report aggregates fleet percentiles, per-node utilization and
// warm/cold/reload counts, and rejects by cause (queue-full vs
// no-accepting-node).
//
// Usage:
//
//	ncserve -model inception -rate 2000 -requests 100000
//	ncserve -models inception,resnet -mix 0.7,0.3 -requests 100000
//	ncserve -model inception -group 2 -requests 100000
//	ncserve -model inception -sweep-groups 1,2,7,14 -requests 50000 -json
//	ncserve -model inception -concurrency 64 -requests 50000
//	ncserve -models inception,resnet -mix 0.8,0.2 -rate 600 -plan -json
//	ncserve -models inception,resnet -mix 0.8,0.2 -rate 600 -group 7 -plan \
//	        -replan-threshold 0.15 -mix-shift 15s:0.2,0.8 -requests 30000
//	ncserve -backend bitexact -models small,smallresnet -mix 1,1 -requests 16 -rate 500
//	ncserve -model resnet -slices 24 -replicas 12 -duration 2s -rate 1000
//	ncserve -models inception,resnet -mix 0.8,0.2 -rate 600 -group 7 -plan \
//	        -replan-threshold 0.15 -mix-shift 15s:0.2,0.8 -trace trace.json -timeline 500ms
//	ncserve -backend bitexact -model small -requests 32 -debug-addr localhost:6060
//	ncserve -model inception -rate 4000 -reuse 4096 -zipf 1.1 -cache 1024
//	ncserve -model inception -rate 4000 -reuse 4096 -zipf 1.1 -sweep-cache 0,256,1024,4096
//	ncserve -backend bitexact -model small -requests 64 -reuse 16 -zipf 1.2 -cache 8
//	ncserve -cluster 4 -models inception,resnet -mix 0.7,0.3 -router affinity -requests 50000
//	ncserve -cluster 2x14,2x14,1x14/7 -rate 2000 -kill-node 400ms:2 -join 1s:2 -json
//	ncserve -cluster 3 -models inception,resnet -plan -replan-threshold 0.2 \
//	        -mix-shift 5s:0.2,0.8 -rate-shift 10s:800 -drain 2s:0 -join 4s:0
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"neuralcache"
	"neuralcache/cluster"
	"neuralcache/plan"
	"neuralcache/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncserve: ")
	var (
		model       = flag.String("model", "inception", "model: "+strings.Join(neuralcache.ModelNames(), ", "))
		models      = flag.String("models", "", "comma-separated resident models (overrides -model; first is the default)")
		mix         = flag.String("mix", "", "comma-separated traffic weights matching -models (default uniform)")
		backend     = flag.String("backend", "analytic", "backend: analytic (virtual clock) or bitexact (real server)")
		slices      = flag.Int("slices", 14, "LLC slices (14=35MB, 18=45MB, 24=60MB)")
		sockets     = flag.Int("sockets", 2, "host sockets")
		workers     = flag.Int("workers", 0, "functional-engine worker goroutines (bitexact; 0 = GOMAXPROCS)")
		group       = flag.Int("group", 1, "LLC slices per replica group (must divide -slices)")
		sweepGroups = flag.String("sweep-groups", "", "comma-separated group sizes to sweep (analytic only; overrides -group)")
		replicas    = flag.Int("replicas", 0, "replica groups to serve on (0 = slices × sockets / group)")
		maxBatch    = flag.Int("maxbatch", 16, "dynamic micro-batch size cap")
		linger      = flag.Duration("linger", 2*time.Millisecond, "max wait for a fuller batch (0 = dispatch immediately)")
		queue       = flag.Int("queue", 1024, "admission queue depth")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate per second (0 = 2× group capacity); closed-loop per-user think rate (0 = no think)")
		concurrency = flag.Int("concurrency", 0, "closed-loop users keeping one request in flight each (0 = open loop)")
		requests    = flag.Int("requests", 0, "arrivals to generate (0 = 100000 analytic / 64 bitexact)")
		duration    = flag.Duration("duration", 0, "arrival window, alternative to -requests")
		poisson     = flag.Bool("poisson", true, "Poisson (exponential) interarrivals/think times; false = uniform spacing")
		seed        = flag.Int64("seed", 42, "arrival / mix / weight / input seed")
		jsonOut     = flag.Bool("json", false, "emit the load report (or group sweep) as JSON")
		planFlag    = flag.Bool("plan", false, "pre-stage warm sets from the mix (co-selects the group size unless -group is given)")
		replanThr   = flag.Float64("replan-threshold", 0, "mix drift (total variation, 0-1) that triggers an online re-plan; 0 = no controller (needs -plan)")
		mixShift    = flag.String("mix-shift", "", "mid-run mix shifts, t:w1,w2,... with weights matching -models; semicolon-separated")
		traceFile   = flag.String("trace", "", "write the run's Chrome trace-event JSON here (open in ui.perfetto.dev)")
		timeline    = flag.Duration("timeline", 0, "sample the run's time series every interval into the report's timeline (0 = off)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and expvar debug vars on host:port during the run (bitexact only)")
		cacheCap    = flag.Int("cache", 0, "memoizing front-cache capacity in entries (0 = no cache)")
		sweepCache  = flag.String("sweep-cache", "", "comma-separated front-cache capacities to sweep (analytic only; overrides -cache)")
		reuse       = flag.Int("reuse", 0, "reusable-input universe size: arrivals draw from this many distinct inputs (0 = every arrival unique)")
		zipf        = flag.Float64("zipf", 1.1, "Zipf skew of the reuse distribution (must exceed 1; needs -reuse)")
		clusterSpec = flag.String("cluster", "", "simulate a fleet: node count or comma-separated SOCKETSxSLICES[/GROUP] geometries (analytic only)")
		routerName  = flag.String("router", "least-loaded", "cluster routing policy: least-loaded, affinity or p2c (needs -cluster)")
		killNodes   = flag.String("kill-node", "", "cluster kill schedule, semicolon-separated t:node (needs -cluster)")
		drainNodes  = flag.String("drain", "", "cluster drain schedule, semicolon-separated t:node (needs -cluster)")
		joinNodes   = flag.String("join", "", "cluster join schedule, semicolon-separated t:node (needs -cluster)")
		rateShifts  = flag.String("rate-shift", "", "mid-run arrival-rate shifts, semicolon-separated t:rate (needs -cluster)")
	)
	flag.Parse()
	groupSet, zipfSet, socketsSet, slicesSet, routerSet := false, false, false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "group":
			groupSet = true
		case "zipf":
			zipfSet = true
		case "sockets":
			socketsSet = true
		case "slices":
			slicesSet = true
		case "router":
			routerSet = true
		}
	})
	if err := validateFlags(runFlags{
		backend:     *backend,
		trace:       *traceFile != "",
		timeline:    *timeline > 0,
		sweepGroups: *sweepGroups != "",
		sweepCache:  *sweepCache != "",
		plan:        *planFlag,
		replan:      *replanThr != 0,
		replicas:    *replicas != 0,
		concurrency: *concurrency != 0,
		cache:       *cacheCap > 0,
		reuse:       *reuse > 0,
		zipfSet:     zipfSet,
		debugAddr:   *debugAddr != "",
		geometrySet: socketsSet || slicesSet || groupSet,
		cluster:     *clusterSpec != "",
		routerSet:   routerSet,
		lifecycle:   *killNodes != "" || *drainNodes != "" || *joinNodes != "",
		rateShift:   *rateShifts != "",
	}); err != nil {
		log.Fatal(err)
	}

	cfg := neuralcache.DefaultConfig()
	cfg.Slices = *slices
	cfg.Sockets = *sockets
	cfg.Workers = *workers
	if err := validateSizes(*group, *maxBatch); err != nil {
		log.Fatal(err)
	}
	if *group != 1 {
		// Reflect the grouping in the facade config so the echoed
		// "config" JSON describes the system actually run (1 keeps the
		// historical schema: GroupSize 0 ≡ 1).
		cfg.GroupSize = *group
	}
	sys, err := neuralcache.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	names := []string{*model}
	if *models != "" {
		names = strings.Split(*models, ",")
	}
	resident := make([]*neuralcache.Model, len(names))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		m, err := neuralcache.ModelByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		if seen[m.Name()] {
			log.Fatalf("-models lists %s twice", strings.TrimSpace(name))
		}
		seen[m.Name()] = true
		resident[i] = m
		names[i] = m.Name()
	}

	// Cache and reuse flags fail fast here, mirroring the library's own
	// Load/Options validation, so a typo dies before the model weights
	// are initialized rather than inside the run.
	if *cacheCap < 0 {
		log.Fatalf("-cache %d: capacity must be non-negative", *cacheCap)
	}
	if *reuse < 0 {
		log.Fatalf("-reuse %d: universe must be non-negative", *reuse)
	}
	if *reuse > 0 && (math.IsNaN(*zipf) || math.IsInf(*zipf, 0) || *zipf <= 1) {
		log.Fatalf("-zipf %v: Zipf skew must be a finite value exceeding 1", *zipf)
	}

	opts := serve.Options{
		QueueDepth: *queue,
		MaxBatch:   *maxBatch,
		MaxLinger:  *linger,
		GroupSize:  *group,
		Replicas:   *replicas,
		Cache:      serve.CacheOptions{Capacity: *cacheCap},
	}
	if *linger == 0 {
		opts.MaxLinger = serve.NoLinger
	}
	load := serve.Load{
		Rate:        *rate,
		Requests:    *requests,
		Duration:    *duration,
		Seed:        *seed,
		Poisson:     *poisson,
		Concurrency: *concurrency,
		Mix:         parseMix(names, *mix),
		MixSchedule: parseMixShifts(names, *mixShift),
	}
	if *reuse > 0 {
		load.Reuse = serve.Reuse{ZipfS: *zipf, Universe: *reuse}
	}
	// Observability setup fails fast, before the (possibly minutes-long)
	// load run: the trace file is created now so an unwritable path
	// errors immediately, and the debug listener binds now so a taken
	// port does too.
	if *timeline < 0 {
		log.Fatalf("-timeline %v: interval must be positive", *timeline)
	}
	var traceOut *os.File
	if *traceFile != "" {
		traceOut, err = os.Create(*traceFile)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if *clusterSpec == "" {
			opts.Trace = serve.NewTracer()
		}
	}
	opts.TimelineInterval = *timeline
	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("-debug-addr: %v", err)
		}
	}

	if *clusterSpec != "" {
		specs, err := parseNodeSpecs(*clusterSpec)
		if err != nil {
			log.Fatal(err)
		}
		for i := range specs {
			specs[i].QueueDepth = *queue
			specs[i].MaxBatch = *maxBatch
			specs[i].MaxLinger = *linger
			if *linger == 0 {
				specs[i].MaxLinger = -1
			}
			specs[i].Workers = *workers
			specs[i].Plan = *planFlag
			if *replanThr != 0 {
				specs[i].Replan = plan.ControllerConfig{Threshold: *replanThr}
			}
		}
		router, err := cluster.ParseRouter(*routerName, *seed)
		if err != nil {
			log.Fatalf("-router: %v", err)
		}
		events, err := parseClusterEvents(*killNodes, *drainNodes, *joinNodes)
		if err != nil {
			log.Fatal(err)
		}
		shifts, err := parseClusterRateShifts(*rateShifts)
		if err != nil {
			log.Fatal(err)
		}
		runCluster(resident, cluster.Options{
			Nodes:            specs,
			Router:           router,
			Events:           events,
			TimelineInterval: *timeline,
		}, cluster.Load{
			Rate:         *rate,
			Requests:     *requests,
			Duration:     *duration,
			Seed:         *seed,
			Poisson:      *poisson,
			Mix:          parseMix(names, *mix),
			MixSchedule:  parseMixShifts(names, *mixShift),
			RateSchedule: shifts,
		}, traceOut, *traceFile, *jsonOut)
		return
	}

	if *sweepGroups != "" {
		be := serve.NewAnalyticBackend(sys, resident[0], resident[1:]...)
		fillLoad(&load, be, opts, 100_000)
		points, err := serve.SweepGroups(be, opts, load, parseGroups(*sweepGroups))
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			// The frontier rows only; drop the per-run reports to keep the
			// sweep JSON a compact, diffable artifact.
			rows := make([]serve.GroupSweepPoint, len(points))
			for i, p := range points {
				rows[i] = p
				rows[i].Report = nil
			}
			emitJSON(struct {
				Config neuralcache.Config      `json:"config"`
				Sweep  []serve.GroupSweepPoint `json:"sweep"`
			}{cfg, rows})
			return
		}
		fmt.Println(serve.SweepTable(points))
		return
	}

	if *sweepCache != "" {
		be := serve.NewAnalyticBackend(sys, resident[0], resident[1:]...)
		fillLoad(&load, be, opts, 100_000)
		points, err := serve.SweepCache(be, opts, load, parseCaps(*sweepCache))
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			// The frontier rows only; drop the per-run reports to keep the
			// sweep JSON a compact, diffable artifact.
			rows := make([]serve.CacheSweepPoint, len(points))
			for i, p := range points {
				rows[i] = p
				rows[i].Report = nil
			}
			emitJSON(struct {
				Config neuralcache.Config      `json:"config"`
				Sweep  []serve.CacheSweepPoint `json:"sweep"`
			}{cfg, rows})
			return
		}
		fmt.Println(serve.SweepCacheTable(points))
		return
	}

	applyPlan := func() {
		if !*planFlag {
			return
		}
		p := computePlan(sys, resident, load, opts, groupSet, *group)
		opts.Plan = p
		opts.GroupSize = p.GroupSize
		if *replanThr != 0 {
			opts.Replan = plan.ControllerConfig{Threshold: *replanThr}
		}
		if !*jsonOut {
			fmt.Println(p)
			fmt.Println()
		}
	}

	var rep *serve.LoadReport
	switch *backend {
	case "analytic":
		be := serve.NewAnalyticBackend(sys, resident[0], resident[1:]...)
		fillLoad(&load, be, opts, 100_000)
		applyPlan()
		rep, err = serve.Simulate(be, opts, load)
	case "bitexact":
		for _, m := range resident {
			m.InitWeights(*seed)
		}
		be := serve.NewBitExactBackend(sys, resident[0], resident[1:]...)
		fillLoad(&load, be, opts, 64)
		applyPlan()
		var srv *serve.Server
		srv, err = serve.NewServer(be, opts)
		if err != nil {
			log.Fatal(err)
		}
		if debugLn != nil {
			publishDebugVars(srv)
			go http.Serve(debugLn, nil)
			if !*jsonOut {
				fmt.Printf("debug: pprof and expvar at http://%s/debug/pprof/ and /debug/vars\n", debugLn.Addr())
			}
		}
		rep, err = serve.LoadTest(srv, load, inputSource(be, *seed))
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	default:
		log.Fatalf("unknown backend %q", *backend)
	}
	if err != nil {
		log.Fatal(err)
	}

	if traceOut != nil {
		if err := opts.Trace.WriteJSON(traceOut); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := traceOut.Close(); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if !*jsonOut {
			fmt.Printf("trace: %d events -> %s (open in ui.perfetto.dev)\n\n", opts.Trace.Len(), *traceFile)
		}
	}

	if *jsonOut {
		emitJSON(struct {
			Config neuralcache.Config `json:"config"`
			*serve.LoadReport
		}{cfg, rep})
		return
	}
	fmt.Println(rep)
}

// publishDebugVars registers the server's live counters with expvar, so
// -debug-addr's /debug/vars shows queue depth, group occupancy, serve
// counters and — on controlled runs — the observed mix and its drift,
// alongside the standard memstats and cmdline vars.
func publishDebugVars(srv *serve.Server) {
	expvar.Publish("ncserve_queue_depth", expvar.Func(func() any { return srv.QueueDepth() }))
	expvar.Publish("ncserve_busy_groups", expvar.Func(func() any { return srv.BusyGroups() }))
	expvar.Publish("ncserve_stats", expvar.Func(func() any {
		st := srv.Stats()
		out := map[string]any{
			"submitted":    st.Submitted,
			"rejected":     st.Rejected,
			"served":       st.Served,
			"failed":       st.Failed,
			"canceled":     st.Canceled,
			"batches":      st.Batches,
			"warm_batches": st.WarmBatches,
			"cold_batches": st.ColdBatches,
			"restages":     st.Restages,
			"replans":      st.Replans,
			"utilization":  st.Utilization,
		}
		if st.CacheHits+st.CacheMisses > 0 {
			out["cache_hits"] = st.CacheHits
			out["cache_misses"] = st.CacheMisses
			out["cache_inserts"] = st.CacheInserts
			out["cache_evictions"] = st.CacheEvictions
		}
		if ctrl := srv.Controller(); ctrl != nil {
			out["mix_drift"] = ctrl.Drift()
			out["observed_mix"] = ctrl.Observed()
		}
		return out
	}))
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// parseGroups parses the -sweep-groups list.
func parseGroups(s string) []int {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			log.Fatalf("-sweep-groups entry %q: %v", p, err)
		}
		out[i] = k
	}
	return out
}

// parseCaps parses the -sweep-cache capacity list.
func parseCaps(s string) []int {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		c, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			log.Fatalf("-sweep-cache entry %q: %v", p, err)
		}
		out[i] = c
	}
	return out
}

// computePlan builds the residency plan for the run: Compute at an
// explicitly given -group, CoSelect over the slice count's divisors
// otherwise. The queueing predictions assume the open-loop arrival
// rate; closed-loop runs plan latency-only (the offered rate emerges
// from the population).
func computePlan(sys *neuralcache.System, resident []*neuralcache.Model, load serve.Load, opts serve.Options, groupSet bool, group int) *plan.Plan {
	shares := make([]plan.Share, len(load.Mix))
	for i, ms := range load.Mix {
		shares[i] = plan.Share{Model: ms.Model, Weight: ms.Weight}
	}
	po := plan.Options{MaxBatch: opts.MaxBatch}
	if load.Concurrency == 0 {
		po.RatePerSec = load.Rate
	}
	var p *plan.Plan
	var err error
	if groupSet {
		po.GroupSize = group
		p, err = plan.Compute(sys, resident, shares, po)
	} else {
		p, err = plan.CoSelect(sys, resident, shares, po)
	}
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// parseMixShifts parses the -mix-shift schedule: semicolon-separated
// t:w1,w2,... entries whose weights match -models.
func parseMixShifts(names []string, s string) []serve.MixShift {
	if s == "" {
		return nil
	}
	var out []serve.MixShift
	for _, entry := range strings.Split(s, ";") {
		at, weights, ok := strings.Cut(strings.TrimSpace(entry), ":")
		if !ok {
			log.Fatalf("-mix-shift entry %q: want t:w1,w2,...", entry)
		}
		t, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			log.Fatalf("-mix-shift time %q: %v", at, err)
		}
		out = append(out, serve.MixShift{At: t, Mix: parseMix(names, weights)})
	}
	return out
}

// parseMix builds the traffic mix for the resident models: -mix weights
// when given (must match -models in count), uniform weights when several
// models are resident, nil (default-model-only) otherwise.
func parseMix(names []string, mixFlag string) []serve.ModelShare {
	if mixFlag == "" {
		if len(names) <= 1 {
			return nil
		}
		out := make([]serve.ModelShare, len(names))
		for i, n := range names {
			out[i] = serve.ModelShare{Model: n, Weight: 1}
		}
		return out
	}
	parts := strings.Split(mixFlag, ",")
	if len(parts) != len(names) {
		log.Fatalf("-mix has %d weights for %d models", len(parts), len(names))
	}
	out := make([]serve.ModelShare, len(names))
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			log.Fatalf("-mix weight %q: %v", p, err)
		}
		out[i] = serve.ModelShare{Model: names[i], Weight: w}
	}
	return out
}

// fillLoad defaults the request count and the open-loop arrival rate:
// with no -rate, offer twice the replica-group capacity of the default
// model so the report shows the scheduler at its §VI-B throughput bound.
// Closed-loop runs keep a zero rate (no think time).
func fillLoad(load *serve.Load, be serve.Backend, opts serve.Options, defaultRequests int) {
	if load.Requests == 0 && load.Duration == 0 {
		load.Requests = defaultRequests
	}
	if load.Rate == 0 && load.Concurrency == 0 {
		// -group feeds Config.GroupSize above, so the system's own group
		// accounting applies (Options.GroupSize 0 defaults to it too).
		st, err := be.ServiceTime("", opts.MaxBatch, be.System().GroupSize())
		if err != nil {
			log.Fatal(err)
		}
		replicas := opts.Replicas
		if replicas == 0 {
			replicas = be.System().ReplicaGroups()
		}
		load.Rate = 2 * float64(replicas*opts.MaxBatch) / st.Seconds()
	}
}

// inputSource yields a deterministic random input tensor per arrival
// ordinal, shaped for the arrival's model and seeded like ncsim's
// functional mode.
func inputSource(be serve.Backend, seed int64) func(i int, model string) *neuralcache.Tensor {
	return func(i int, model string) *neuralcache.Tensor {
		m, err := be.Lookup(model)
		if err != nil {
			log.Fatal(err)
		}
		h, w, c := m.InputShape()
		in := neuralcache.NewTensor(h, w, c, 1.0/255)
		r := rand.New(rand.NewSource(seed + 1 + int64(i)))
		for j := range in.Data {
			in.Data[j] = uint8(r.Intn(256))
		}
		return in
	}
}

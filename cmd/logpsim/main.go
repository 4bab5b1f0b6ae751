// Command logpsim runs one of the built-in parallel algorithms on a
// configurable simulated LogP machine and reports the time, efficiency and
// (optionally) a per-processor activity Gantt.
//
// Examples:
//
//	logpsim -algo broadcast -P 8 -L 6 -o 2 -g 4 -trace
//	logpsim -algo broadcast -prof bcast.trace.json   # critical path + Chrome trace
//	logpsim -algo fft -P 32 -n 16384
//	logpsim -algo sum -P 8 -L 5 -o 2 -g 4 -n 79
//	logpsim -algo sort -P 8 -n 4096
//	logpsim -algo lu -P 16 -n 64 -layout scattered
//	logpsim -algo cc -P 8 -n 512
//	logpsim -algo rbcast -drop 0.05 -faultseed 7     # reliable broadcast on a lossy network
//	logpsim -algo broadcast -fail 3@10               # fail-stop proc 3 at cycle 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/logp-model/logp/internal/algo/cc"
	"github.com/logp-model/logp/internal/algo/fft"
	"github.com/logp-model/logp/internal/algo/lu"
	"github.com/logp-model/logp/internal/algo/matmul"
	parsort "github.com/logp-model/logp/internal/algo/sort"
	"github.com/logp-model/logp/internal/algo/stencil"
	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/reliable"
	"github.com/logp-model/logp/internal/service"
	"github.com/logp-model/logp/internal/topo"
)

func main() {
	var (
		algo     = flag.String("algo", "broadcast", "broadcast | rbcast | sum | fft | sort | lu | cc | matmul | stencil")
		p        = flag.Int("P", 8, "processors")
		l        = flag.Int64("L", 6, "latency upper bound (cycles)")
		o        = flag.Int64("o", 2, "send/receive overhead (cycles)")
		g        = flag.Int64("g", 4, "gap between messages (cycles)")
		n        = flag.Int("n", 0, "problem size (0 = a sensible default)")
		layout   = flag.String("layout", "scattered", "lu layout: column | blocked | scattered")
		sortAlgo = flag.String("sort", "splitter", "sort algorithm: splitter | bitonic | column")
		traceIt  = flag.Bool("trace", false, "print the activity Gantt (small runs only)")
		profOut  = flag.String("prof", "", "profile the run: print the critical-path attribution and write Chrome trace_event JSON to this file (view at chrome://tracing)")
		seed     = flag.Int64("seed", 1, "random seed")
		drop     = flag.Float64("drop", 0, "fault injection: per-message drop probability on every link")
		dup      = flag.Float64("dup", 0, "fault injection: per-message duplication probability on every link")
		jitter   = flag.Int64("jitter", 0, "fault injection: max extra latency cycles per message (uniform)")
		failAt   = flag.String("fail", "", "fault injection: comma-separated fail-stop list, proc@cycle (e.g. 2@100,5@0)")
		fseed    = flag.Int64("faultseed", 1, "seed for the fault plan's random draws")
		metOut   = flag.String("metrics", "", "write run metrics (of the last machine run) to this file, \"-\" = stdout")
		metFmt   = flag.String("metrics-format", "prom", "metrics output format: prom | json | csv")
		metEvery = flag.Int64("metrics-every", 0, "metrics sampling interval in simulated cycles (0 = default)")
		engine   = flag.String("engine", "", "execution engine for program-form algorithms (broadcast, sum): goroutine | flat (default $LOGP_ENGINE, else goroutine)")
		shards   = flag.Int("shards", 0, "flat engine: event-kernel shards, >1 runs the windowed parallel core with -nocap; capacity-on runs use one shard (default $LOGP_SHARDS, else 1)")
		shStats  = flag.Bool("shardstats", false, "flat engine: record and print the per-shard flight-recorder table (windows, events, wheel/heap split, barrier wait) after the run")
		nocap    = flag.Bool("nocap", false, "disable the capacity limit of ceil(L/g) in-flight messages per processor")
		tier     = flag.String("tier", "", "hierarchical topology: node=<ppn>:<L>,<o>,<g>[;rack=<npr>:<L>,<o>,<g>]; -L/-o/-g stay the top (cluster) tier")
		jsonOut  = flag.Bool("json", false, "print the run as a canonical JSON response (the exact bytes logpsimd serves for the same spec) instead of the human summary")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "logpsim: unexpected argument %q (all options are flags)\n\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *engine != "" {
		if _, err := logp.EngineByName(*engine); err != nil {
			usageError(err)
		}
		logp.SetDefaultEngineName(*engine)
	}
	engName := logp.DefaultEngineName()
	if *shards > 1 && engName == "goroutine" {
		usageError(fmt.Errorf("-shards applies to the flat engine only (use -engine flat)"))
	}
	if *shStats {
		if engName == "goroutine" && *shards <= 1 {
			usageError(fmt.Errorf("-shardstats applies to the flat engine only (use -engine flat or -shards)"))
		}
		if *jsonOut {
			usageError(fmt.Errorf("-json excludes -shardstats: the wall-clock table is not part of the canonical response"))
		}
	}

	params := core.Params{P: *p, L: *l, O: *o, G: *g}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	cfg := logp.Config{Params: params, CollectTrace: *traceIt, Seed: *seed, DisableCapacity: *nocap}
	var tierSpec *topo.Spec
	if *tier != "" {
		ts, err := topo.ParseSpec(*tier)
		if err != nil {
			usageError(err)
		}
		model, err := ts.Build(params)
		if err != nil {
			usageError(err)
		}
		tierSpec = ts
		cfg.Topology = model
	}
	faults, err := faultPlan(*drop, *dup, *jitter, *failAt, *fseed)
	if err != nil {
		usageError(err)
	}
	if faults != nil {
		if err := faults.Validate(params.P); err != nil {
			usageError(err)
		}
	}
	cfg.Faults = faults
	if *jsonOut {
		if *traceIt || *profOut != "" {
			usageError(fmt.Errorf("-json excludes -trace and -prof: the JSON response carries no trace"))
		}
		if *metOut == "-" {
			usageError(fmt.Errorf("-json owns stdout; metrics are embedded in the response body (use -metrics with a file path for a separate export)"))
		}
		switch *algo {
		case "broadcast", "sum":
			// Program-form algorithms route through the same spec→response
			// path the daemon runs, so the bytes match logpsimd's body for
			// the same spec — and its spec_hash addresses the daemon's cache.
			if err := runServiceJSON(*algo, params, *n, engName, *shards, *nocap, *seed,
				tierSpec, faults, *metOut, *metFmt, *metEvery); err != nil {
				fatal(err)
			}
			return
		}
	}
	var rec *prof.Recorder
	if *profOut != "" {
		rec = prof.NewRecorder()
		cfg.Profiler = rec
	}
	var reg *metrics.Registry
	if *metOut != "" {
		switch *metFmt {
		case "prom", "json", "csv":
		default:
			usageError(fmt.Errorf("unknown metrics format %q (want prom, json or csv)", *metFmt))
		}
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
		cfg.MetricsEvery = *metEvery
	}

	var res logp.Result
	var summary string
	var shardTab []flat.ShardStat
	switch *algo {
	case "broadcast", "sum":
		// Program-form algorithms: run on whichever engine is selected. The
		// flat engine is pinned cycle-identical to the goroutine machine by
		// the cross-engine tests, so the output does not depend on -engine.
	default:
		if engName != "goroutine" {
			usageError(fmt.Errorf("algorithm %q has an imperative (blocking) body and runs only on the goroutine engine; program-form algorithms: broadcast, sum", *algo))
		}
	}
	switch *algo {
	case "broadcast":
		var s *core.BroadcastSchedule
		s, err = core.OptimalBroadcast(params, 0)
		if err != nil {
			fatal(err)
		}
		res, shardTab, err = runProgram(cfg, progs.NewBroadcast(s, 1, "datum"), engName, *shards, *shStats)
		summary = fmt.Sprintf("optimal broadcast: predicted %d, binomial %d, linear %d",
			s.Finish, core.BinomialBroadcastTime(params), core.LinearBroadcastTime(params))
	case "rbcast":
		done := make([]int64, params.P)
		got := make([]any, params.P)
		retr := make([]int, params.P)
		res, err = logp.Run(cfg, func(pr *logp.Proc) {
			e := reliable.New(pr, reliable.Config{})
			v, _ := reliable.Broadcast(e, 0, 1, "datum", pr.Now()+10_000_000)
			done[pr.ID()] = pr.Now()
			got[pr.ID()] = v
			e.Drain(pr.Now() + 4000)
			retr[pr.ID()] = e.Retransmits()
		})
		delivered, retrans := 0, 0
		var last int64
		for i := 0; i < params.P; i++ {
			if got[i] == "datum" {
				delivered++
			}
			if done[i] > last {
				last = done[i]
			}
			retrans += retr[i]
		}
		summary = fmt.Sprintf("reliable broadcast: delivered to %d/%d processors by cycle %d, %d retransmissions",
			delivered, params.P, last, retrans)
	case "sum":
		size := int64(defaultN(*n, 1000))
		deadline := core.MinSumTime(params, size)
		var s *core.SumSchedule
		s, err = core.OptimalSummation(params, deadline)
		if err != nil {
			fatal(err)
		}
		values := make([]float64, s.TotalValues)
		for i := range values {
			values[i] = 1
		}
		var dist [][]float64
		dist, err = collective.DistributeInputs(s, values)
		if err != nil {
			fatal(err)
		}
		res, shardTab, err = runProgram(cfg, progs.NewSum(s, 1, dist), engName, *shards, *shStats)
		summary = fmt.Sprintf("optimal summation of %d values: predicted %d (binary tree %d)",
			s.TotalValues, deadline, core.BinaryTreeSumTime(params, s.TotalValues))
	case "fft":
		size := defaultN(*n, 4096)
		in := randomComplex(size, *seed)
		fcfg := fft.Config{N: size, Machine: cfg, Cost: fft.CM5Cost(), Schedule: fft.StaggeredSchedule}
		var ph fft.Phases
		_, ph, res, err = fft.Run(fcfg, in)
		summary = fmt.Sprintf("hybrid FFT of %d points: cyclic %d + remap %d + blocked %d cycles",
			size, ph.Cyclic, ph.Remap, ph.Blocked)
	case "sort":
		size := defaultN(*n, 4096)
		keys := make([]float64, size)
		rng := rand.New(rand.NewSource(*seed))
		for i := range keys {
			keys[i] = rng.NormFloat64()
		}
		var sa parsort.Algorithm
		switch *sortAlgo {
		case "splitter":
			sa = parsort.Splitter
		case "bitonic":
			sa = parsort.Bitonic
		case "column":
			sa = parsort.Column
		default:
			usageError(fmt.Errorf("unknown sort algorithm %q (want splitter, bitonic or column)", *sortAlgo))
		}
		var st parsort.Stats
		_, st, err = parsort.Run(parsort.Config{Machine: cfg, Algo: sa}, keys)
		res.Time = st.Time
		res.Messages = st.Messages
		summary = fmt.Sprintf("%v sort of %d keys: %d messages, largest chunk %d", sa, size, st.Messages, st.MaxChunk)
	case "lu":
		size := defaultN(*n, 64)
		var lay lu.Layout
		switch *layout {
		case "column":
			lay = lu.ColumnCyclic
		case "blocked":
			lay = lu.BlockedGrid
		case "scattered":
			lay = lu.ScatteredGrid
		default:
			usageError(fmt.Errorf("unknown layout %q (want column, blocked or scattered)", *layout))
		}
		a := lu.Random(size, *seed)
		var perm []int
		var f *lu.Dense
		f, perm, res, err = lu.Run(lu.Config{Machine: cfg, Layout: lay}, a)
		if err == nil {
			summary = fmt.Sprintf("LU %dx%d (%v): residual %.2e", size, size, lay, lu.ResidualPALU(a, f, perm))
		}
	case "matmul":
		size := defaultN(*n, 32)
		a := lu.Random(size, *seed)
		bm := lu.Random(size, *seed+1)
		var got *lu.Dense
		got, res, err = matmul.Run(matmul.Config{Machine: cfg, Algo: matmul.SUMMA}, a, bm)
		if err == nil {
			summary = fmt.Sprintf("SUMMA matmul %dx%d: max error %.2e vs sequential", size, size, got.MaxAbsDiff(a.Mul(bm)))
		}
	case "stencil":
		size := defaultN(*n, 32)
		rng := rand.New(rand.NewSource(*seed))
		grid := make([][]float64, size)
		for i := range grid {
			grid[i] = make([]float64, size)
			for j := range grid[i] {
				grid[i][j] = rng.Float64()
			}
		}
		var st stencil.Stats
		_, st, err = stencil.Run(stencil.Config{Machine: cfg, N: size, Iterations: 8}, grid)
		res.Time = st.Time
		res.Messages = st.Messages
		if err == nil {
			summary = fmt.Sprintf("jacobi %dx%d, 8 iterations: %d halo messages, comm share %.0f%%",
				size, size, st.Messages, st.CommFraction*100)
		}
	case "cc":
		size := defaultN(*n, 512)
		gph := cc.RandomGraph(size, size*8, *seed)
		var st cc.Stats
		var labels []int
		labels, st, err = cc.Run(cc.Config{Machine: cfg, Mode: cc.CombiningMode}, gph)
		res.Time = st.Time
		res.Messages = st.Messages
		if err == nil {
			summary = fmt.Sprintf("connected components of G(%d,%d): %d components in %d rounds",
				size, size*8, cc.CountComponents(labels), st.Rounds)
		}
	default:
		usageError(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := emitCLIResponse(*algo, params, *n, *nocap, *seed, tierSpec, res, reg, *metOut, *metFmt); err != nil {
			fatal(err)
		}
		return
	}

	if *nocap {
		fmt.Printf("machine: %v  (capacity limit off)\n", params)
	} else {
		fmt.Printf("machine: %v  (capacity %d msgs in transit)\n", params, params.Capacity())
	}
	if tierSpec != nil {
		fmt.Printf("topology: %s  (base L,o,g = cluster tier)\n", tierSpec)
	}
	fmt.Println(summary)
	fmt.Printf("simulated time: %d cycles, %d messages\n", res.Time, res.Messages)
	if cfg.Faults != nil {
		fmt.Printf("faults: %d dropped, %d duplicated", res.Dropped, res.Duplicated)
		if len(res.Failed) > 0 {
			fmt.Printf(", fail-stopped procs %v", res.Failed)
		}
		fmt.Println()
	}
	if len(res.Procs) > 0 {
		fmt.Printf("efficiency: %.1f%% of processor-cycles computing, %d cycles stalled\n",
			res.BusyFraction()*100, res.TotalStall())
	}
	if *shStats && shardTab != nil {
		printShardStats(os.Stdout, shardTab)
	}
	if *traceIt && res.Trace != nil {
		unit := res.Time / 120
		if unit < 1 {
			unit = 1
		}
		fmt.Println()
		fmt.Print(res.Trace.Gantt(params.P, unit))
		printUtilization(res, params.P)
	}
	if rec != nil {
		if err := writeProfile(rec, *profOut); err != nil {
			fatal(err)
		}
	}
	if reg != nil {
		if err := writeMetrics(reg, *metOut, *metFmt); err != nil {
			fatal(err)
		}
	}
}

// runProgram executes a program-form algorithm on the selected engine. An
// explicit -shards count or -shardstats builds the flat machine directly
// (with the flight recorder wired in for -shardstats); otherwise the
// registered engine (which consults LOGP_SHARDS itself) runs it. The shard
// table is nil unless recording was requested.
func runProgram(cfg logp.Config, prog logp.Program, engName string, shards int, record bool) (logp.Result, []flat.ShardStat, error) {
	if shards > 1 || record {
		if shards < 1 {
			shards = 1
		}
		m, err := flat.New(cfg, prog, shards)
		if err != nil {
			return logp.Result{}, nil, err
		}
		if record {
			m.EnableFlightRecorder()
		}
		res, err := m.Run()
		return res, m.ShardStats(), err
	}
	e, err := logp.EngineByName(engName)
	if err != nil {
		return logp.Result{}, nil, err
	}
	res, err := e.Run(cfg, prog)
	return res, nil, err
}

// printShardStats renders the flight-recorder table of a recorded flat run:
// per-shard event traffic, the wheel/heap insertion split, barrier merges,
// and the busy vs barrier-wait wall-clock split.
func printShardStats(w io.Writer, stats []flat.ShardStat) {
	fmt.Fprintln(w, "\nshard  procs  windows    events     wheel      heap   merged   busy(ms)  wait(ms)  wait%")
	for _, st := range stats {
		frac := 0.0
		if total := st.BusyNs + st.BarrierWaitNs; total > 0 {
			frac = float64(st.BarrierWaitNs) / float64(total) * 100
		}
		fmt.Fprintf(w, "%5d  %5d  %7d  %8d  %8d  %8d  %7d  %9.3f  %8.3f  %5.1f\n",
			st.Shard, st.Procs, st.Windows, st.Events, st.WheelEvents, st.HeapEvents,
			st.MergedIn, float64(st.BusyNs)/1e6, float64(st.BarrierWaitNs)/1e6, frac)
	}
}

// runServiceJSON executes a registry program through service.Run — the exact
// spec→response path logpsimd serves — and prints the canonical body. The
// same flags therefore produce the same bytes locally, on either -engine,
// and from the daemon, and the printed spec_hash addresses the daemon's
// cache directly.
func runServiceJSON(algo string, params core.Params, n int, engName string, shards int,
	nocap bool, seed int64, tierSpec *topo.Spec, faults *logp.FaultPlan, metOut, metFmt string, metEvery int64) error {
	spec := service.JobSpec{
		Program: algo,
		N:       n,
		Machine: service.MachineSpec{P: params.P, L: params.L, O: params.O, G: params.G, NoCapacity: nocap, Topology: tierSpec},
		Engine:  engName, // the engine service.Run executes; the body does not name it
		Shards:  shards,
		Seed:    seed,
		Faults:  serviceFaults(faults),
	}
	if metOut != "" {
		spec.Metrics = &service.MetricsSpec{Include: true, Every: metEvery}
	}
	resp, err := service.Run(spec)
	if err != nil {
		return err
	}
	body, err := resp.Encode()
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(body); err != nil {
		return err
	}
	if metOut != "" && resp.Metrics != nil {
		return writeSnapshot(*resp.Metrics, metOut, metFmt)
	}
	return nil
}

// emitCLIResponse renders an imperative (CLI-only) algorithm's result in the
// service response encoding. These algorithms are not in the daemon's program
// registry, so the response carries no spec hash — it is not cache-addressable.
func emitCLIResponse(algo string, params core.Params, n int,
	nocap bool, seed int64, tierSpec *topo.Spec, res logp.Result, reg *metrics.Registry, metOut, metFmt string) error {
	resp := &service.Response{
		Spec: service.JobSpec{
			Program: algo,
			N:       n,
			Machine: service.MachineSpec{P: params.P, L: params.L, O: params.O, G: params.G, NoCapacity: nocap, Topology: tierSpec},
			Seed:    seed,
		},
		Result: service.ResultJSON{
			Time:             res.Time,
			Messages:         res.Messages,
			MaxInTransitFrom: res.MaxInTransitFrom,
			MaxInTransitTo:   res.MaxInTransitTo,
			Dropped:          res.Dropped,
			Duplicated:       res.Duplicated,
			Failed:           res.Failed,
			Undelivered:      res.Undelivered,
		},
	}
	if reg != nil {
		snap := reg.Snapshot()
		resp.Metrics = &snap
	}
	body, err := resp.Encode()
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(body); err != nil {
		return err
	}
	if reg != nil && metOut != "" {
		return writeSnapshot(reg.Snapshot(), metOut, metFmt)
	}
	return nil
}

// serviceFaults converts a CLI fault plan to the spec form.
func serviceFaults(plan *logp.FaultPlan) *service.FaultSpec {
	if plan == nil {
		return nil
	}
	fs := &service.FaultSpec{
		Seed: plan.Seed, Drop: plan.Default.Drop, Dup: plan.Default.Dup, Jitter: plan.Default.Jitter,
	}
	for _, f := range plan.FailStops {
		fs.Fails = append(fs.Fails, service.FailStopSpec{Proc: f.Proc, At: f.At})
	}
	return fs
}

// writeSnapshot exports an already-taken snapshot to a file.
func writeSnapshot(snap metrics.Snapshot, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(emitMetrics(f, snap, format), f.Close())
}

// writeMetrics exports the registry snapshot in the requested format to path
// ("-" = stdout). Multi-machine algorithms reset the registry per run, so the
// snapshot describes the last machine executed.
func writeMetrics(reg *metrics.Registry, path, format string) error {
	snap := reg.Snapshot()
	if path == "-" {
		return emitMetrics(os.Stdout, snap, format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close explicitly: a failed flush must not be silently discarded,
	// or a truncated metrics file would be reported as success.
	return errors.Join(emitMetrics(f, snap, format), f.Close())
}

// emitMetrics writes the snapshot in the requested format.
func emitMetrics(w io.Writer, snap metrics.Snapshot, format string) error {
	switch format {
	case "prom":
		return metrics.WritePrometheus(w, snap)
	case "json":
		return metrics.WriteJSON(w, snap)
	case "csv":
		return metrics.WriteCSV(w, snap)
	}
	return fmt.Errorf("unknown metrics format %q", format)
}

// writeProfile analyzes the recorded run (the last machine run, for
// algorithms that build several), prints the critical-path accounting and
// exports the Chrome trace.
func writeProfile(rec *prof.Recorder, path string) error {
	run, err := rec.Analyze()
	if err != nil {
		return err
	}
	cp := run.CriticalPath()
	fmt.Println()
	fmt.Print(cp)
	fmt.Println(cp.Attribution())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := run.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("chrome trace written to %s (open chrome://tracing or https://ui.perfetto.dev and load it)\n", path)
	return nil
}

func defaultN(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

func randomComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "logpsim:", err)
	os.Exit(1)
}

// usageError reports a bad flag value with the full usage text and the
// conventional flag-error exit status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "logpsim:", err)
	fmt.Fprintln(os.Stderr)
	flag.Usage()
	os.Exit(2)
}

// faultPlan assembles a logp.FaultPlan from the fault flags, or nil when no
// fault flag was set (keeping the machine on its zero-overhead path).
func faultPlan(drop, dup float64, jitter int64, failAt string, seed int64) (*logp.FaultPlan, error) {
	if drop == 0 && dup == 0 && jitter == 0 && failAt == "" {
		return nil, nil
	}
	plan := &logp.FaultPlan{
		Seed:    seed,
		Default: logp.LinkFault{Drop: drop, Dup: dup, Jitter: jitter},
	}
	if failAt != "" {
		for _, item := range strings.Split(failAt, ",") {
			procStr, atStr, ok := strings.Cut(item, "@")
			var proc int
			var at int64
			var err1, err2 error
			if ok {
				proc, err1 = strconv.Atoi(strings.TrimSpace(procStr))
				at, err2 = strconv.ParseInt(strings.TrimSpace(atStr), 10, 64)
			}
			if !ok || err1 != nil || err2 != nil {
				return nil, fmt.Errorf("-fail %q: want comma-separated proc@cycle entries", item)
			}
			plan.FailStops = append(plan.FailStops, logp.FailStop{Proc: proc, At: at})
		}
	}
	return plan, nil
}

// printUtilization renders the per-processor activity split of a traced run.
func printUtilization(res logp.Result, procs int) {
	u := res.Trace.Utilization(procs)
	fmt.Println("\nutilization (compute / send-o / recv-o / stall / idle):")
	for p := 0; p < procs; p++ {
		fmt.Printf("  P%-3d %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
			p, u[p][0]*100, u[p][1]*100, u[p][2]*100, u[p][3]*100, u[p][4]*100)
	}
}

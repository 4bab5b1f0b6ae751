package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/stats"
)

// probeOps is how many distinct ops the traced run submits, between two
// forced GCs, to measure the heap the daemon retains per job.
const probeOps = 16

// execTolerance is the factor within which the replay's progs.build +
// flat.new + flat.run (or logp.run) should match the server's execute
// stage for the same specs.
const execTolerance = 2.0

// runTraced is the per-layer run. It makes two passes over the first half
// of the op list, each on a fresh daemon: an untraced one and a traced one,
// whose difference in op latency is the tracing overhead. It then replays a
// sample of the ops' specs through each layer's public functions.
func runTraced(cfg runConfig) (*report, error) {
	half := max(cfg.ops/2-(cfg.ops/2)%cfg.w.period, cfg.w.period)
	timed, warm := cfg.w.generate(cfg.seed, cfg.ops)
	ops := timed[:half]
	one := cfg
	one.setups = 1
	rep := &report{log: cfg.log}

	s, err := setUp(one, warm)
	if err != nil {
		return nil, err
	}
	u := timedPass(one, s, ops, rep, nil)
	s.d.close()

	s, err = setUp(one, warm)
	if err != nil {
		return nil, err
	}
	retained, err := poolProbe(cfg, s)
	if err != nil {
		s.d.close()
		return nil, err
	}
	st0 := s.d.srv.Stats()
	acq0, err := poolAcquires(s.d)
	if err != nil {
		s.d.close()
		return nil, err
	}
	tr := newTracer()
	t := timedPass(one, s, ops, rep, tr)
	st1 := s.d.srv.Stats()
	acq1, err := poolAcquires(s.d)
	if err != nil {
		s.d.close()
		return nil, err
	}
	postChecks(s, ops, t, rep)
	s.d.close()
	rep.digest = digestOf(t.digests)
	runtime.GC()

	ls, err := replay(cfg, tr, ops, t)
	if err != nil {
		return nil, err
	}

	// Service: what the client waited for beyond the server's stages, and
	// the stages themselves, over the traced pass.
	var httpUs, queue, exec []float64
	for i := range ops {
		sum, by := stageSum(t.headers[i].Get("X-Logpsimd-Timing"))
		httpUs = append(httpUs, (t.lat[i]-float64(sum))/1e3)
		if ops[i].path == "/v1/jobs" {
			queue = append(queue, float64(by["cache"])/1e3)
			exec = append(exec, float64(by["execute"])/1e3)
			// The server's stages must fit inside the client's latency.
			var fails []string
			if float64(sum) > t.lat[i] {
				fails = append(fails, fmt.Sprintf("server stages %.0f µs exceed client latency %.0f µs",
					float64(sum)/1e3, t.lat[i]/1e3))
			}
			rep.check(fmt.Sprintf("op %d (%s) stages", i, ops[i].class), fails)
		}
	}
	rep.add("service.http_us", mean(httpUs), "us", len(httpUs))
	rep.add("service.queue_us", mean(queue), "us", len(queue))
	rep.add("service.execute_us", mean(exec), "us", len(exec))
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / 1e3 / float64(n)
	}
	rep.add("service.normalize_us", per(ls.normalize, ls.specs), "us", ls.specs)
	rep.add("service.hash_us", per(ls.hash, ls.specs), "us", ls.specs)
	rep.add("service.cache_hit_us", per(ls.cacheHit, ls.specs), "us", ls.specs)
	rep.add("service.decode_response_us", per(ls.decode, ls.specs), "us", ls.specs)
	rep.add("service.encode_us", per(ls.enc, ls.specs), "us", ls.specs)
	rep.add("service.run_us", per(ls.run, ls.specs), "us", ls.specs)
	rep.add("service.body_kb", ratio(float64(ls.bodyB)/1024, ls.specs), "KB", ls.specs)
	lookups := (st1.Cache.Hits + st1.Cache.Coalesced + st1.Cache.Misses) - (st0.Cache.Hits + st0.Cache.Coalesced + st0.Cache.Misses)
	hits := (st1.Cache.Hits + st1.Cache.Coalesced) - (st0.Cache.Hits + st0.Cache.Coalesced)
	rep.add("service.cache_hit_ratio", ratio(float64(hits), int(lookups)), "ratio", int(lookups))
	rep.add("service.cache_evictions", float64(st1.Cache.Evictions-st0.Cache.Evictions), "count", len(ops))
	rep.add("service.pool_reuse_ratio", ratio(float64(st1.MachineReuses-st0.MachineReuses), int(acq1-acq0)), "ratio", int(acq1-acq0))
	rep.add("service.pool_retained_mb", retained, "MB", probeOps)

	for _, name := range progs.Names() {
		rep.add("progs.build_us."+name, per(ls.build[name], ls.builds[name]), "us", ls.builds[name])
	}
	rep.add("core.sum_schedule_us", per(ls.sumSched, ls.sums), "us", ls.sums)

	rep.add("flat.new_us", per(ls.flatNew, ls.flatRuns), "us", ls.flatRuns)
	rep.add("flat.run_us", per(ls.flatRun, ls.flatRuns), "us", ls.flatRuns)
	rep.add("flat.rerun_us", per(ls.flatRerun, ls.flatRuns), "us", ls.flatRuns)
	rep.add("flat.ns_per_event", ratio(float64(ls.flatRun), int(ls.events)), "ns", int(ls.events))
	rep.add("flat.events_per_msg", ratio(float64(ls.events), int(ls.flatMsgs)), "ratio", int(ls.flatMsgs))
	rep.add("flat.heap_insert_ratio", ratio(float64(ls.heap), int(ls.heap+ls.wheel)), "ratio", int(ls.heap+ls.wheel))
	rep.add("flat.alloc_mb_per_run", ratio(float64(ls.flatAllocB)/(1<<20), ls.flatRuns), "MB", ls.flatRuns)

	rep.add("logp.run_us", per(ls.logpRun, ls.logpRuns), "us", ls.logpRuns)
	rep.add("logp.ns_per_msg", ratio(float64(ls.logpRun), int(ls.logpMsgs)), "ns", int(ls.logpMsgs))

	rep.add("metrics.overhead_us", per(ls.metricsOn-ls.metricsOff, ls.specs), "us", ls.specs)
	rep.add("metrics.body_kb", ratio(float64(ls.metricsBodyB)/1024, ls.specs), "KB", ls.specs)
	rep.add("topo.overhead_us", per(ls.tiersOn-ls.tiersOff, ls.tierPairs), "us", ls.tierPairs)

	rep.add("runtime.gc_cycles_per_op", ratio(float64(u.gcCycles), len(ops)), "count", len(ops))
	rep.add("runtime.gc_cpu_frac", u.gcCPU, "ratio", len(ops))

	rep.add("sim.messages", ratio(float64(t.messages), len(ops)), "count", len(ops))
	rep.add("sim.cycles", ratio(float64(t.cycles), len(ops)), "count", len(ops))

	rep.add("trace.overhead_us", (median(t.lat)-median(u.lat))/1e3, "us", len(ops))
	execRatio := ratio(float64(ls.replayExec), int(ls.serverExec))
	rep.add("replay.execute_ratio", execRatio, "ratio", ls.execOps)
	if ls.execOps > 0 {
		// The replay runs alone while the server ran beside a second client
		// and a host whose speed varies, so agreement is loose.
		verdict := "within"
		if execRatio < 1/execTolerance || execRatio > execTolerance {
			verdict = "OUTSIDE"
		}
		fmt.Fprintf(cfg.log, "replay build+new+run / server execute = %.3f over %d job ops: %s the tolerance factor %g\n",
			execRatio, ls.execOps, verdict, execTolerance)
	}

	tr.summarize(cfg.log)
	if cfg.spansOut != "" {
		if err := tr.write(cfg.spansOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.log, "spans: %d written to %s\n", len(tr.spans), cfg.spansOut)
	}
	return rep, nil
}

// replay runs a sample of the traced ops' specs through each layer. The
// stride is coprime with every digit of the workloads' class counters, so
// a short sample still covers every program and engine.
func replay(cfg runConfig, tr *tracer, ops []op, t *phase) (*layerSums, error) {
	ls := &layerSums{build: map[string]time.Duration{}, builds: map[string]int{}}
	for j := 0; j < min(cfg.w.replay, len(ops)); j++ {
		i := (7 * j) % len(ops)
		o := &ops[i]
		var serverExec time.Duration
		if o.path == "/v1/jobs" {
			_, by := stageSum(t.headers[i].Get("X-Logpsimd-Timing"))
			serverExec = by["execute"]
		}
		for _, spec := range o.specs {
			if err := replaySpec(tr, i, spec, serverExec, ls); err != nil {
				return nil, fmt.Errorf("replaying op %d (%s): %w", i, o.class, err)
			}
		}
	}
	return ls, nil
}

// poolProbe submits probeOps distinct ops from past the timed range between
// two forced GCs and returns the heap growth per op that the cache does not
// account for: what the machine pool retains.
func poolProbe(cfg runConfig, s *session) (float64, error) {
	probe := make([]op, probeOps)
	for k := range probe {
		probe[k] = cfg.w.gen(cfg.seed, cfg.ops+1000+k)
	}
	heap0 := settledHeap()
	c0 := s.d.srv.Stats().Cache.Bytes
	var err error
	s.d.drive(probe, 1, func(i int, r reply, e error) {
		if e == nil && r.status != http.StatusOK {
			e = fmt.Errorf("status %d: %.200s", r.status, r.body)
		}
		if e != nil && err == nil {
			err = fmt.Errorf("pool probe op %d: %w", i, e)
		}
	})
	heap1 := settledHeap()
	c1 := s.d.srv.Stats().Cache.Bytes
	grown := float64(heap1) - float64(heap0) - float64(c1-c0)
	return grown / probeOps / (1 << 20), err
}

// poolAcquires reads the machine pool's lookup counter from /metrics.
func poolAcquires(d *daemon) (int64, error) {
	const name = "logpsimd_machine_pool_acquires_total"
	r, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", name, err)
			}
			return int64(n), nil
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

func ratio(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, 0.5)
}

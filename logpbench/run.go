package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/logp-model/logp/internal/stats"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	w      *workload
	seed   uint64
	ops    int // timed ops
	setups int // set-ups timed for setup_s; the last one serves the run
	// spansOut is where the traced run writes its spans ("" = nowhere).
	spansOut string
	log      io.Writer // failure lines and the traced run's span table
}

// metric is one reported number with its unit and the samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is what a run prints: its metrics in order, the op and check
// counts, and the run metadata.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	digest    string // SHA-256 over every op's sim-time outcome, in op order
	log       io.Writer
	printed   int // FAIL lines printed so far
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// check counts one attempted op or check; when it failed, it counts the
// failure and prints each reason with the op (the first 50 lines only).
func (r *report) check(what string, fails []string) {
	r.attempted++
	if len(fails) == 0 {
		return
	}
	r.failed++
	for _, f := range fails {
		if r.printed < 50 {
			fmt.Fprintf(r.log, "FAIL %s: %s\n", what, f)
		}
		r.printed++
	}
}

// session is one daemon after its set-up.
type session struct {
	d      *daemon
	heap0  uint64    // heap after input generation, before any set-up
	setupS []float64 // seconds of each timed set-up
	// sweeps maps a sweep request body to its set-up reply: the body every
	// hot reply must repeat, its parsed outcome and that parse's failures.
	sweeps map[string]*setupSweep
}

type setupSweep struct {
	body   []byte
	out    simOutcome
	digest [32]byte
	fails  []string
}

// setUp starts the daemon cfg.setups times — each from a fresh server,
// through the workload's warm-up to a forced GC — and keeps the last one.
// Input generation is not counted.
func setUp(cfg runConfig, warm []op) (*session, error) {
	s := &session{heap0: settledHeap()}
	bodies := make([][]byte, len(warm))
	for k := 0; k < max(cfg.setups, 1); k++ {
		if s.d != nil {
			s.d.close()
			s.d = nil
		}
		runtime.GC() // the previous server's heap is not this set-up's work
		t0 := time.Now()
		d, err := startDaemon(cfg.w.clients)
		if err != nil {
			return nil, err
		}
		s.d = d
		for i := range warm {
			r, err := d.do(http.MethodPost, warm[i].path, warm[i].body)
			if err == nil && r.status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			if err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up request %d (%s): %w", i, warm[i].class, err)
			}
			bodies[i] = r.body
		}
		runtime.GC()
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
	}
	s.sweeps = map[string]*setupSweep{}
	for i := range warm {
		if warm[i].path == "/v1/sweep" {
			out, fails := parseSweep(&warm[i], bodies[i])
			s.sweeps[string(warm[i].body)] = &setupSweep{body: bodies[i], out: out,
				digest: sha256.Sum256(mustJSON(out)), fails: fails}
		}
	}
	return s, nil
}

// phase is the measurement of one timed pass over the ops.
type phase struct {
	lat      []float64 // ns per op, in op order
	elapsed  time.Duration
	allocB   uint64 // bytes allocated by the whole process
	gcCycles uint32
	gcCPU    float64 // GC share of all CPU time the process used
	messages int64   // simulated messages in the replies
	cycles   int64
	liveMB   float64        // heap growth from before set-up to after the pass
	digests  [][32]byte     // per-op sim-time outcome digests
	first    map[string]int // class → first op index of that class
	outcome  map[int]simOutcome
	headers  []http.Header // per-op reply headers (traced runs only)
}

// timedPass drives ops against the session's daemon, checks every reply and
// measures the pass. A non-nil tr records each op's spans, and the pass
// keeps each reply's headers for the traced run's stage metrics.
func timedPass(cfg runConfig, s *session, ops []op, rep *report, tr *tracer) *phase {
	n := len(ops)
	ph := &phase{lat: make([]float64, n), digests: make([][32]byte, n),
		first: map[string]int{}, outcome: map[int]simOutcome{}}
	if tr != nil {
		ph.headers = make([]http.Header, n)
	}
	fails := make([][]string, n)
	var mu sync.Mutex
	var msgs, cycles int64

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	handle := func(i int, r reply, err error) {
		o := &ops[i]
		ph.lat[i] = float64(r.latency)
		if err != nil {
			fails[i] = []string{err.Error()}
			return
		}
		if tr != nil {
			ph.headers[i] = r.header
			tr.op(i, r)
		}
		var out simOutcome
		if o.path == "/v1/jobs" {
			out, fails[i] = checkJob(o, r, "miss")
			ph.digests[i] = sha256.Sum256(mustJSON(out))
		} else {
			ss := s.sweeps[string(o.body)]
			out = ss.out
			fails[i] = append(checkSweep(o, r, ss.body), ss.fails...)
			ph.digests[i] = ss.digest
		}
		mu.Lock()
		msgs += out.messages()
		cycles += out.cycles()
		if _, ok := ph.first[o.class]; !ok {
			ph.first[o.class] = i
			ph.outcome[i] = out
		}
		mu.Unlock()
	}
	ph.elapsed = s.d.drive(ops, cfg.w.clients, handle)
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	ph.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	if d := cpu1.total - cpu0.total; d > 0 {
		ph.gcCPU = (cpu1.gc - cpu0.gc) / d
	}
	ph.messages, ph.cycles = msgs, cycles
	ph.liveMB = (float64(settledHeap()) - float64(s.heap0)) / (1 << 20)
	for i := range ops {
		what := fmt.Sprintf("op %d (%s)", i, ops[i].class)
		if ops[i].err != nil {
			fails[i] = append(fails[i], ops[i].err.Error())
		}
		rep.check(what, fails[i])
	}
	return ph
}

// settledHeap is the live heap after two forced GCs: the second frees what
// the first only moved into sync.Pool victim caches.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTimes reads the process's cumulative GC and total CPU seconds.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// endToEnd adds the end-to-end metrics of an untraced pass.
func endToEnd(rep *report, w *workload, ph *phase, setupS []float64) {
	n := len(ph.lat)
	sec := ph.elapsed.Seconds()
	sorted := append([]float64(nil), ph.lat...)
	sort.Float64s(sorted)
	ms := func(q float64) float64 { return stats.Quantile(sorted, q) / 1e6 }
	rep.add("req_per_s", float64(n)/sec, "1/s", n)
	rep.add("latency_p50_ms", ms(0.50), "ms", n)
	rep.add("latency_p90_ms", ms(0.90), "ms", n)
	rep.add("latency_tail_ms", ms(w.tail), "ms", n)
	rep.add("sim_msgs_per_s", float64(ph.messages)/sec, "1/s", n)
	rep.add("alloc_mb_per_op", float64(ph.allocB)/float64(n)/(1<<20), "MB", n)
	rep.add("live_heap_mb", ph.liveMB, "MB", 1)
	rep.add("setup_s", median(setupS), "s", len(setupS))
}

// digestOf folds the per-op digests, in op order, into one hex digest.
func digestOf(ds [][32]byte) string {
	h := sha256.New()
	for i := range ds {
		h.Write(ds[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// postChecks runs the checks that follow the timed pass: every sweep point's
// full body, one cross-engine re-run per (program, engine) class, and the
// paper's anchors on both engines.
func postChecks(s *session, ops []op, ph *phase, rep *report) {
	classes := make([]string, 0, len(ph.first))
	for c := range ph.first {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		i := ph.first[c]
		o := &ops[i]
		if o.path == "/v1/jobs" {
			out := ph.outcome[i]
			if out.Result == nil {
				rep.check("cross-engine "+c, []string{"no result to compare"})
				continue
			}
			rep.check("cross-engine "+c, crossEngine(o.specs[0], *out.Result, out.Output))
			continue
		}
		for j := range o.specs {
			what := fmt.Sprintf("op %d (%s) point %d", i, c, j)
			r, err := s.d.do(http.MethodGet, "/v1/jobs/"+o.hashes[j], nil)
			if err != nil {
				rep.check(what, []string{err.Error()})
				continue
			}
			point := op{specs: o.specs[j : j+1], hashes: o.hashes[j : j+1]}
			out, fails := checkJob(&point, r, "hit")
			rep.check(what, fails)
			if j == 0 && out.Result != nil {
				rep.check("cross-engine "+c, crossEngine(o.specs[j], *out.Result, out.Output))
			}
		}
	}
	for _, a := range anchors {
		for _, engine := range []string{"goroutine", "flat"} {
			spec := a.spec
			spec.Engine = engine
			what := a.name + "/" + engine
			o := jobOp(spec)
			r, err := s.d.do(http.MethodPost, o.path, o.body)
			if err != nil {
				rep.check(what, []string{err.Error()})
				continue
			}
			out, fails := checkJob(&o, r, "")
			if out.Result != nil && out.Result.Time != a.cycle {
				fails = append(fails, fmt.Sprintf("finished at %d cycles, want %d", out.Result.Time, a.cycle))
			}
			rep.check(what, fails)
		}
	}
}

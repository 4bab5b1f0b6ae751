// Command logpbench is the repository benchmark: it hosts the logpsimd
// service in-process behind a loopback listener and drives one of three
// closed-loop workloads against it — jobs-cold (every job a cache miss),
// sweep-hot (every sweep point a cache hit) and sim-large (a P=256 flat
// all-to-all per op) — checking every reply and printing the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced run.
//
// Usage, from the repository root:
//
//	bash logpbench/run.sh --workload jobs-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See logpbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 20, "nominal length of the timed phase; fixes the op count")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spans   = flag.String("spans-dir", ".bench_build", "traced run: directory for the span file; empty for none")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "logpbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, ops: w.opCount(*seconds), setups: 5, log: os.Stdout}
	if *spans != "" {
		cfg.spansOut = filepath.Join(*spans, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "logpbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "logpbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runUntraced is the end-to-end run: set-ups, one timed pass, the
// post-pass checks.
func runUntraced(cfg runConfig) (*report, error) {
	timed, warm := cfg.w.generate(cfg.seed, cfg.ops)
	s, err := setUp(cfg, warm)
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	rep := &report{log: cfg.log}
	ph := timedPass(cfg, s, timed, rep, nil)
	endToEnd(rep, cfg.w, ph, s.setupS)
	postChecks(s, timed, ph, rep)
	rep.add("ok_ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	rep.digest = digestOf(ph.digests)
	return rep, nil
}

// print writes the metadata, one line per metric, and the result object as
// the last line.
func (r *report) print(out io.Writer, cfg runConfig, trace int) error {
	meta := map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"ops":        cfg.ops,
		"clients":    cfg.w.clients,
		"setups":     cfg.setups,
		"tail":       cfg.w.tail,
		"sim_digest": r.digest,
	}
	b, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "metric %-28s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		ms[m.name] = value{m.value, m.unit}
	}
	b, err = json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

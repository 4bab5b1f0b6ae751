// Command figures regenerates every table and figure of the paper's
// evaluation and prints the data plus the qualitative checks that encode
// each figure's shape.
//
// Usage:
//
//	figures              # run everything at the default scale
//	figures -id fig6     # one experiment
//	figures -scale 4     # larger problem sizes (closer to the paper's)
//	figures -par 1       # force sequential execution
//	figures -list        # list experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/logp-model/logp/internal/experiments"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/topo"
)

func main() {
	id := flag.String("id", "", "run a single experiment by id")
	scale := flag.Int("scale", 1, "problem-size scale (1 = fast default, 4+ = paper-sized machine)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	out := flag.String("out", "", "also write each report to <dir>/<id>.txt")
	par := flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS; results are identical at any setting)")
	profDir := flag.String("prof", "", "also write Chrome trace_event JSON of the Figure 3/4 schedule runs to this directory")
	metOut := flag.String("metrics", "", "write harness telemetry (per-experiment wall time) to this file, \"-\" = stdout; also prints progress to stderr")
	metFmt := flag.String("metrics-format", "prom", "telemetry output format: prom | json | csv")
	tier := flag.String("tier", "", "node tier for the hiertree study: node=<ppn>:<L>,<o>,<g> (the experiment sweeps the cluster tier itself; other experiments ignore it)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "figures: unexpected argument %q (all options are flags)\n\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	opts := experiments.Options{Scale: experiments.Scale(*scale), Workers: *par}
	if *tier != "" {
		spec, err := topo.ParseSpec(*tier)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n\n", err)
			flag.Usage()
			os.Exit(2)
		}
		opts.Tier = spec
	}

	cat := experiments.Catalog()
	if *list {
		for _, e := range cat {
			fmt.Println(e.ID)
		}
		return
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}
	if *profDir != "" {
		if err := os.MkdirAll(*profDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if err := experiments.WriteProfTraces(*profDir); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}

	var obs []experiments.Observation
	var obsMu sync.Mutex
	var observe func(experiments.Observation)
	if *metOut != "" {
		switch *metFmt {
		case "prom", "json", "csv":
		default:
			fmt.Fprintf(os.Stderr, "figures: unknown metrics format %q (want prom, json or csv)\n\n", *metFmt)
			flag.Usage()
			os.Exit(2)
		}
		// The observer runs on the harness worker goroutines as experiments
		// finish (completion order, not catalog order).
		observe = func(o experiments.Observation) {
			obsMu.Lock()
			obs = append(obs, o)
			done := len(obs)
			obsMu.Unlock()
			fmt.Fprintf(os.Stderr, "figures: [%d/%d] %s done in %v\n", done, o.Total, o.ID, o.Wall.Round(time.Millisecond))
		}
	}

	var reports []experiments.Report
	if *id == "" {
		reports = experiments.RunAll(opts, observe)
	} else {
		found := false
		for i, e := range cat {
			if e.ID == *id {
				start := time.Now()
				reports = append(reports, e.Run(opts))
				found = true
				if *metOut != "" {
					obs = append(obs, experiments.Observation{ID: e.ID, Index: i, Total: 1, Wall: time.Since(start)})
				}
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q; known ids:\n", *id)
			for _, e := range cat {
				fmt.Fprintf(os.Stderr, "  %s\n", e.ID)
			}
			os.Exit(2)
		}
	}
	failures := 0
	for _, rep := range reports {
		fmt.Println(rep.String())
		if *out != "" {
			path := filepath.Join(*out, rep.ID+".txt")
			if err := os.WriteFile(path, []byte(rep.String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		}
		failures += len(rep.Failed())
	}
	if *metOut != "" {
		if err := writeTelemetry(obs, reports, *metOut, *metFmt); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d check(s) failed\n", failures)
		os.Exit(1)
	}
}

// writeTelemetry exports the harness's own metrics — per-experiment wall
// time, counts of experiments and failed checks — as a hand-built metrics
// snapshot in the chosen format.
func writeTelemetry(obs []experiments.Observation, reports []experiments.Report, path, format string) error {
	sort.Slice(obs, func(i, j int) bool { return obs[i].Index < obs[j].Index })
	wall := metrics.Family{
		Name: "figures_experiment_wall_seconds",
		Help: "Wall-clock time each experiment generator took.",
		Kind: "gauge",
	}
	var total float64
	for _, o := range obs {
		secs := o.Wall.Seconds()
		total += secs
		wall.Points = append(wall.Points, metrics.Point{
			Labels: []metrics.Label{{Name: "id", Value: o.ID}},
			Value:  secs,
		})
	}
	failed := 0
	for _, rep := range reports {
		failed += len(rep.Failed())
	}
	snap := metrics.Snapshot{Families: []metrics.Family{
		{Name: "figures_experiments_total", Help: "Experiments executed.", Kind: "gauge",
			Points: []metrics.Point{{Value: float64(len(reports))}}},
		{Name: "figures_failed_checks_total", Help: "Qualitative checks that failed.", Kind: "gauge",
			Points: []metrics.Point{{Value: float64(failed)}}},
		{Name: "figures_wall_seconds_total", Help: "Summed generator wall time (not elapsed time: experiments run concurrently).", Kind: "gauge",
			Points: []metrics.Point{{Value: total}}},
		wall,
	}}
	if path == "-" {
		return emitTelemetry(os.Stdout, snap, format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close explicitly: a failed flush must not be silently discarded,
	// or a truncated metrics file would be reported as success.
	return errors.Join(emitTelemetry(f, snap, format), f.Close())
}

// emitTelemetry writes the snapshot in the requested format.
func emitTelemetry(w io.Writer, snap metrics.Snapshot, format string) error {
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

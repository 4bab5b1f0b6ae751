package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/progs"
)

// WhatIf validates the causal profiler's what-if re-costing against direct
// simulation: record one run of a program, replay the recorded DAG under a
// sweep of altered parameters, and compare the predicted makespans with
// fresh simulations of the same program at each sweep point. For programs
// whose operation sequence does not depend on message timing (the optimal
// broadcast and summation schedules) the prediction is exact; for the
// timing-adaptive all-to-all exchange it is an approximation, reported with
// its measured error. The experiment also prints the base run's
// critical-path attribution — the paper's Figure 3 accounting, recovered
// mechanically.
func WhatIf() Report {
	base := core.Params{P: 8, L: 6, O: 2, G: 4}
	var b strings.Builder
	checks := []Check{}

	// The swept machines: L, o and g each move both ways from the base.
	sweep := []core.Params{
		{P: 8, L: 2, O: 2, G: 4},
		{P: 8, L: 12, O: 2, G: 4},
		{P: 8, L: 20, O: 2, G: 4},
		{P: 8, L: 6, O: 1, G: 4},
		{P: 8, L: 6, O: 4, G: 4},
		{P: 8, L: 6, O: 2, G: 2},
		{P: 8, L: 6, O: 2, G: 6},
		{P: 8, L: 20, O: 1, G: 8},
	}
	// Small single-parameter moves (≤50%): the regime where replay of a
	// timing-adaptive program is still a useful estimate. Wider moves are
	// shown in the table but not gated — the live program re-orders its
	// sends and receives, which the recorded DAG cannot anticipate.
	moderate := []core.Params{
		{P: 8, L: 9, O: 2, G: 4},
		{P: 8, L: 6, O: 3, G: 4},
		{P: 8, L: 6, O: 2, G: 3},
		{P: 8, L: 6, O: 2, G: 5},
	}

	type program struct {
		name  string
		exact bool
		run   func(cfg logp.Config) (logp.Result, error)
	}
	bcast, err := core.OptimalBroadcast(base, 0)
	if err != nil {
		return Report{ID: "whatif", Checks: []Check{check("broadcast schedule built", false, "%v", err)}}
	}
	sum, err := core.OptimalSummation(base, 28)
	if err != nil {
		return Report{ID: "whatif", Checks: []Check{check("summation schedule built", false, "%v", err)}}
	}
	values := make([]float64, sum.TotalValues)
	for i := range values {
		values[i] = 1
	}
	dist, err := sum.Distribute(values)
	if err != nil {
		return Report{ID: "whatif", Checks: []Check{check("inputs distributed", false, "%v", err)}}
	}
	const perPair = 4
	programs := []program{
		{"broadcast", true, func(cfg logp.Config) (logp.Result, error) {
			return logp.RunProgram(cfg, progs.NewBroadcast(bcast, 1, nil))
		}},
		{"tree-sum", true, func(cfg logp.Config) (logp.Result, error) {
			return logp.RunProgram(cfg, progs.NewSum(sum, 1, dist))
		}},
		{"all-to-all", false, func(cfg logp.Config) (logp.Result, error) {
			return logp.Run(cfg, func(p *logp.Proc) {
				c := make([]int, p.P())
				for d := range c {
					if d != p.ID() {
						c[d] = perPair
					}
				}
				collective.AllToAll(p, collective.Staggered, 1, c,
					func(dst, k int) any { return nil }, perPair*(p.P()-1), 2)
			})
		}},
	}

	fmt.Fprintf(&b, "record once on %v, replay the DAG under altered parameters,\n", base)
	b.WriteString("and compare with fresh simulations of the same program:\n\n")
	for _, prog := range programs {
		rec := prof.NewRecorder()
		res, err := prog.run(logp.Config{Params: base, Profiler: rec})
		if err != nil {
			return Report{ID: "whatif", Checks: []Check{check(prog.name+" recorded", false, "%v", err)}}
		}
		fmt.Fprintf(&b, "%s (base makespan %d):\n", prog.name, res.Time)
		fmt.Fprintf(&b, "  %-28s %9s %9s %7s\n", "machine", "predicted", "simulated", "error")
		rows := sweep
		if !prog.exact {
			rows = append(append([]core.Params{}, moderate...), sweep...)
		}
		exact := true
		var worst, worstModerate float64
		for ri, alt := range rows {
			cfg := rec.BaseConfig()
			cfg.Params = alt
			cfg.UseRecordedLatency = false
			pred, err := rec.Replay(cfg)
			if err != nil {
				return Report{ID: "whatif", Checks: []Check{check(prog.name+" replayed", false, "%v", err)}}
			}
			fresh, err := prog.run(logp.Config{Params: alt})
			if err != nil {
				return Report{ID: "whatif", Checks: []Check{check(prog.name+" simulated", false, "%v", err)}}
			}
			relErr := math.Abs(float64(pred.Makespan-fresh.Time)) / float64(fresh.Time)
			if relErr > worst {
				worst = relErr
			}
			if ri < len(moderate) && relErr > worstModerate {
				worstModerate = relErr
			}
			if pred.Makespan != fresh.Time {
				exact = false
			}
			fmt.Fprintf(&b, "  %-28v %9d %9d %6.1f%%\n", alt, pred.Makespan, fresh.Time, 100*relErr)
		}
		if prog.exact {
			checks = append(checks, check(prog.name+" replay exact across the sweep", exact,
				"worst error %.1f%%", 100*worst))
		} else {
			checks = append(checks, check(prog.name+" replay within 15% for small parameter moves",
				worstModerate <= 0.15, "worst error %.1f%% (%.1f%% across the wide sweep)",
				100*worstModerate, 100*worst))
		}
		b.WriteByte('\n')
	}

	// The base broadcast's critical path, the Figure 3 accounting.
	rec := prof.NewRecorder()
	if _, err := programs[0].run(logp.Config{Params: base, Profiler: rec}); err != nil {
		return Report{ID: "whatif", Checks: []Check{check("broadcast recorded", false, "%v", err)}}
	}
	run, err := rec.Analyze()
	if err != nil {
		return Report{ID: "whatif", Checks: []Check{check("broadcast analyzed", false, "%v", err)}}
	}
	cp := run.CriticalPath()
	a := cp.Attribution()
	b.WriteString("critical path of the recorded broadcast (Figure 3 accounting):\n")
	b.WriteString(cp.String())
	b.WriteString(a.String())
	b.WriteByte('\n')
	checks = append(checks,
		check("broadcast critical path tiles the makespan", cp.Contiguous() == nil, "%v", cp.Contiguous()),
		check("Figure 3 accounting: o=10 L=12 g=2 of 24", a.Makespan == 24 && a.Overhead == 10 && a.Latency == 12 && a.Gap == 2,
			"makespan %d: o=%d L=%d g=%d", a.Makespan, a.Overhead, a.Latency, a.Gap))

	return Report{
		ID:     "whatif",
		Title:  "What-if re-costing: replayed DAG vs direct simulation",
		Text:   b.String(),
		Checks: checks,
	}
}

// WriteProfTraces records the paper's two schedule figures — the optimal
// broadcast of Figure 3 and the optimal summation of Figure 4 — under the
// causal profiler and writes their Chrome trace_event JSON exports to
// <dir>/fig3.trace.json and <dir>/fig4.trace.json (cmd/figures -prof).
func WriteProfTraces(dir string) error {
	write := func(name string, params core.Params, prog logp.Program) error {
		rec := prof.NewRecorder()
		if _, err := logp.RunProgram(logp.Config{Params: params, Profiler: rec}, prog); err != nil {
			return err
		}
		run, err := rec.Analyze()
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := run.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	fig3 := core.Params{P: 8, L: 6, O: 2, G: 4}
	bcast, err := core.OptimalBroadcast(fig3, 0)
	if err != nil {
		return err
	}
	if err := write("fig3.trace.json", fig3, progs.NewBroadcast(bcast, 1, nil)); err != nil {
		return err
	}

	fig4 := core.Params{P: 8, L: 5, O: 2, G: 4}
	sum, err := core.OptimalSummation(fig4, 28)
	if err != nil {
		return err
	}
	values := make([]float64, sum.TotalValues)
	for i := range values {
		values[i] = 1
	}
	dist, err := sum.Distribute(values)
	if err != nil {
		return err
	}
	return write("fig4.trace.json", fig4, progs.NewSum(sum, 1, dist))
}

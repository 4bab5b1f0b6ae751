package experiments

import (
	"fmt"
	"math/rand"

	"github.com/logp-model/logp/internal/algo/cc"
	"github.com/logp-model/logp/internal/algo/lu"
	parsort "github.com/logp-model/logp/internal/algo/sort"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/models"
	"github.com/logp-model/logp/internal/stats"
)

// simMachine is the moderate machine used by the algorithm studies (the
// CM-5 ratios scaled down so that simulated runs stay fast).
func simMachine(p int) logp.Config {
	return logp.Config{Params: core.Params{P: p, L: 20, O: 4, G: 8}}
}

// LULayouts regenerates the Section 4.2.1 study: factorization time and
// communication volume for the column-cyclic, blocked-grid and
// scattered-grid layouts. The paper's conclusions: the grid layouts cut
// communication by about sqrt(P); the blocked grid loses to load imbalance;
// the scattered grid wins — "the fastest Linpack benchmark programs
// actually employ a scattered grid layout".
func LULayouts(opts Options) Report {
	n := 32 * opts.Scale.clamp()
	P := 16
	a := lu.Random(n, 77)
	tb := stats.Table{Header: []string{"layout", "sim time", "max msgs recvd", "compute max/min", "residual ok"}}
	times := map[lu.Layout]int64{}
	recvs := map[lu.Layout]int{}
	spreads := map[lu.Layout]float64{}
	for _, layout := range []lu.Layout{lu.ColumnCyclic, lu.BlockedGrid, lu.ScatteredGrid} {
		f, perm, res, err := lu.Run(lu.Config{Machine: simMachine(P), Layout: layout}, a.Clone())
		if err != nil {
			return Report{ID: "lu", Checks: []Check{check(layout.String(), false, "%v", err)}}
		}
		maxR := 0
		minC, maxC := int64(1)<<62, int64(0)
		for _, s := range res.Procs {
			if s.MsgsReceived > maxR {
				maxR = s.MsgsReceived
			}
			if s.Compute < minC {
				minC = s.Compute
			}
			if s.Compute > maxC {
				maxC = s.Compute
			}
		}
		if minC == 0 {
			minC = 1
		}
		resid := lu.ResidualPALU(a, f, perm)
		times[layout] = res.Time
		recvs[layout] = maxR
		spreads[layout] = float64(maxC) / float64(minC)
		tb.Add(layout.String(), res.Time, maxR, spreads[layout], resid < 1e-9*float64(n))
	}
	text := tb.String()
	text += fmt.Sprintf("\nn=%d, P=%d; grid receives %.1fx less than column; scattered beats blocked by %.2fx\n",
		n, P, float64(recvs[lu.ColumnCyclic])/float64(recvs[lu.ScatteredGrid]),
		float64(times[lu.BlockedGrid])/float64(times[lu.ScatteredGrid]))
	return Report{
		ID:    "lu",
		Title: "LU decomposition layouts (Section 4.2.1)",
		Text:  text,
		Checks: []Check{
			check("grid layout communicates less than column", recvs[lu.ScatteredGrid] < recvs[lu.ColumnCyclic], "%d vs %d", recvs[lu.ScatteredGrid], recvs[lu.ColumnCyclic]),
			check("scattered grid beats blocked grid", times[lu.ScatteredGrid] < times[lu.BlockedGrid], "%d vs %d", times[lu.ScatteredGrid], times[lu.BlockedGrid]),
			check("blocked grid shows load imbalance", spreads[lu.BlockedGrid] > 2*spreads[lu.ScatteredGrid], "spread %.1f vs %.1f", spreads[lu.BlockedGrid], spreads[lu.ScatteredGrid]),
		},
	}
}

// SortComparison regenerates the Section 4.2.2 study: splitter sort's
// compute-remap-compute pattern versus bitonic sort's oblivious exchanges,
// across per-processor chunk sizes.
func SortComparison(opts Options) Report {
	P := 8
	sizes := []int{512, 2048, 8192}
	for i := range sizes {
		sizes[i] *= opts.Scale.clamp()
	}
	rng := rand.New(rand.NewSource(3))
	var xs, split, bitonic, column []float64
	for _, n := range sizes {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.NormFloat64()
		}
		run := func(algo parsort.Algorithm) float64 {
			_, st, err := parsort.Run(parsort.Config{Machine: simMachine(P), Algo: algo}, keys)
			if err != nil {
				return -1
			}
			return float64(st.Time)
		}
		xs = append(xs, float64(n))
		split = append(split, run(parsort.Splitter))
		bitonic = append(bitonic, run(parsort.Bitonic))
		column = append(column, run(parsort.Column))
	}
	text := stats.CSV("keys",
		stats.Series{Name: "splitter_cycles", X: xs, Y: split},
		stats.Series{Name: "bitonic_cycles", X: xs, Y: bitonic},
		stats.Series{Name: "column_cycles", X: xs, Y: column},
	)
	last := len(xs) - 1
	text += fmt.Sprintf("\nat n=%d: splitter %.0f vs column %.0f vs bitonic %.0f cycles\n", int(xs[last]), split[last], column[last], bitonic[last])
	return Report{
		ID:    "sort",
		Title: "Parallel sorting: splitter vs column vs bitonic (Section 4.2.2)",
		Text:  text,
		Checks: []Check{
			check("all runs completed", split[last] > 0 && bitonic[last] > 0 && column[last] > 0, ""),
			check("splitter wins at large chunks", split[last] < bitonic[last], "%.0f vs %.0f", split[last], bitonic[last]),
			check("splitter's advantage grows with chunk size", bitonic[last]/split[last] > bitonic[0]/split[0], "%.2f vs %.2f", bitonic[last]/split[last], bitonic[0]/split[0]),
			check("column sort (fixed remaps) beats bitonic's log^2 P exchanges", column[last] < bitonic[last], "%.0f vs %.0f", column[last], bitonic[last]),
		},
	}
}

// CCStudy regenerates the Section 4.2.3 study: contention at component
// representatives, its mitigation by combining, and the compute-bound
// regime on dense graphs.
func CCStudy(opts Options) Report {
	s := opts.Scale.clamp()
	P := 8
	star := cc.Star(256 * s)
	_, naive, err := cc.Run(cc.Config{Machine: simMachine(P), Mode: cc.NaiveMode}, star)
	if err != nil {
		return Report{ID: "cc", Checks: []Check{check("naive", false, "%v", err)}}
	}
	_, comb, err := cc.Run(cc.Config{Machine: simMachine(P), Mode: cc.CombiningMode}, star)
	if err != nil {
		return Report{ID: "cc", Checks: []Check{check("combining", false, "%v", err)}}
	}
	dense := cc.RandomGraph(256*s, 12000*s, 7)
	_, dn, err := cc.Run(cc.Config{Machine: simMachine(P), Mode: cc.CombiningMode}, dense)
	if err != nil {
		return Report{ID: "cc", Checks: []Check{check("dense", false, "%v", err)}}
	}
	sparse := cc.Path(64 * s)
	_, sp, err := cc.Run(cc.Config{Machine: simMachine(P), Mode: cc.CombiningMode}, sparse)
	if err != nil {
		return Report{ID: "cc", Checks: []Check{check("sparse", false, "%v", err)}}
	}
	tb := stats.Table{Header: []string{"workload", "mode", "time", "max recv by a proc", "compute", "comm"}}
	tb.Add("star", "naive", naive.Time, naive.MaxRecvByProc, naive.ComputeCycles, naive.CommCycles)
	tb.Add("star", "combining", comb.Time, comb.MaxRecvByProc, comb.ComputeCycles, comb.CommCycles)
	tb.Add("dense random", "combining", dn.Time, dn.MaxRecvByProc, dn.ComputeCycles, dn.CommCycles)
	tb.Add("path (sparse)", "combining", sp.Time, sp.MaxRecvByProc, sp.ComputeCycles, sp.CommCycles)
	return Report{
		ID:    "cc",
		Title: "Connected components: contention and its mitigation (Section 4.2.3)",
		Text:  tb.String(),
		Checks: []Check{
			check("combining mitigates hub contention", comb.MaxRecvByProc < naive.MaxRecvByProc && comb.Time < naive.Time, "recv %d vs %d", comb.MaxRecvByProc, naive.MaxRecvByProc),
			check("dense graphs are compute-bound", dn.ComputeCycles > dn.CommCycles, "compute %d vs comm %d", dn.ComputeCycles, dn.CommCycles),
			check("sparse graphs are communication-bound", sp.CommCycles > sp.ComputeCycles, "comm %d vs compute %d", sp.CommCycles, sp.ComputeCycles),
		},
	}
}

// ModelComparison regenerates the Section 6 argument quantitatively: the
// predicted broadcast and 10k-value summation times of the four models on
// the CM-5 parameters and on an idealized low-overhead machine.
func ModelComparison() Report {
	machines := []struct {
		name string
		p    core.Params
	}{
		{"CM-5 (ticks)", core.Params{P: 128, L: 200, O: 66, G: 132}},
		{"low-overhead", core.Params{P: 128, L: 20, O: 1, G: 4}},
	}
	tb := stats.Table{Header: []string{"machine", "model", "broadcast", "sum 10k"}}
	var pramB, logpB int64 // on the CM-5 parameters (the first machine)
	bspGEQ, postalGEQ := true, true
	for mi, m := range machines {
		for _, mod := range models.All() {
			b := mod.Broadcast(m.p)
			s := mod.Sum(m.p, 10000)
			tb.Add(m.name, mod.Name(), b, s)
			switch mod.Name() {
			case "PRAM":
				if mi == 0 {
					pramB = b
				}
			case "LogP":
				if mi == 0 {
					logpB = b
				}
				if (models.BSP{}).Broadcast(m.p) < b {
					bspGEQ = false
				}
				if (models.Postal{}).Broadcast(m.p) < b {
					postalGEQ = false
				}
			}
		}
	}
	return Report{
		ID:    "models",
		Title: "Model comparison: PRAM vs Postal vs BSP vs LogP (Section 6)",
		Text:  tb.String(),
		Checks: []Check{
			check("PRAM predicts free communication", pramB <= 1 && logpB > 100*pramB, "%d vs %d", pramB, logpB),
			check("BSP never undercuts the optimal LogP schedule", bspGEQ, ""),
			check("postal never undercuts the optimal LogP schedule", postalGEQ, ""),
		},
	}
}

// CapacityAblation shows why the capacity constraint exists: the naive
// remap's flood pattern with and without the ceil(L/g) limit, and the
// multithreading bound of Section 3.2.
func CapacityAblation() Report {
	params := core.Params{P: 8, L: 24, O: 2, G: 4}
	flood := func(disable bool) (int64, int, int64) {
		cfg := logp.Config{Params: params, DisableCapacity: disable}
		res, err := logp.Run(cfg, func(p *logp.Proc) {
			if p.ID() == 0 {
				for i := 0; i < 7*40; i++ {
					p.Recv()
				}
				return
			}
			for i := 0; i < 40; i++ {
				p.Send(0, 1, i)
			}
		})
		if err != nil {
			return -1, -1, -1
		}
		return res.Time, res.MaxInTransitTo, res.TotalStall()
	}
	tOn, inflightOn, stallOn := flood(false)
	tOff, inflightOff, _ := flood(true)
	tb := stats.Table{Header: []string{"capacity", "time", "max in transit to hub", "stall cycles"}}
	tb.Add("enforced (ceil(L/g)=6)", tOn, inflightOn, stallOn)
	tb.Add("disabled", tOff, inflightOff, int64(0))
	text := tb.String()
	text += fmt.Sprintf("\nmultithreading limit: at most ceil(L/g) = %d virtual processors mask latency (Section 3.2)\n", params.MaxVirtualProcessors())
	return Report{
		ID:    "capacity",
		Title: "Capacity-constraint ablation (Section 3.2 loopholes)",
		Text:  text,
		Checks: []Check{
			check("constraint bounds in-transit count", inflightOn <= params.Capacity(), "%d <= %d", inflightOn, params.Capacity()),
			check("flood stalls senders", stallOn > 0, "%d cycles", stallOn),
			check("disabling it floods the receiver", inflightOff > params.Capacity(), "%d in transit", inflightOff),
		},
	}
}

// BroadcastSweep is the ablation over machine parameters: optimal vs
// binomial vs linear broadcast across a g sweep, showing the optimal
// schedule adapting ("a good algorithm embodies a strategy for adapting to
// different machines").
func BroadcastSweep() Report {
	tb := stats.Table{Header: []string{"params", "optimal", "binomial", "linear", "opt fan-out"}}
	alwaysBest := true
	adapts := false
	var prevFan int
	for _, g := range []int64{1, 4, 16, 64} {
		p := core.Params{P: 64, L: 40, O: 2, G: g}
		s, err := core.OptimalBroadcast(p, 0)
		if err != nil {
			return Report{ID: "bcast-sweep", Checks: []Check{check("schedule", false, "%v", err)}}
		}
		opt := s.Finish
		bin := core.BinomialBroadcastTime(p)
		lin := core.LinearBroadcastTime(p)
		fan := len(s.Sends[0])
		tb.Add(p.String(), opt, bin, lin, fan)
		if opt > bin || opt > lin {
			alwaysBest = false
		}
		if prevFan != 0 && fan != prevFan {
			adapts = true
		}
		prevFan = fan
	}
	return Report{
		ID:    "bcast-sweep",
		Title: "Broadcast schedules across the parameter space (ablation)",
		Text:  tb.String(),
		Checks: []Check{
			check("optimal never loses", alwaysBest, ""),
			check("optimal tree shape adapts to g", adapts, "root fan-out varies"),
		},
	}
}

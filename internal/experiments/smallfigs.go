package experiments

import (
	"fmt"
	"strings"

	"github.com/logp-model/logp/internal/algo/fft"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/machine"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/stats"
)

// Fig2 regenerates the microprocessor performance trend: the SPEC series
// and fitted annual growth rates (~54% integer, ~97% floating point).
func Fig2() Report {
	pts := machine.Figure2()
	tb := stats.Table{Header: []string{"year", "machine", "SPECint", "SPECfp"}}
	years := make([]float64, len(pts))
	ints := make([]float64, len(pts))
	fps := make([]float64, len(pts))
	for i, p := range pts {
		tb.Add(int(p.Year), p.Name, p.Integer, p.FP)
		years[i], ints[i], fps[i] = p.Year, p.Integer, p.FP
	}
	ri, err1 := stats.GrowthRate(years, ints)
	rf, err2 := stats.GrowthRate(years, fps)
	text := tb.String()
	text += fmt.Sprintf("\nfitted growth: integer %.0f%%/year, floating point %.0f%%/year\n", ri*100, rf*100)
	return Report{
		ID:    "fig2",
		Title: "Microprocessor performance 1987-1992 (relative to VAX-11/780)",
		Text:  text,
		Checks: []Check{
			check("fits computed", err1 == nil && err2 == nil, "%v %v", err1, err2),
			check("integer ~54%/yr", ri > 0.45 && ri < 0.62, "fitted %.0f%%", ri*100),
			check("floating point ~97%/yr", rf > 0.85 && rf < 1.10, "fitted %.0f%%", rf*100),
		},
	}
}

// Fig3 regenerates the optimal broadcast tree for P=8, L=6, g=4, o=2,
// executes it on the simulated machine, and renders the activity Gantt of
// the figure's right-hand side.
func Fig3() Report {
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	s, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		return Report{ID: "fig3", Checks: []Check{check("schedule built", false, "%v", err)}}
	}
	cfg := logp.Config{Params: params, CollectTrace: true}
	res, err := logp.RunProgram(cfg, progs.NewBroadcast(s, 1, "datum"))
	if err != nil {
		return Report{ID: "fig3", Checks: []Check{check("executed", false, "%v", err)}}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v  optimal broadcast\n", params)
	fmt.Fprintf(&b, "receive-complete times: %v (finish %d)\n\n", s.RecvTimes(), s.Finish)
	for proc := 0; proc < params.P; proc++ {
		fmt.Fprintf(&b, "P%d informed at %2d, sends at %v\n", proc, s.RecvDone[proc], sendTimes(s, proc))
	}
	b.WriteString("\n" + res.Trace.Gantt(params.P, 1))
	fmt.Fprintf(&b, "\nbaselines: binomial %d, linear %d cycles\n",
		core.BinomialBroadcastTime(params), core.LinearBroadcastTime(params))
	want := []int64{10, 14, 18, 20, 22, 24, 24}
	got := s.RecvTimes()
	match := len(got) == len(want)
	for i := range want {
		if match && got[i] != want[i] {
			match = false
		}
	}
	return Report{
		ID:    "fig3",
		Title: "Optimal broadcast tree, P=8 L=6 g=4 o=2 (completion 24)",
		Text:  b.String(),
		Checks: []Check{
			check("receive times match the figure", match, "got %v", got),
			check("simulated run completes at 24", res.Time == 24, "ran in %d", res.Time),
			check("optimal <= baselines", s.Finish <= core.BinomialBroadcastTime(params) && s.Finish <= core.LinearBroadcastTime(params), "%d vs %d/%d", s.Finish, core.BinomialBroadcastTime(params), core.LinearBroadcastTime(params)),
		},
	}
}

func sendTimes(s *core.BroadcastSchedule, proc int) []int64 {
	out := make([]int64, len(s.Sends[proc]))
	for i, ev := range s.Sends[proc] {
		out[i] = ev.At
	}
	return out
}

// Fig4 regenerates the optimal summation schedule for T=28, P=8, L=5, g=4,
// o=2, executes it, and reports the communication tree.
func Fig4() Report {
	params := core.Params{P: 8, L: 5, O: 2, G: 4}
	s, err := core.OptimalSummation(params, 28)
	if err != nil {
		return Report{ID: "fig4", Checks: []Check{check("schedule built", false, "%v", err)}}
	}
	values := make([]float64, s.TotalValues)
	var want float64
	for i := range values {
		values[i] = float64(i + 1)
		want += values[i]
	}
	dist, err := s.Distribute(values)
	if err != nil {
		return Report{ID: "fig4", Checks: []Check{check("inputs distributed", false, "%v", err)}}
	}
	sum := progs.NewSum(s, 1, dist)
	cfg := logp.Config{Params: params, CollectTrace: true}
	res, err := logp.RunProgram(cfg, sum)
	if err != nil {
		return Report{ID: "fig4", Checks: []Check{check("executed", false, "%v", err)}}
	}
	got := sum.Root
	var b strings.Builder
	fmt.Fprintf(&b, "%v  optimal summation, deadline T=28\n", params)
	fmt.Fprintf(&b, "values summed: %d  (binary-tree baseline needs %d cycles)\n", s.TotalValues, core.BinaryTreeSumTime(params, s.TotalValues))
	fmt.Fprintf(&b, "root children complete at %v; leaves at %v\n\n", s.ChildDeadlines(), s.LeafDeadlines())
	var walk func(n *core.SumNode, depth int)
	walk = func(n *core.SumNode, depth int) {
		fmt.Fprintf(&b, "%sP%d: deadline %2d, %2d local inputs\n", strings.Repeat("  ", depth), n.Proc, n.Deadline, n.LocalInputs)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(s.Root, 0)
	b.WriteString("\n" + res.Trace.Gantt(params.P, 1))
	return Report{
		ID:    "fig4",
		Title: "Optimal summation schedule, T=28 P=8 L=5 g=4 o=2",
		Text:  b.String(),
		Checks: []Check{
			check("tree matches the figure", fmt.Sprint(s.ChildDeadlines()) == "[18 14 10 6]", "children %v", s.ChildDeadlines()),
			check("simulation meets the deadline", res.Time == 28, "ran in %d", res.Time),
			check("sum correct", got == want, "%v vs %v", got, want),
			check("beats balanced binary tree", core.MinSumTime(params, s.TotalValues) <= core.BinaryTreeSumTime(params, s.TotalValues), ""),
		},
	}
}

// Fig5 regenerates the hybrid-layout assignment of the 8-input butterfly on
// two processors: cyclic through column 2, blocked at column 3.
func Fig5() Report {
	n, P := 8, 2
	var b strings.Builder
	b.WriteString("col:  0 1 2 3   (owner of each butterfly node, hybrid layout)\n")
	allMatch := true
	for r := 0; r < n; r++ {
		fmt.Fprintf(&b, "row %d:", r)
		for c := 0; c <= 3; c++ {
			o := fft.Owner(fft.Hybrid, r, c, n, P)
			fmt.Fprintf(&b, " %d", o)
			want := r % 2
			if c == 3 {
				want = r / 4
			}
			if o != want {
				allMatch = false
			}
		}
		b.WriteString("\n")
	}
	hyb, _ := fft.RemoteRefsPerProcessor(fft.Hybrid, 1<<16, 64)
	pure, _ := fft.RemoteRefsPerProcessor(fft.Cyclic, 1<<16, 64)
	fmt.Fprintf(&b, "\nremote refs per processor at n=2^16, P=64: cyclic %d, hybrid %d (%.1fx lower)\n",
		pure, hyb, float64(pure)/float64(hyb))
	return Report{
		ID:    "fig5",
		Title: "8-input butterfly, P=2, hybrid layout (remap between columns 2 and 3)",
		Text:  b.String(),
		Checks: []Check{
			check("assignment matches the figure", allMatch, ""),
			check("hybrid saves ~log P communication", float64(pure)/float64(hyb) > 5, "ratio %.1f", float64(pure)/float64(hyb)),
		},
	}
}

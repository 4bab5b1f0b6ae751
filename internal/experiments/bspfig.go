package experiments

import (
	"fmt"

	"github.com/logp-model/logp/internal/algo/fft"
	"github.com/logp-model/logp/internal/bsp"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/stats"
)

// BSPComparison regenerates the Section 6.3 critique by execution: the same
// FFT as a bulk-synchronous program (log P barrier-synchronized h-relations
// under the cyclic layout) and as the LogP hybrid algorithm (one staggered
// remap, no barriers), both on the simulated CM-5. The BSP execution pays
// the synchronization per superstep and cannot "use a message as soon as it
// arrives"; the LogP program schedules communication precisely.
func BSPComparison(opts Options) Report {
	s := opts.Scale.clamp()
	P := 16
	sizes := []int{1 << 10, 1 << 12, 1 << 14}
	for i := range sizes {
		sizes[i] *= s
	}
	tb := stats.Table{Header: []string{"points", "LogP hybrid", "BSP supersteps", "BSP/LogP"}}
	type point struct {
		logpTime, bspTime int64
		agree             bool
		fail              failure
	}
	points := MapIndexed(opts.Workers, len(sizes), func(i int) point {
		n := sizes[i]
		in := fftInput(n, int64(n))
		cfg := fft.Config{N: n, Machine: fft.CM5Machine(P), Cost: fft.CM5Cost(), Schedule: fft.StaggeredSchedule}
		a, _, logpRes, err := fft.Run(cfg, append([]complex128(nil), in...))
		if err != nil {
			return point{fail: fail("bsp", check("logp run", false, "%v", err))}
		}
		b, bspRes, err := fft.RunBSP(cfg, append([]complex128(nil), in...))
		if err != nil {
			return point{fail: fail("bsp", check("bsp run", false, "%v", err))}
		}
		pt := point{logpTime: logpRes.Time, bspTime: bspRes.Time, agree: true}
		for i := range a {
			d := a[i] - b[i]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-18*float64(n) {
				pt.agree = false
				break
			}
		}
		return pt
	})
	var ratios []float64
	var agree bool = true
	for i, pt := range points {
		if pt.fail.rep != nil {
			return *pt.fail.rep
		}
		if !pt.agree {
			agree = false
		}
		ratio := float64(pt.bspTime) / float64(pt.logpTime)
		ratios = append(ratios, ratio)
		tb.Add(sizes[i], pt.logpTime, pt.bspTime, fmt.Sprintf("%.2fx", ratio))
	}
	// The barrier overhead alone: empty supersteps on the same machine.
	empty, err := bsp.Run(fft.CM5Machine(P), 4, func(st *bsp.Superstep) {})
	if err != nil {
		return Report{ID: "bsp", Checks: []Check{check("empty supersteps", false, "%v", err)}}
	}
	text := tb.String()
	text += fmt.Sprintf("\nfour empty supersteps cost %d cycles of pure synchronization on this machine;\n", empty.Time)
	text += fmt.Sprintf("analytic BSP charge per superstep (w=0, h=%d): %d cycles\n",
		sizes[0]/P, bsp.Cost(core.Params{P: P, L: 200, O: 66, G: 132}, 0, sizes[0]/P))
	last := len(ratios) - 1
	return Report{
		ID:    "bsp",
		Title: "BSP supersteps vs LogP scheduling for the FFT (Section 6.3)",
		Text:  text,
		Checks: []Check{
			check("executions agree numerically", agree, ""),
			check("BSP execution is slower at every size", minOf(ratios) > 1, "min ratio %.2f", minOf(ratios)),
			check("the gap is substantial", ratios[last] > 1.2, "%.2fx", ratios[last]),
			check("empty supersteps still cost synchronization", empty.Time > 0, "%d cycles", empty.Time),
		},
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

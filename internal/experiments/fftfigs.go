package experiments

import (
	"fmt"
	"math/rand"

	"github.com/logp-model/logp/internal/algo/fft"
	"github.com/logp-model/logp/internal/stats"
)

// fftInput builds a deterministic random input.
func fftInput(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// fig6Machine returns the machine size and problem-size sweep for a scale:
// the paper's machine is the full 128-processor CM-5 (we keep P=128, since
// the naive-schedule serialization ratio depends on it); the sweep reaches
// 2^16 points at the default scale instead of 16M, preserving the
// per-processor ratios.
func fig6Machine(scale Scale) (p int, sizes []int) {
	s := scale.clamp()
	p = 128
	base := []int{1 << 14, 1 << 15, 1 << 16}
	for i := range base {
		base[i] *= s
	}
	return p, base
}

// Fig6 regenerates the FFT execution-time figure: local computation versus
// the remap phase under the naive and staggered communication schedules, on
// the CM-5 calibration. The paper's shape: the staggered remap costs about
// 1/7th of the computation, an order of magnitude less than the naive remap
// (>1.5x the computation on the CM-5, whose fat-tree congestion also slows
// traffic to other destinations). In the pure LogP model the naive flood
// stalls senders on the per-destination capacity, and the fair FIFO slot
// arbitration lets the flood self-stagger after a serialized start, so the
// simulated naive penalty settles at ~3x staggered rather than the CM-5's
// ~10x; the orderings and the staggered/compute ratio match the paper.
func Fig6(opts Options) Report {
	P, sizes := fig6Machine(opts.Scale)
	// One sweep item per problem size: both schedules for that size, run
	// concurrently with the other sizes and reassembled in size order.
	type point struct {
		compute, naive, staggered, stallFrac float64
		fail                                 failure
	}
	points := MapIndexed(opts.Workers, len(sizes), func(i int) point {
		n := sizes[i]
		cfg := fft.Config{N: n, Machine: fft.CM5Machine(P), Cost: fft.CM5Cost(), Schedule: fft.StaggeredSchedule}
		_, phS, _, err := fft.Run(cfg, fftInput(n, int64(n)))
		if err != nil {
			return point{fail: fail("fig6", check("staggered run", false, "%v", err))}
		}
		cfg.Schedule = fft.NaiveSchedule
		_, phN, resN, err := fft.Run(cfg, fftInput(n, int64(n)))
		if err != nil {
			return point{fail: fail("fig6", check("naive run", false, "%v", err))}
		}
		comp := float64(phS.Cyclic + phS.Blocked)
		return point{
			compute:   comp * fft.CM5TickNanos / 1e9,
			naive:     float64(phN.Remap) * fft.CM5TickNanos / 1e9,
			staggered: float64(phS.Remap) * fft.CM5TickNanos / 1e9,
			stallFrac: float64(resN.TotalStall()) / float64(phN.Remap*int64(P)),
		}
	})
	var xs, compute, naive, staggered []float64
	var naiveStallFrac float64
	for i, pt := range points {
		if pt.fail.rep != nil {
			return *pt.fail.rep
		}
		xs = append(xs, float64(sizes[i]))
		compute = append(compute, pt.compute)
		naive = append(naive, pt.naive)
		staggered = append(staggered, pt.staggered)
		naiveStallFrac = pt.stallFrac
	}
	text := stats.CSV("points",
		stats.Series{Name: "compute_s", X: xs, Y: compute},
		stats.Series{Name: "naive_remap_s", X: xs, Y: naive},
		stats.Series{Name: "staggered_remap_s", X: xs, Y: staggered},
	)
	last := len(xs) - 1
	text += fmt.Sprintf("\nat n=%d, P=%d: naive/compute = %.1f, staggered/compute = 1/%.1f, naive/staggered = %.0f\n",
		int(xs[last]), P, naive[last]/compute[last], compute[last]/staggered[last], naive[last]/staggered[last])
	return Report{
		ID:    "fig6",
		Title: "FFT execution time: computation vs naive and staggered remap (CM-5 calibration)",
		Text:  text,
		Checks: []Check{
			check("staggered remap well below compute (paper: 1/7)", staggered[last] < compute[last]/3, "1/%.1f", compute[last]/staggered[last]),
			check("naive remap several times staggered", naive[last] > 2.5*staggered[last], "%.1fx", naive[last]/staggered[last]),
			check("naive remap loses a large fraction to contention stalls", naiveStallFrac > 0.25, "%.0f%% of naive processor-cycles stalled", naiveStallFrac*100),
			check("compute grows superlinearly vs remap (n log n vs n)",
				compute[last]/compute[0] > staggered[last]/staggered[0], ""),
		},
	}
}

// Fig7 regenerates the per-processor computation rates of the two local FFT
// phases: the drop from ~2.8 to ~2.2 Mflops once the per-processor working
// set exceeds the 64 KB cache, with the cyclic phase (one large FFT)
// suffering more than the blocked phase (many small FFTs). The sweep uses a
// smaller machine (P=8) so the per-processor working set n/P crosses the
// 64 KB boundary (4096 points) at simulable sizes; the rates are local
// properties and do not depend on P.
func Fig7(opts Options) Report {
	P := 8
	s := opts.Scale.clamp()
	sizes := []int{1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}
	for i := range sizes {
		sizes[i] *= s
	}
	cost := fft.CM5Cost()
	var xs, phase1, phase3 []float64
	k := func(n int) int {
		lg := 0
		for v := n; v > 1; v >>= 1 {
			lg++
		}
		return lg
	}
	lp := k(P)
	type point struct {
		phase1, phase3 float64
		fail           failure
	}
	points := MapIndexed(opts.Workers, len(sizes), func(i int) point {
		n := sizes[i]
		cfg := fft.Config{N: n, Machine: fft.CM5Machine(P), Cost: cost, Schedule: fft.StaggeredSchedule}
		_, ph, _, err := fft.Run(cfg, fftInput(n, int64(n)))
		if err != nil {
			return point{fail: fail("fig7", check("run", false, "%v", err))}
		}
		bflyPerProc := int64(n / P / 2)
		b1 := bflyPerProc * int64(k(n)-lp)
		b3 := bflyPerProc * int64(lp)
		return point{
			phase1: fft.ComputeMflopsPerProc(b1, ph.Cyclic, fft.CM5TickNanos),
			phase3: fft.ComputeMflopsPerProc(b3, ph.Blocked, fft.CM5TickNanos),
		}
	})
	for i, pt := range points {
		if pt.fail.rep != nil {
			return *pt.fail.rep
		}
		xs = append(xs, float64(sizes[i]))
		phase1 = append(phase1, pt.phase1)
		phase3 = append(phase3, pt.phase3)
	}
	text := stats.CSV("points",
		stats.Series{Name: "phase1_mflops", X: xs, Y: phase1},
		stats.Series{Name: "phase3_mflops", X: xs, Y: phase3},
	)
	// Find the in-cache and out-of-cache plateaus of phase I.
	small, large := phase1[0], phase1[len(phase1)-1]
	large3 := phase3[len(phase3)-1]
	text += fmt.Sprintf("\nphase I: %.2f Mflops in cache, %.2f out of cache; phase III ends at %.2f\n", small, large, large3)
	return Report{
		ID:    "fig7",
		Title: "FFT per-processor computation rates (cache capacity knee)",
		Text:  text,
		Checks: []Check{
			check("in-cache rate ~2.8 Mflops", small > 2.6 && small < 3.0, "%.2f", small),
			check("out-of-cache cyclic rate ~2.2 Mflops", large > 2.0 && large < 2.4, "%.2f", large),
			check("blocked phase suffers less than cyclic", large3 > large, "%.2f vs %.2f", large3, large),
		},
	}
}

// Fig8 regenerates the remap communication-rate figure: MB/s per processor
// for the naive, staggered, synchronized (barrier per destination chunk) and
// double-network schedules, against the o-bound prediction 16B /
// max(1us+2o, g) = 3.2 MB/s. Processors carry systematic speed skew and
// timing noise, so the staggered schedule drifts out of sync and droops as
// the problem grows; the barrier variant pays per-chunk overhead at small
// sizes but holds the rate up once chunks amortize it (the paper's barriers
// come every n/P^2 = 1024 messages at 16M points; our scaled chunks are far
// smaller, so the crossover happens inside the sweep); doubling the network
// (halving g) lifts the deterministic rate by only ~13% — the paper's 15% —
// because the interface overhead o and loop processing dominate.
func Fig8(opts Options) Report {
	P := 128
	s := opts.Scale.clamp()
	sizes := []int{1 << 14, 1 << 15, 1 << 16, 1 << 17}
	for i := range sizes {
		sizes[i] *= s
	}
	type variant struct {
		name   string
		sched  fft.RemapSchedule
		halveG bool
		clean  bool // no jitter: the deterministic reference
	}
	variants := []variant{
		{name: "naive", sched: fft.NaiveSchedule},
		{name: "staggered", sched: fft.StaggeredSchedule},
		{name: "synchronized", sched: fft.SynchronizedSchedule},
		{name: "double_net", sched: fft.StaggeredSchedule, halveG: true},
		{name: "deterministic", sched: fft.StaggeredSchedule, clean: true},
	}
	series := make([]stats.Series, 0, len(variants)+1)
	rates := map[string][]float64{}
	var xs []float64
	for _, n := range sizes {
		xs = append(xs, float64(n))
	}
	// Flatten the variant x size grid into one sweep: 20 independent
	// simulations, each with its own machine seeded only by (variant, n).
	type cell struct {
		rate float64
		fail failure
	}
	cells := MapIndexed(opts.Workers, len(variants)*len(sizes), func(i int) cell {
		v := variants[i/len(sizes)]
		n := sizes[i%len(sizes)]
		m := fft.CM5Machine(P)
		if !v.clean {
			m.ComputeJitter = 0.02 // local timing noise
			m.ProcSkew = 0.10      // systematic per-node speed differences
			m.LatencyJitter = 10
			m.Seed = int64(n)
		}
		m.BarrierCost = 33 // ~1us hardware barrier
		if v.halveG {
			m.Params = m.Params.WithG(m.Params.G / 2)
		}
		cfg := fft.Config{N: n, Machine: m, Cost: fft.CM5Cost(), Schedule: v.sched}
		_, ph, _, err := fft.Run(cfg, fftInput(n, int64(n)))
		if err != nil {
			return cell{fail: fail("fig8", check(v.name, false, "%v", err))}
		}
		return cell{rate: ph.RemapRateMBps(fft.CM5TickNanos)}
	})
	for vi, v := range variants {
		ys := make([]float64, 0, len(sizes))
		for si := range sizes {
			c := cells[vi*len(sizes)+si]
			if c.fail.rep != nil {
				return *c.fail.rep
			}
			ys = append(ys, c.rate)
		}
		rates[v.name] = ys
		series = append(series, stats.Series{Name: v.name + "_MBps", X: xs, Y: ys})
	}
	predicted := make([]float64, len(xs))
	for i := range predicted {
		predicted[i] = 3.2
	}
	series = append(series, stats.Series{Name: "predicted_MBps", X: xs, Y: predicted})
	text := stats.CSV("points", series...)
	last := len(xs) - 1
	stag := rates["staggered"]
	sync := rates["synchronized"]
	dbl := rates["double_net"]
	naive := rates["naive"]
	det := rates["deterministic"]
	text += fmt.Sprintf("\nat n=%d: staggered %.2f, synchronized %.2f, double-net %.2f, naive %.2f, deterministic %.2f MB/s (predicted 3.2)\n",
		int(xs[last]), stag[last], sync[last], dbl[last], naive[last], det[last])
	return Report{
		ID:    "fig8",
		Title: "Remap communication rates per processor (drift, barriers, double network)",
		Text:  text,
		Checks: []Check{
			check("nothing beats the o-bound prediction", maxOf(stag, sync, dbl, det) <= 3.3, "max %.2f", maxOf(stag, sync, dbl, det)),
			check("staggered droops as processors drift", stag[last] < stag[0]*0.95, "%.2f -> %.2f", stag[0], stag[last]),
			check("synchronizing barriers hold the rate up at scale", sync[last] > stag[last] && sync[last] > sync[0], "%.2f vs %.2f", sync[last], stag[last]),
			check("double network gains only ~15% over the deterministic rate (o dominates)",
				dbl[last] > det[last] && dbl[last] < det[last]*1.25, "+%.0f%%", (dbl[last]/det[last]-1)*100),
			check("naive schedule is far below", naive[last] < stag[last]/1.5, "%.2f vs %.2f", naive[last], stag[last]),
		},
	}
}

func maxOf(seqs ...[]float64) float64 {
	m := 0.0
	for _, s := range seqs {
		for _, v := range s {
			if v > m {
				m = v
			}
		}
	}
	return m
}

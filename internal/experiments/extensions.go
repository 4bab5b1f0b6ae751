package experiments

import (
	"fmt"
	"math/rand"

	"github.com/logp-model/logp/internal/algo/fft"
	"github.com/logp-model/logp/internal/algo/lu"
	"github.com/logp-model/logp/internal/algo/matmul"
	"github.com/logp-model/logp/internal/algo/stencil"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/stats"
	"github.com/logp-model/logp/internal/vp"
)

// Multithreading regenerates the Section 3.2 latency-masking argument: one
// physical processor hosting V virtual processors that issue remote round
// trips. Throughput rises with V while the request pipeline fills and
// saturates at the bandwidth bound 1/g once about RTT/g virtual processors
// are in flight; context-switch costs (which the base model deliberately
// does not charge) erode the technique.
func Multithreading(opts Options) Report {
	m := logp.Config{Params: core.Params{P: 9, L: 64, O: 1, G: 8}}
	rtt := 2 * m.Params.PointToPoint()
	vstar := int(rtt / m.Params.SendInterval())
	sweep := []int{1, 2, 4, vstar / 2, vstar, 2 * vstar}
	base := vp.Config{Machine: m, RequestsPerVP: 30, WorkPerReply: 1}
	// Each VP count is an independent machine run (vp.Sweep unrolled onto
	// the parallel runner).
	type vpOut struct {
		res vp.Result
		err error
	}
	outs := MapIndexed(opts.Workers, len(sweep), func(i int) vpOut {
		c := base
		c.VPs = sweep[i]
		r, err := vp.Run(c)
		return vpOut{res: r, err: err}
	})
	results := make([]vp.Result, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return Report{ID: "multithreading", Checks: []Check{check("sweep", false, "%v", o.err)}}
		}
		results[i] = o.res
	}
	tb := stats.Table{Header: []string{"virtual procs", "throughput (req/cycle)", "vs 1 VP", "capacity stalls"}}
	var tput []float64
	var stalls []int64
	for i, r := range results {
		tb.Add(sweep[i], fmt.Sprintf("%.4f", r.Throughput), fmt.Sprintf("%.1fx", r.Throughput/results[0].Throughput), r.Stall)
		tput = append(tput, r.Throughput)
		stalls = append(stalls, r.Stall)
	}
	// With an expensive context switch, the gains shrink (Section 6.3's
	// critique of PRAM-style parallel slackness).
	costly := base
	costly.ContextSwitchCost = 40
	costly.VPs = vstar
	cres, err := vp.Run(costly)
	if err != nil {
		return Report{ID: "multithreading", Checks: []Check{check("costly run", false, "%v", err)}}
	}
	ceiling := 1 / float64(m.Params.SendInterval())
	text := tb.String()
	text += fmt.Sprintf("\nsaturation at ~RTT/g = %d VPs; bandwidth bound 1/g = %.4f req/cycle\n", vstar, ceiling)
	text += fmt.Sprintf("with a 40-cycle context switch at %d VPs: %.4f req/cycle\n", vstar, cres.Throughput)
	atStar := tput[len(tput)-2]
	beyond := tput[len(tput)-1]
	return Report{
		ID:    "multithreading",
		Title: "Latency masking by multithreading and its limits (Section 3.2)",
		Text:  text,
		Checks: []Check{
			check("throughput rises while the pipeline fills", tput[2] > 2*tput[0], "4 VPs %.4f vs 1 VP %.4f", tput[2], tput[0]),
			check("saturates near the bandwidth bound 1/g", atStar > ceiling*0.8 && atStar <= ceiling*1.01, "%.4f vs %.4f", atStar, ceiling),
			check("no gain beyond the pipeline limit", beyond <= atStar*1.1, "%.4f vs %.4f", beyond, atStar),
			check("oversubscription does not collapse (launch stalls are brief)", beyond >= atStar*0.8 && stalls[0] == 0, "%.4f vs %.4f, stalls %v", beyond, atStar, stalls),
			check("context switching erodes the technique", cres.Throughput < atStar*0.8, "%.4f vs %.4f", cres.Throughput, atStar),
		},
	}
}

// SurfaceToVolume regenerates the Section 6.4 argument against network
// models: "wherever problems have a local, regular communication pattern,
// such as stencil calculation on a grid, it is easy to lay the data out so
// that only a diminishing fraction of the communication is external ...
// the interprocessor communication diminishes like the surface to volume
// ratio". A Jacobi stencil and a SUMMA matrix multiply are swept over
// per-processor problem sizes; the communication share falls toward zero,
// and the 2D matmul decomposition beats the 1D one by about sqrt(P)/2 in
// communication volume.
func SurfaceToVolume(opts Options) Report {
	s := opts.Scale.clamp()
	m := logp.Config{Params: core.Params{P: 4, L: 20, O: 4, G: 8}}
	tb := stats.Table{Header: []string{"workload", "n", "comm share"}}
	sizes := []int{8 * s, 16 * s, 48 * s}
	type point struct {
		stencilFrac, matmulFrac float64
		fail                    failure
	}
	points := MapIndexed(opts.Workers, len(sizes), func(i int) point {
		n := sizes[i]
		rng := rand.New(rand.NewSource(int64(n)))
		g := make([][]float64, n)
		for i := range g {
			g[i] = make([]float64, n)
			for j := range g[i] {
				g[i][j] = rng.Float64()
			}
		}
		_, st, err := stencil.Run(stencil.Config{Machine: m, N: n, Iterations: 4}, g)
		if err != nil {
			return point{fail: fail("surface", check("stencil", false, "%v", err))}
		}
		a, b := lu.Random(n, int64(n)), lu.Random(n, int64(n)+1)
		_, res, err := matmul.Run(matmul.Config{Machine: m, Algo: matmul.SUMMA}, a, b)
		if err != nil {
			return point{fail: fail("surface", check("matmul", false, "%v", err))}
		}
		return point{stencilFrac: st.CommFraction, matmulFrac: 1 - res.BusyFraction()}
	})
	var stencilFracs, matmulFracs []float64
	for i, pt := range points {
		if pt.fail.rep != nil {
			return *pt.fail.rep
		}
		tb.Add("jacobi stencil", sizes[i], fmt.Sprintf("%.1f%%", pt.stencilFrac*100))
		stencilFracs = append(stencilFracs, pt.stencilFrac)
		tb.Add("summa matmul", sizes[i], fmt.Sprintf("%.1f%%", pt.matmulFrac*100))
		matmulFracs = append(matmulFracs, pt.matmulFrac)
	}
	// 1D vs 2D matmul communication volume at a fixed size. Each run draws
	// its own copies of the (deterministic) operand matrices, so the two
	// algorithms can run concurrently without sharing them.
	n := 32 * s
	m16 := logp.Config{Params: core.Params{P: 16, L: 20, O: 4, G: 8}}
	maxRecv := func(alg matmul.Algorithm) int {
		a, b := lu.Random(n, 5), lu.Random(n, 6)
		_, res, err := matmul.Run(matmul.Config{Machine: m16, Algo: alg}, a, b)
		if err != nil {
			return -1
		}
		max := 0
		for _, ps := range res.Procs {
			if ps.MsgsReceived > max {
				max = ps.MsgsReceived
			}
		}
		return max
	}
	algos := []matmul.Algorithm{matmul.RowBroadcast, matmul.SUMMA}
	recvs := MapIndexed(opts.Workers, len(algos), func(i int) int { return maxRecv(algos[i]) })
	rows, summa := recvs[0], recvs[1]
	text := tb.String()
	text += fmt.Sprintf("\nmatmul communication per processor at n=%d, P=16: 1D rows %d words, 2D SUMMA %d words (%.1fx)\n",
		n, rows, summa, float64(rows)/float64(summa))
	last := len(stencilFracs) - 1
	return Report{
		ID:    "surface",
		Title: "Surface-to-volume: communication share vs problem size (Section 6.4)",
		Text:  text,
		Checks: []Check{
			check("stencil communication share shrinks", stencilFracs[last] < stencilFracs[0], "%.2f -> %.2f", stencilFracs[0], stencilFracs[last]),
			check("matmul communication share shrinks", matmulFracs[last] < matmulFracs[0], "%.2f -> %.2f", matmulFracs[0], matmulFracs[last]),
			check("large problems are compute-bound", stencilFracs[last] < 0.35 && matmulFracs[last] < 0.35, "stencil %.2f, matmul %.2f", stencilFracs[last], matmulFracs[last]),
			check("2D decomposition communicates ~sqrt(P)/2 less", float64(rows)/float64(summa) > 1.5, "%.1fx", float64(rows)/float64(summa)),
		},
	}
}

// LongMessages regenerates the Section 5.4 discussion: bulk transfers with
// and without a network DMA coprocessor. Without one, the overhead o is
// paid per word; with one, setup costs o once and the stream overlaps
// computation — which "can at best double the performance of each node".
func LongMessages(opts Options) Report {
	params := core.Params{P: 2, L: 200, O: 66, G: 132} // the CM-5 calibration
	const k = 64
	tb := stats.Table{Header: []string{"mode", "k-word transfer", "sender engaged", "balanced-workload time"}}

	measure := func(cop bool) (total, engaged, balanced int64) {
		c := logp.Config{Params: params, Coprocessor: cop}
		res, err := logp.Run(c, func(p *logp.Proc) {
			if p.ID() == 0 {
				p.SendBulk(1, 0, nil, k)
				return
			}
			p.Recv()
		})
		if err != nil {
			return -1, -1, -1
		}
		total = res.Time
		engaged = res.Procs[0].SendOverhead
		// Balanced workload: rounds of one k-word send plus equal compute.
		work := int64(k) * params.O
		resB, err := logp.Run(c, func(p *logp.Proc) {
			if p.ID() == 0 {
				for r := 0; r < 10; r++ {
					p.SendBulk(1, 0, nil, k)
					p.Compute(work)
				}
				return
			}
			for r := 0; r < 10; r++ {
				p.Recv()
			}
		})
		if err != nil {
			return -1, -1, -1
		}
		return total, engaged, resB.Time
	}
	type mOut struct{ total, engaged, balanced int64 }
	modes := MapIndexed(opts.Workers, 2, func(i int) mOut {
		t, e, b := measure(i == 1)
		return mOut{t, e, b}
	})
	pioTotal, pioEngaged, pioBalanced := modes[0].total, modes[0].engaged, modes[0].balanced
	dmaTotal, dmaEngaged, dmaBalanced := modes[1].total, modes[1].engaged, modes[1].balanced
	tb.Add("PIO (o per word)", pioTotal, pioEngaged, pioBalanced)
	tb.Add("DMA coprocessor", dmaTotal, dmaEngaged, dmaBalanced)
	text := tb.String()
	speedup := float64(pioBalanced) / float64(dmaBalanced)
	logGP := 2*params.O + int64(k-1)*params.G + params.L
	text += fmt.Sprintf("\nDMA transfer time = 2o+(k-1)g+L = %d; balanced-workload speedup %.2fx (at best 2x)\n", logGP, speedup)
	return Report{
		ID:    "longmsg",
		Title: "Long messages with and without a network coprocessor (Section 5.4)",
		Text:  text,
		Checks: []Check{
			check("DMA transfer matches the LogGP formula", dmaTotal == logGP, "%d vs %d", dmaTotal, logGP),
			check("DMA frees the processor (engaged o only)", dmaEngaged == params.O, "engaged %d", dmaEngaged),
			check("coprocessor speedup is real but at best 2x", speedup > 1.2 && speedup <= 2.0, "%.2fx", speedup),
		},
	}
}

// OverlapFFT regenerates Section 4.1.5: merging the remap into the
// computation phases. "In future machines we expect architectural
// innovations ... to significantly reduce the value of o with respect to
// g"; on such a machine the fused schedule fills the g-2o transmission
// idle with the final stage's butterflies, while on the CM-5 (o ~ g/2)
// there is less to reclaim.
func OverlapFFT(opts Options) Report {
	const n = 1 << 12
	input := fftInput(n, 3)
	run := func(o int64, overlap bool) (int64, error) {
		m := fft.CM5Machine(8)
		m.Params.O = o
		cfg := fft.Config{N: n, Machine: m, Cost: fft.CM5Cost(), Schedule: fft.StaggeredSchedule, Overlap: overlap}
		_, _, res, err := fft.Run(cfg, append([]complex128(nil), input...))
		return res.Time, err
	}
	tb := stats.Table{Header: []string{"machine", "plain", "overlapped", "saving"}}
	type row struct{ plain, fused int64 }
	var future, cm5 row
	machines := []struct {
		name string
		o    int64
		dst  *row
	}{{"future (o=6)", 6, &future}, {"CM-5 (o=66)", 66, &cm5}}
	// Four independent runs: (machine, overlap) pairs.
	type cell struct {
		time int64
		err  error
	}
	cells := MapIndexed(opts.Workers, len(machines)*2, func(i int) cell {
		t, err := run(machines[i/2].o, i%2 == 1)
		return cell{time: t, err: err}
	})
	for i, r := range machines {
		plain, fused := cells[2*i], cells[2*i+1]
		if plain.err != nil {
			return Report{ID: "overlap", Checks: []Check{check(r.name, false, "%v", plain.err)}}
		}
		if fused.err != nil {
			return Report{ID: "overlap", Checks: []Check{check(r.name, false, "%v", fused.err)}}
		}
		r.dst.plain, r.dst.fused = plain.time, fused.time
		tb.Add(r.name, r.dst.plain, r.dst.fused,
			fmt.Sprintf("%.1f%%", 100*float64(r.dst.plain-r.dst.fused)/float64(r.dst.plain)))
	}
	futureSave := float64(future.plain-future.fused) / float64(future.plain)
	cm5Save := float64(cm5.plain-cm5.fused) / float64(cm5.plain)
	return Report{
		ID:    "overlap",
		Title: "Overlapping communication with computation in the FFT (Section 4.1.5)",
		Text:  tb.String(),
		Checks: []Check{
			check("overlap helps when o << g", future.fused < future.plain && futureSave > 0.02, "%.1f%%", futureSave*100),
			check("less to gain when o ~ g (the CM-5)", cm5Save <= futureSave, "%.1f%% vs %.1f%%", cm5Save*100, futureSave*100),
		},
	}
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/reliable"
	"github.com/logp-model/logp/internal/stats"
)

// Chaos stresses the paper's reliable-delivery assumption: it sweeps the
// link drop rate and measures how long the reliable broadcast of
// internal/reliable takes to put one value on every processor of the
// Figure 3 machine (P=8, L=6, g=4, o=2). At drop rate zero the protocol
// pays only its ack traffic; every lost frame beyond that costs the
// affected subtree at least one retransmission timeout, so the completion
// time must grow with the drop rate. The zero-rate column doubles as a
// regression anchor: an all-zero FaultPlan must leave the machine
// cycle-identical to a fault-free one, which is checked by re-running the
// exact Figure 3 and Figure 4 schedules under such a plan.
func Chaos(opts Options) Report {
	const id = "chaos"
	params := core.Params{P: 8, L: 6, O: 2, G: 4}

	// Anchor 1: the optimal broadcast of Figure 3 under an all-zero fault
	// plan still completes in exactly 24 cycles.
	s3, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		return Report{ID: id, Checks: []Check{check("fig3 schedule built", false, "%v", err)}}
	}
	res3, err := logp.RunProgram(logp.Config{Params: params, Faults: &logp.FaultPlan{Seed: 9}},
		progs.NewBroadcast(s3, 1, "datum"))
	if err != nil {
		return Report{ID: id, Checks: []Check{check("fig3 executed", false, "%v", err)}}
	}

	// Anchor 2: the optimal summation of Figure 4 (its own parameters,
	// L=5, deadline T=28) under an all-zero plan still meets the deadline
	// and computes the right sum.
	params4 := core.Params{P: 8, L: 5, O: 2, G: 4}
	s4, err := core.OptimalSummation(params4, 28)
	if err != nil {
		return Report{ID: id, Checks: []Check{check("fig4 schedule built", false, "%v", err)}}
	}
	values := make([]float64, s4.TotalValues)
	var want4 float64
	for i := range values {
		values[i] = float64(i + 1)
		want4 += values[i]
	}
	dist, err := s4.Distribute(values)
	if err != nil {
		return Report{ID: id, Checks: []Check{check("fig4 inputs distributed", false, "%v", err)}}
	}
	sum4 := progs.NewSum(s4, 1, dist)
	res4, err := logp.RunProgram(logp.Config{Params: params4, Faults: &logp.FaultPlan{Seed: 9}}, sum4)
	if err != nil {
		return Report{ID: id, Checks: []Check{check("fig4 executed", false, "%v", err)}}
	}
	got4 := sum4.Root

	// The sweep: for each drop rate, the same fixed seed set, reliable
	// broadcast on P=8, metric = the time the value reached its last
	// processor (not the machine makespan, which is dominated by the fixed
	// post-broadcast drain horizon).
	rates := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1}
	const seeds = 16
	type outcome struct {
		last      int64
		retrans   int
		delivered bool
	}
	flat := MapIndexed(opts.Workers, len(rates)*seeds, func(i int) outcome {
		rate := rates[i/seeds]
		seed := int64(i%seeds + 1)
		plan := &logp.FaultPlan{Seed: seed, Default: logp.LinkFault{Drop: rate}}
		var done [8]int64
		var payload [8]any
		var retr [8]int
		_, runErr := logp.Run(logp.Config{Params: params, Faults: plan}, func(p *logp.Proc) {
			e := reliable.New(p, reliable.Config{})
			v, _ := reliable.Broadcast(e, 0, 1, "chaos", p.Now()+1_000_000)
			done[p.ID()] = p.Now()
			payload[p.ID()] = v
			e.Drain(p.Now() + 4000)
			retr[p.ID()] = e.Retransmits()
		})
		o := outcome{delivered: runErr == nil}
		for i := 0; i < params.P; i++ {
			if payload[i] != "chaos" {
				o.delivered = false
			}
			if done[i] > o.last {
				o.last = done[i]
			}
			o.retrans += retr[i]
		}
		return o
	})

	tb := stats.Table{Header: []string{"drop rate", "avg completion", "max completion", "avg retransmits"}}
	avg := make([]float64, len(rates))
	allDelivered := true
	var worstRetrans float64
	for ri, rate := range rates {
		var sum, retrans float64
		var worst int64
		for s := 0; s < seeds; s++ {
			o := flat[ri*seeds+s]
			if !o.delivered {
				allDelivered = false
			}
			sum += float64(o.last)
			retrans += float64(o.retrans)
			if o.last > worst {
				worst = o.last
			}
		}
		avg[ri] = sum / seeds
		retrans /= seeds
		if retrans > worstRetrans {
			worstRetrans = retrans
		}
		tb.Add(fmt.Sprintf("%g", rate), avg[ri], worst, retrans)
	}
	monotone := true
	for i := 1; i < len(avg); i++ {
		if avg[i] < avg[i-1] {
			monotone = false
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%v  reliable binomial broadcast, %d seeds per drop rate\n", params, seeds)
	b.WriteString("completion = cycle at which the value reached its last processor\n\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nzero-fault anchors: fig3 broadcast %d cycles (paper: 24), fig4 summation %d cycles for sum %g (paper: 28)\n",
		res3.Time, res4.Time, got4)
	return Report{
		ID:    id,
		Title: "Broadcast completion vs link drop rate (reliable layer over faulty LogP)",
		Text:  b.String(),
		Checks: []Check{
			check("zero-fault plan reproduces Figure 3 exactly", res3.Time == 24, "ran in %d", res3.Time),
			check("zero-fault plan reproduces Figure 4 exactly", res4.Time == 28 && got4 == want4, "ran in %d, sum %g", res4.Time, got4),
			check("every broadcast delivered everywhere", allDelivered, "P=%d, %d runs", params.P, len(flat)),
			check("completion non-decreasing in drop rate", monotone, "averages %v", avg),
			check("losses actually forced retransmissions", worstRetrans > 0, "worst avg %.1f", worstRetrans),
		},
	}
}

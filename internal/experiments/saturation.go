package experiments

import (
	"fmt"
	"strings"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/stats"
)

// CapacitySaturation reproduces the machine-level bandwidth knee implied by
// the capacity constraint (Section 3): four processors stream messages at a
// common sink, sweeping the attempted aggregate load from well below to past
// the network's per-processor ceiling. Delivered bandwidth at the sink rises
// linearly with attempted load until the number of messages in flight to the
// sink pins at ceil(L/g); past that point delivered bandwidth flattens at
// 1/g and the excess attempts are absorbed as capacity-stall cycles at the
// senders. The in-flight and stall telemetry comes from the internal/metrics
// registry attached to every run.
func CapacitySaturation(opts Options) Report {
	const id = "saturation"
	params := core.Params{P: 5, L: 12, O: 1, G: 3}
	capacity := params.Capacity() // ceil(L/g) = 4
	senders := params.P - 1
	msgs := 80 * opts.Scale.clamp()
	// Each sender alternates Compute(spacing) with one send, so unimpeded it
	// attempts one message every spacing+o cycles; the aggregate attempted
	// load is senders/(spacing+o) messages per cycle. The sweep spans ~0.08
	// to ~1.33 msgs/cycle around the 1/g = 0.33 service ceiling of the sink.
	spacings := []int64{49, 31, 23, 15, 11, 7, 5, 3, 2}
	const seeds = 16

	type outcome struct {
		rate    float64 // delivered msgs/cycle at the sink
		stall   float64 // capacity-stall cycles per message
		pinned  float64 // fraction of samples with in-flight-to-sink at capacity
		maxIn   int     // peak in-flight to the sink
		allOK   bool
		failMsg string
	}
	flat := MapIndexed(opts.Workers, len(spacings)*seeds, func(i int) outcome {
		spacing := spacings[i/seeds]
		seed := int64(i%seeds + 1)
		reg := metrics.NewRegistry()
		cfg := logp.Config{
			Params:        params,
			Seed:          seed,
			ComputeJitter: 0.04,
			Metrics:       reg,
			MetricsEvery:  32,
		}
		res, err := logp.Run(cfg, func(p *logp.Proc) {
			if p.ID() == 0 {
				for m := 0; m < msgs*senders; m++ {
					p.Recv()
				}
				return
			}
			// Stagger the senders across one spacing period: synchronized
			// starts would burst all four sends at once and graze the
			// capacity ceiling even at light load.
			p.Compute(spacing * int64(p.ID()-1) / int64(senders))
			for m := 0; m < msgs; m++ {
				p.Compute(spacing)
				p.Send(0, 0, nil)
			}
		})
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		total := int64(msgs * senders)
		return outcome{
			rate:   float64(reg.DeliveredTotal()) / float64(res.Time),
			stall:  float64(reg.TotalStallCycles()) / float64(total),
			pinned: reg.PinnedInFraction(0),
			maxIn:  reg.MaxInFlightTo(0),
			allOK:  reg.DeliveredTotal() == total && res.MaxInTransitTo <= capacity,
		}
	})

	attempted := make([]float64, len(spacings))
	delivered := make([]float64, len(spacings))
	stall := make([]float64, len(spacings))
	pinned := make([]float64, len(spacings))
	maxIn := make([]float64, len(spacings))
	allOK := true
	for li, spacing := range spacings {
		attempted[li] = float64(senders) / float64(spacing+params.O)
		worstIn := 0
		for s := 0; s < seeds; s++ {
			o := flat[li*seeds+s]
			if o.failMsg != "" {
				return Report{ID: id, Checks: []Check{check("runs completed", false, "%s", o.failMsg)}}
			}
			if !o.allOK {
				allOK = false
			}
			delivered[li] += o.rate
			stall[li] += o.stall
			pinned[li] += o.pinned
			if o.maxIn > worstIn {
				worstIn = o.maxIn
			}
		}
		delivered[li] /= seeds
		stall[li] /= seeds
		pinned[li] /= seeds
		maxIn[li] = float64(worstIn)
	}

	peak := 1 / float64(params.G) // the sink's reception ceiling
	// The oracle: linear below the knee, monotone throughout, flat on the
	// plateau, with the in-flight count pinned at the capacity ceiling and
	// stall cycles absorbing the excess.
	linearBelow := true
	for li := range spacings {
		if attempted[li] <= 0.8*peak && delivered[li] < 0.9*attempted[li] {
			linearBelow = false
		}
	}
	monotone := true
	for li := 1; li < len(spacings); li++ {
		if delivered[li] < 0.98*delivered[li-1] {
			monotone = false
		}
	}
	last := len(spacings) - 1
	flat2 := delivered[last] > 0.95*delivered[last-1] && delivered[last] < 1.05*delivered[last-1]
	atPeak := delivered[last] > 0.85*peak && delivered[last] <= peak*1.01
	pinnedKnee := pinned[last] > 0.5 && int(maxIn[last]) == capacity && pinned[0] < 0.05
	stallKnee := stall[0] < 0.5 && stall[last] > float64(params.G)

	var b strings.Builder
	fmt.Fprintf(&b, "%v  capacity ceiling ceil(L/g) = %d, sink service ceiling 1/g = %.3f msg/cycle\n", params, capacity, peak)
	fmt.Fprintf(&b, "%d senders -> proc 0, %d messages each, %d seeds per load, means below\n\n", senders, msgs, seeds)
	b.WriteString(stats.CSV("attempted_load",
		stats.Series{Name: "delivered_bandwidth", X: attempted, Y: delivered},
		stats.Series{Name: "stall_cycles_per_msg", X: attempted, Y: stall},
		stats.Series{Name: "pinned_fraction", X: attempted, Y: pinned},
		stats.Series{Name: "max_in_flight_to_sink", X: attempted, Y: maxIn},
	))
	return Report{
		ID:    id,
		Title: "Delivered bandwidth vs attempted load: the capacity-constraint knee",
		Text:  b.String(),
		Checks: []Check{
			check("all messages delivered, capacity bound respected", allOK, "%d runs", len(flat)),
			check("delivered tracks attempted below the knee", linearBelow, "delivered %v vs attempted %v", delivered, attempted),
			check("delivered bandwidth monotone in attempted load", monotone, "delivered %v", delivered),
			check("plateau flat past the knee", flat2, "top loads %.4f vs %.4f", delivered[last-1], delivered[last]),
			check("plateau sits at the 1/g service ceiling", atPeak, "%.4f vs 1/g = %.4f", delivered[last], peak),
			check("in-flight pins at ceil(L/g) exactly at saturation", pinnedKnee, "pinned %.2f, max in-flight %d, capacity %d", pinned[last], int(maxIn[last]), capacity),
			check("stall cycles absorb the excess load", stallKnee, "%.2f cycles/msg unloaded vs %.2f saturated", stall[0], stall[last]),
		},
	}
}

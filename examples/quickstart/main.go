// Quickstart: build a LogP machine, look at its derived costs, and run the
// paper's two canonical kernels — the optimal broadcast (Figure 3) and the
// optimal summation (Figure 4) — comparing the analytic schedule times with
// the simulated execution.
package main

import (
	"fmt"
	"log"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

func main() {
	// A machine is four numbers: P processors, latency L, overhead o, gap g.
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	fmt.Println("machine:", params)
	fmt.Println("  point-to-point message:", params.PointToPoint(), "cycles (2o+L)")
	fmt.Println("  remote read:           ", params.RemoteRead(), "cycles (2L+4o)")
	fmt.Println("  network capacity:      ", params.Capacity(), "messages in transit per processor")

	// --- Broadcast: the optimal tree adapts its fan-out to L, o and g.
	bs, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimal broadcast finishes at %d (binomial tree: %d, root-sends-all: %d)\n",
		bs.Finish, core.BinomialBroadcastTime(params), core.LinearBroadcastTime(params))

	// Execute it: the broadcast is a Program, whose Start handler runs on
	// every processor and whose Message handler runs on every reception.
	b := progs.NewBroadcast(bs, 1, "hello")
	res, err := logp.RunProgram(logp.Config{Params: params}, b)
	if err != nil {
		log.Fatal(err)
	}
	// The last processor is a leaf of the tree: it finishes on receiving.
	last := params.P - 1
	fmt.Printf("processor %d received %q at cycle %d\n", last, b.Got[last], res.Procs[last].Finish)
	fmt.Println("simulated broadcast time:", res.Time, "cycles (matches the schedule)")

	// --- Summation: how many values fit in a deadline, and the uneven
	// input distribution that achieves it.
	sumParams := core.Params{P: 8, L: 5, O: 2, G: 4}
	ss, err := core.OptimalSummation(sumParams, 28)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimal summation: %d values in 28 cycles on %d processors\n", ss.TotalValues, ss.ProcsUsed)
	values := make([]float64, ss.TotalValues)
	for i := range values {
		values[i] = float64(i)
	}
	dist, err := ss.Distribute(values)
	if err != nil {
		log.Fatal(err)
	}
	for i, chunk := range dist {
		if chunk != nil {
			fmt.Printf("  processor %d sums %d inputs\n", i, len(chunk))
		}
	}
	sum := progs.NewSum(ss, 1, dist)
	res, err = logp.RunProgram(logp.Config{Params: sumParams}, sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated summation: total %.0f in %d cycles\n", sum.Root, res.Time)
}

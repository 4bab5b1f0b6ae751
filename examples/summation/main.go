// Summation example: how the optimal LogP schedule adapts to the machine.
// For a fixed input size, sweeps the gap g and compares the optimal
// summation time against the naive balanced-binary-tree reduction, printing
// the shape of the optimal communication tree as it changes.
package main

import (
	"fmt"
	"log"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/stats"
)

func main() {
	const n = 4000
	fmt.Printf("summing %d values on 32 processors, L=20 o=4, sweeping g\n\n", n)
	tb := stats.Table{Header: []string{"g", "optimal T", "binary-tree T", "speedup", "root children", "simulated"}}
	for _, g := range []int64{4, 8, 16, 32, 64} {
		params := core.Params{P: 32, L: 20, O: 4, G: g}
		deadline := core.MinSumTime(params, n)
		schedule, err := core.OptimalSummation(params, deadline)
		if err != nil {
			log.Fatal(err)
		}
		baseline := core.BinaryTreeSumTime(params, n)

		// Execute the schedule to confirm the analytic time.
		values := make([]float64, schedule.TotalValues)
		for i := range values {
			values[i] = 1
		}
		dist, err := schedule.Distribute(values)
		if err != nil {
			log.Fatal(err)
		}
		res, err := logp.RunProgram(logp.Config{Params: params}, progs.NewSum(schedule, 1, dist))
		if err != nil {
			log.Fatal(err)
		}
		tb.Add(g, deadline, baseline,
			fmt.Sprintf("%.2fx", float64(baseline)/float64(deadline)),
			len(schedule.Root.Children), res.Time)
	}
	fmt.Print(tb.String())
	fmt.Println("\nas g grows, receptions cost more of the root's time, so the optimal")
	fmt.Println("tree uses fewer, deeper children and longer local addition chains.")
}

package collective_test

import (
	"fmt"

	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

// A reduction to processor 0 over a binomial tree.
func ExampleBinomialReduce() {
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	_, err := logp.Run(logp.Config{Params: params}, func(p *logp.Proc) {
		v, ok := collective.BinomialReduce(p, 0, 1, p.ID(), func(a, b any) any {
			return a.(int) + b.(int)
		})
		if ok {
			fmt.Println("sum of ids:", v)
		}
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// sum of ids: 28
}

// An inclusive prefix scan (the scan-model primitive, charged honestly).
func ExampleScan() {
	params := core.Params{P: 4, L: 6, O: 2, G: 4}
	out := make([]int, 4)
	_, err := logp.Run(logp.Config{Params: params}, func(p *logp.Proc) {
		v := collective.Scan(p, 10, 1, func(a, b any) any { return a.(int) + b.(int) })
		out[p.ID()] = v.(int)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output:
	// [1 2 3 4]
}

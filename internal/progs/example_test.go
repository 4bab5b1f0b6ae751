package progs_test

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// Executing the optimal broadcast schedule reproduces its analytic time.
func ExampleBroadcast() {
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	s, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		panic(err)
	}
	res, err := logp.RunProgram(logp.Config{Params: params}, progs.NewBroadcast(s, 1, 42))
	if err != nil {
		panic(err)
	}
	fmt.Println("analytic:", s.Finish, "simulated:", res.Time)
	// Output:
	// analytic: 24 simulated: 24
}

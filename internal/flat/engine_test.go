package flat_test

import (
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// TestEngineSuite runs the paper's Figure 3/4 schedule programs on every
// engine a caller can pick: the goroutine machine, the flat sequential core
// and the flat windowed parallel kernel (4 shards, capacity off). Every
// engine must land each program exactly on its analytic finish time, so a
// run that diverges from the reference machine by even one cycle fails here.
func TestEngineSuite(t *testing.T) {
	engines := []struct {
		name string
		run  func(logp.Config, logp.Program) (logp.Result, error)
	}{
		{"goroutine", logp.RunProgram},
		{"flat", func(cfg logp.Config, prog logp.Program) (logp.Result, error) { return flat.Run(cfg, prog, 1) }},
		{"flat4", func(cfg logp.Config, prog logp.Program) (logp.Result, error) { return flat.Run(cfg, prog, 4) }},
	}
	params := core.Params{P: 16, L: 8, O: 2, G: 3}
	cfg := logp.Config{Params: params, DisableCapacity: true}

	bs, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := core.MinSumTime(params, 64)
	ss, err := core.OptimalSummation(params, deadline)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, ss.TotalValues)
	for i := range values {
		values[i] = 1
	}
	dist, err := ss.Distribute(values)
	if err != nil {
		t.Fatal(err)
	}

	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			res, err := e.run(cfg, progs.NewBroadcast(bs, 1, "datum"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Time != bs.Finish {
				t.Errorf("broadcast: simulated time %d, analytic finish %d", res.Time, bs.Finish)
			}
			if res.Messages != params.P-1 {
				t.Errorf("broadcast: %d messages, want %d", res.Messages, params.P-1)
			}

			sumRes, err := e.run(cfg, progs.NewSum(ss, 1, dist))
			if err != nil {
				t.Fatal(err)
			}
			if sumRes.Time != deadline {
				t.Errorf("summation: simulated time %d, analytic deadline %d", sumRes.Time, deadline)
			}
		})
	}
}

package flat_test

import (
	"errors"
	"math"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/topo"
)

// stretchParams is the machine of the overflowing-stretch regression: the
// daemon spec {"program":"alltoall","work":3,"machine":{"p":4,"l":6,"o":2,
// "g":4,"compute_jitter":1e300}} once finished at 118 on the flat engine,
// earlier than the 131 it takes unstretched, because the stretched compute
// wrapped to a negative cycle count; the goroutine engine crashed on it.
var stretchParams = core.Params{P: 4, L: 6, O: 2, G: 4}

func stretchProg(t *testing.T, work int64) logp.Program {
	inst, err := progs.Build("alltoall", stretchParams, progs.Args{Work: work})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Prog
}

// TestStretchOverflowFailsBothEngines: a compute that a stretch factor —
// compute jitter, processor skew, a slowdown window or a topology rate —
// pushes past the int64 cycle count fails the run on both engines with the
// same StretchOverflowError, and a moderate stretch still finishes no
// earlier than the unstretched run.
func TestStretchOverflowFailsBothEngines(t *testing.T) {
	plain, err := flat.Run(logp.Config{Params: stretchParams}, stretchProg(t, 3), 1)
	if err != nil || plain.Time != 131 {
		t.Fatalf("unstretched run: time %d, err %v; want 131", plain.Time, err)
	}
	jittered, err := flat.Run(logp.Config{Params: stretchParams, ComputeJitter: 0.5, ProcSkew: 0.5}, stretchProg(t, 3), 1)
	if err != nil || jittered.Time < plain.Time {
		t.Fatalf("moderately stretched run: time %d, err %v; want at least %d", jittered.Time, err, plain.Time)
	}

	rated, err := topo.WithRates(topo.Flat(stretchParams), []float64{1, 1, 1e300, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  logp.Config
		work int64
	}{
		{"compute-jitter", logp.Config{Params: stretchParams, ComputeJitter: 1e300}, 3},
		{"proc-skew", logp.Config{Params: stretchParams, ProcSkew: 1e300}, 3},
		{"slowdown", logp.Config{Params: stretchParams, Faults: &logp.FaultPlan{
			Slowdowns: []logp.Slowdown{{Proc: 2, Start: 0, End: 1000, Factor: 1e300}},
		}}, 3},
		{"topology-rate", logp.Config{Params: stretchParams, Topology: rated}, 3},
		// Every jittered length fits in an int64, but a processor's second
		// compute would end past the int64 cycle count.
		{"jitter-past-the-clock", logp.Config{Params: stretchParams, ComputeJitter: 1}, 1 << 62},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, gErr := logp.RunProgram(tc.cfg, stretchProg(t, tc.work))
			_, fErr := flat.Run(tc.cfg, stretchProg(t, tc.work), 1)
			var g, f *logp.StretchOverflowError
			if !errors.As(gErr, &g) || !errors.As(fErr, &f) {
				t.Fatalf("want a StretchOverflowError on both engines: goroutine=%v flat=%v", gErr, fErr)
			}
			if *g != *f {
				t.Errorf("engines disagree: goroutine=%v flat=%v", gErr, fErr)
			}
		})
	}
}

// TestStretchOverflowSharded: skew is the one stretch the windowed kernel
// admits; an overflow there fails the run too, on every shard count.
func TestStretchOverflowSharded(t *testing.T) {
	cfg := logp.Config{Params: stretchParams, DisableCapacity: true, ProcSkew: 1e300}
	for _, shards := range []int{1, 2, 4} {
		_, err := flat.Run(cfg, stretchProg(t, 3), shards)
		var e *logp.StretchOverflowError
		if !errors.As(err, &e) {
			t.Errorf("shards=%d: err = %v, want a StretchOverflowError", shards, err)
		}
	}
}

// TestNonFiniteStretchRejected: both engines refuse a NaN or infinite
// compute jitter or skew at construction, with the same error.
func TestNonFiniteStretchRejected(t *testing.T) {
	for _, cfg := range []logp.Config{
		{Params: stretchParams, ComputeJitter: math.NaN()},
		{Params: stretchParams, ComputeJitter: math.Inf(1)},
		{Params: stretchParams, ProcSkew: math.NaN()},
		{Params: stretchParams, ProcSkew: math.Inf(1)},
	} {
		_, gErr := logp.New(cfg)
		_, fErr := flat.New(cfg, stretchProg(t, 3), 1)
		if gErr == nil || fErr == nil || gErr.Error() != fErr.Error() {
			t.Errorf("jitter %v skew %v: goroutine err %v, flat err %v", cfg.ComputeJitter, cfg.ProcSkew, gErr, fErr)
		}
	}
}

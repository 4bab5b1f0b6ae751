package progs_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// The paper's two worked schedules, the optimal broadcast of Figure 3 and
// the optimal summation of Figure 4, run on every engine: the goroutine
// machine, the flat sequential kernel and, where the windowed kernel admits
// the machine (o+L >= 1, no jitter), 4 flat shards with capacity off. Each
// must land on the schedule's analytic time.

var fig3 = core.Params{P: 8, L: 6, O: 2, G: 4}

// engine runs a Program on one engine, under cfg adjusted to what the
// engine needs.
type engine struct {
	name string
	run  func(cfg logp.Config, prog logp.Program) (logp.Result, error)
}

// enginesFor lists the engines that can run cfg.
func enginesFor(cfg logp.Config) []engine {
	es := []engine{
		{"goroutine", logp.RunProgram},
		{"flat", func(cfg logp.Config, prog logp.Program) (logp.Result, error) { return flat.Run(cfg, prog, 1) }},
	}
	if cfg.O+cfg.L >= 1 && cfg.LatencyJitter == 0 {
		es = append(es, engine{"flat, 4 shards", func(cfg logp.Config, prog logp.Program) (logp.Result, error) {
			cfg.DisableCapacity = true
			return flat.Run(cfg, prog, 4)
		}})
	}
	return es
}

// broadcastOnTime runs the optimal broadcast of params from root on every
// engine and reports the first engine that misses the schedule's Finish or
// loses the datum.
func broadcastOnTime(params core.Params, root int) error {
	s, err := core.OptimalBroadcast(params, root)
	if err != nil {
		return err
	}
	cfg := logp.Config{Params: params}
	for _, e := range enginesFor(cfg) {
		b := progs.NewBroadcast(s, 1, 42)
		res, err := e.run(cfg, b)
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		if res.Time != s.Finish {
			return fmt.Errorf("%s on %v: finished at %d, schedule Finish %d", e.name, params, res.Time, s.Finish)
		}
		for i, v := range b.Got {
			if v != 42 {
				return fmt.Errorf("%s on %v: proc %d got %v", e.name, params, i, v)
			}
		}
	}
	return nil
}

// sumOnTime runs the optimal summation of params for deadline on every
// engine, summing ones, and reports the first engine that misses the
// deadline or the sum.
func sumOnTime(params core.Params, deadline int64) error {
	s, err := core.OptimalSummation(params, deadline)
	if err != nil {
		return err
	}
	values := make([]float64, s.TotalValues)
	for i := range values {
		values[i] = 1
	}
	dist, err := s.Distribute(values)
	if err != nil {
		return err
	}
	cfg := logp.Config{Params: params}
	for _, e := range enginesFor(cfg) {
		sum := progs.NewSum(s, 1, dist)
		res, err := e.run(cfg, sum)
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		if res.Time != deadline || !sum.RootOK || sum.Root != float64(s.TotalValues) {
			return fmt.Errorf("%s on %v, T=%d: finished at %d with sum %v (root done %v), want %d values",
				e.name, params, deadline, res.Time, sum.Root, sum.RootOK, s.TotalValues)
		}
	}
	return nil
}

// TestOptimalBroadcastExecutesAtPredictedTime is the central validation of
// the machines against the model: executing the Figure 3 schedule completes
// at exactly the analytic finish time, 24 cycles, with no capacity stall.
func TestOptimalBroadcastExecutesAtPredictedTime(t *testing.T) {
	s, err := core.OptimalBroadcast(fig3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: fig3}
	for _, e := range enginesFor(cfg) {
		b := progs.NewBroadcast(s, 1, "datum")
		res, err := e.run(cfg, b)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if res.Time != 24 {
			t.Errorf("%s: simulated broadcast time %d, want 24 (Figure 3)", e.name, res.Time)
		}
		for i, v := range b.Got {
			if v != "datum" {
				t.Errorf("%s: proc %d got %v", e.name, i, v)
			}
		}
		if res.TotalStall() != 0 {
			t.Errorf("%s: optimal broadcast stalled %d cycles", e.name, res.TotalStall())
		}
	}
}

// TestBroadcastTimingMatchesScheduleProperty: for random parameters, the
// simulated completion time equals the schedule's analytic Finish on every
// engine. This pins the machines' timing rules to the model's.
func TestBroadcastTimingMatchesScheduleProperty(t *testing.T) {
	f := func(pp, ll, oo, gg uint8) bool {
		params := core.Params{
			P: int(pp%32) + 1,
			L: int64(ll % 40),
			O: int64(oo % 12),
			G: int64(gg%12) + 1,
		}
		if err := broadcastOnTime(params, 0); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastFromNonzeroRoot(t *testing.T) {
	s, err := core.OptimalBroadcast(fig3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Finish != 24 {
		t.Errorf("schedule from root 5 finishes at %d, want 24", s.Finish)
	}
	if err := broadcastOnTime(fig3, 5); err != nil {
		t.Error(err)
	}
}

// TestOptimalBroadcastNeverSlowerSimulated compares the simulated optimal
// broadcast on the Figure 3 machine with the simulated binomial tree (the
// one-value PipelinedBinomial) and the analytic root-sends-all time.
func TestOptimalBroadcastNeverSlowerSimulated(t *testing.T) {
	s, err := core.OptimalBroadcast(fig3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: fig3}
	opt, err := logp.RunProgram(cfg, progs.NewBroadcast(s, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := logp.RunProgram(cfg, progs.NewPipelinedBinomial(fig3.P, 0, 1, 1, func(int) any { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if lin := core.LinearBroadcastTime(fig3); opt.Time > bin.Time || opt.Time > lin {
		t.Errorf("optimal %d vs binomial %d vs linear %d", opt.Time, bin.Time, lin)
	}
}

// TestBroadcastCorrectUnderJitter: with latency jitter (messages reordered,
// early arrivals) every broadcast still delivers to everyone, on both
// engines (the windowed kernel refuses jitter) — correctness must hold under
// all interleavings consistent with the latency bound.
//
// Note the running time is NOT asserted to stay within the deterministic
// worst case: the paper's footnote 2 observes "anomalous situations in which
// reducing the latency of certain messages actually increases the running
// time", and the simulator reproduces them (an early arrival can claim the
// receive gap and delay a critical later reception).
func TestBroadcastCorrectUnderJitter(t *testing.T) {
	params := core.Params{P: 16, L: 20, O: 2, G: 4}
	s, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		cfg := logp.Config{Params: params, LatencyJitter: 15, Seed: seed}
		for _, e := range enginesFor(cfg) {
			b := progs.NewBroadcast(s, 1, "v")
			res, err := e.run(cfg, b)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			for i, v := range b.Got {
				if v != "v" {
					t.Errorf("%s, seed %d: proc %d got %v", e.name, seed, i, v)
				}
			}
			// Sanity: jitter only ever shortens individual flights, so the
			// run cannot exceed the deterministic bound by more than the
			// slack one delayed reception can add per tree level (coarse
			// bound).
			if res.Time > s.Finish+int64(16)*params.SendInterval() {
				t.Errorf("%s, seed %d: jittered run %d wildly exceeds %d", e.name, seed, res.Time, s.Finish)
			}
		}
	}
}

// TestFigure4SummationExecutesAtDeadline: executing the Figure 4 schedule
// (T=28, P=8, L=5, o=2, g=4) sums 79 values and the root finishes at
// exactly 28 cycles.
func TestFigure4SummationExecutesAtDeadline(t *testing.T) {
	params := core.Params{P: 8, L: 5, O: 2, G: 4}
	s, err := core.OptimalSummation(params, 28)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, s.TotalValues)
	var want float64
	for i := range values {
		values[i] = float64(i + 1)
		want += values[i]
	}
	dist, err := s.Distribute(values)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: params}
	for _, e := range enginesFor(cfg) {
		sum := progs.NewSum(s, 1, dist)
		res, err := e.run(cfg, sum)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if res.Time != 28 {
			t.Errorf("%s: simulated summation time %d, want 28 (Figure 4)", e.name, res.Time)
		}
		if sum.Root != want {
			t.Errorf("%s: sum = %v, want %v", e.name, sum.Root, want)
		}
	}
}

// TestSummationTimingMatchesScheduleProperty: for random parameters and
// deadlines, executing the schedule finishes exactly at the deadline on
// every engine (the schedule keeps the root busy through its last cycle).
// The fixed case is one the flat engine once finished 128 cycles late: an
// overflow-heap event that an in-place clock advance had brought inside
// the timing wheel's horizon fired a wheel turn after its time.
func TestSummationTimingMatchesScheduleProperty(t *testing.T) {
	if err := sumOnTime(core.Params{P: 3, L: 15, O: 7, G: 6}, 167); err != nil {
		t.Error(err)
	}
	f := func(tt uint16, pp, ll, oo, gg uint8) bool {
		params := core.Params{
			P: int(pp%16) + 1,
			L: int64(ll % 30),
			O: int64(oo % 8),
			G: int64(gg%8) + 1,
		}
		if err := sumOnTime(params, int64(tt%200)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

package prof_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/progs"
)

// whatIf replays rec under alt parameters (ideal latency L, as a what-if
// sweep would) and returns the predicted run.
func whatIf(t *testing.T, rec *prof.Recorder, alt core.Params) *prof.Run {
	t.Helper()
	cfg := rec.BaseConfig()
	cfg.Params = alt
	cfg.UseRecordedLatency = false
	run, err := rec.Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// altParams are the what-if machines the exactness tests sweep: latency,
// overhead and gap each move both ways, including a capacity change
// (ceil(L/g) of 1, 2, 3 and 10 across the set).
func altParams(P int) []core.Params {
	return []core.Params{
		{P: P, L: 12, O: 2, G: 4},
		{P: P, L: 6, O: 1, G: 5},
		{P: P, L: 3, O: 4, G: 4},
		{P: P, L: 20, O: 3, G: 2},
		{P: P, L: 2, O: 2, G: 6},
	}
}

// TestWhatIfBroadcastExact: for the dependence-stable broadcast program,
// replaying the recorded DAG under altered parameters predicts the fresh
// simulation's makespan and per-processor finish times exactly.
func TestWhatIfBroadcastExact(t *testing.T) {
	s, err := core.OptimalBroadcast(fig3, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.NewBroadcast(s, 1, "datum")
	rec := prof.NewRecorder()
	mustRunProgram(t, logp.Config{Params: fig3, Profiler: rec}, prog)

	for _, alt := range altParams(fig3.P) {
		t.Run(alt.String(), func(t *testing.T) {
			pred := whatIf(t, rec, alt)
			fresh := mustRunProgram(t, logp.Config{Params: alt}, prog)
			checkMatchesMachine(t, pred, fresh)
			if err := pred.CriticalPath().Contiguous(); err != nil {
				t.Errorf("critical path does not tile the makespan: %v", err)
			}
		})
	}
}

// TestWhatIfSummationExact: same exactness for the optimal summation
// schedule, whose reception pattern differs qualitatively from the
// broadcast (the root interleaves computation with receptions).
func TestWhatIfSummationExact(t *testing.T) {
	params := core.Params{P: 8, L: 5, O: 2, G: 4}
	s, err := core.OptimalSummation(params, 28)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, s.TotalValues)
	for i := range values {
		values[i] = 1
	}
	dist, err := s.Distribute(values)
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.NewSum(s, 1, dist)
	rec := prof.NewRecorder()
	mustRunProgram(t, logp.Config{Params: params, Profiler: rec}, prog)

	for _, alt := range altParams(params.P) {
		t.Run(alt.String(), func(t *testing.T) {
			pred := whatIf(t, rec, alt)
			fresh := mustRunProgram(t, logp.Config{Params: alt}, prog)
			checkMatchesMachine(t, pred, fresh)
		})
	}
}

// TestWhatIfConfigToggles: replay also predicts configuration what-ifs —
// removing the capacity constraint from a recording made with it, and
// imposing it on a recording made without it — exactly, for a program with
// enough contention that it matters.
func TestWhatIfConfigToggles(t *testing.T) {
	params := core.Params{P: 4, L: 12, O: 2, G: 6}
	const msgs = 3
	body := func(p *logp.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 3*msgs; i++ {
				p.Recv()
			}
			return
		}
		for i := 0; i < msgs; i++ {
			p.Send(0, p.ID(), nil)
		}
	}
	toggles := []struct {
		name     string
		recorded bool // DisableCapacity of the recorded run; the what-if flips it
	}{
		{"disable-capacity", false},
		{"enable-capacity", true},
	}
	for _, tc := range toggles {
		t.Run(tc.name, func(t *testing.T) {
			rec := prof.NewRecorder()
			res := mustRun(t, logp.Config{Params: params, DisableCapacity: tc.recorded, Profiler: rec}, body)
			rc := rec.BaseConfig()
			rc.UseRecordedLatency = false
			rc.DisableCapacity = !tc.recorded
			pred, err := rec.Replay(rc)
			if err != nil {
				t.Fatal(err)
			}
			fresh := mustRun(t, logp.Config{Params: params, DisableCapacity: !tc.recorded}, body)
			// Exactly one of the two runs has the capacity constraint.
			if res.TotalStall()+fresh.TotalStall() == 0 {
				t.Fatal("the capacity-constrained run never stalled")
			}
			checkMatchesMachine(t, pred, fresh)
		})
	}
}

// TestWhatIfBulkExact: bulk trains under both transfer regimes (PIO and
// DMA coprocessor) replay exactly, including the regime cross-over — a
// recording made without a coprocessor re-costed as if one were fitted.
func TestWhatIfBulkExact(t *testing.T) {
	params := core.Params{P: 4, L: 8, O: 2, G: 3}
	const words = 6
	body := func(p *logp.Proc) {
		next := (p.ID() + 1) % p.P()
		p.SendBulk(next, 1, nil, words)
		p.Compute(10)
		p.Recv()
	}
	for _, coproc := range []bool{false, true} {
		rec := prof.NewRecorder()
		mustRun(t, logp.Config{Params: params, Coprocessor: coproc, Profiler: rec}, body)
		for _, altCoproc := range []bool{false, true} {
			for _, alt := range []core.Params{params, {P: 4, L: 16, O: 3, G: 5}} {
				name := fmt.Sprintf("rec-dma=%v/replay-dma=%v/%v", coproc, altCoproc, alt)
				t.Run(name, func(t *testing.T) {
					rc := rec.BaseConfig()
					rc.Params = alt
					rc.Coprocessor = altCoproc
					rc.UseRecordedLatency = false
					pred, err := rec.Replay(rc)
					if err != nil {
						t.Fatal(err)
					}
					fresh := mustRun(t, logp.Config{Params: alt, Coprocessor: altCoproc}, body)
					checkMatchesMachine(t, pred, fresh)
				})
			}
		}
	}
}

// TestWhatIfAllToAllTolerance: the all-to-all exchange polls HasMessage, so
// its operation sequence depends on message timing and replay is only an
// approximation (the recorded interleaving stays a valid execution, but the
// live program would adapt its send/receive order — replay errs pessimistic).
// For moderate parameter sweeps of the FFT-style staggered exchange of
// Section 4.1.2 the prediction must stay within 15% of a fresh simulation;
// sweeps that change the capacity ceil(L/g) across a threshold diverge more
// (measured up to ~60%) and are out of scope here — see DESIGN.md.
func TestWhatIfAllToAllTolerance(t *testing.T) {
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	const perPair = 4
	body := func(p *logp.Proc) {
		c := make([]int, p.P())
		for d := range c {
			if d != p.ID() {
				c[d] = perPair
			}
		}
		collective.AllToAll(p, collective.Staggered, 1, c,
			func(dst, k int) any { return nil }, perPair*(p.P()-1), 2)
	}
	rec := prof.NewRecorder()
	mustRun(t, logp.Config{Params: params, Profiler: rec}, body)

	for _, alt := range []core.Params{
		{P: 8, L: 9, O: 2, G: 4},
		{P: 8, L: 6, O: 4, G: 4},
		{P: 8, L: 6, O: 2, G: 3},
		{P: 8, L: 6, O: 2, G: 2},
	} {
		t.Run(alt.String(), func(t *testing.T) {
			pred := whatIf(t, rec, alt)
			fresh := mustRun(t, logp.Config{Params: alt}, body)
			relErr := math.Abs(float64(pred.Makespan-fresh.Time)) / float64(fresh.Time)
			if relErr > 0.15 {
				t.Errorf("replay predicts %d, fresh simulation %d (%.1f%% off, tolerance 15%%)",
					pred.Makespan, fresh.Time, 100*relErr)
			}
		})
	}
}

// TestWhatIfPipelineLatencyInsensitive reproduces the Section 3.1 claim
// that pipelined streams are latency-insensitive: replaying a pipelined
// chain broadcast with L doubled moves the makespan by only the pipeline
// fill, far less than proportionally.
func TestWhatIfPipelineLatencyInsensitive(t *testing.T) {
	params := core.Params{P: 4, L: 10, O: 2, G: 4}
	const m = 32
	body := func(p *logp.Proc) {
		collective.PipelinedChainBroadcast(p, 0, 1, m, func(i int) any { return nil })
	}
	rec := prof.NewRecorder()
	base := mustRun(t, logp.Config{Params: params, Profiler: rec}, body)

	alt := core.Params{P: 4, L: 20, O: 2, G: 4}
	pred := whatIf(t, rec, alt)
	fresh := mustRun(t, logp.Config{Params: alt}, body)
	checkMatchesMachine(t, pred, fresh)
	grew := pred.Makespan - base.Time
	if grew <= 0 || grew >= 3*(alt.L-params.L)+1 {
		t.Errorf("doubling L grew the pipelined makespan by %d; want the ~3-hop fill, not m*dL", grew)
	}
}

// TestReplayRejectsMismatchedP: a recording can only be re-costed on a
// machine with the same processor count.
func TestReplayRejectsMismatchedP(t *testing.T) {
	rec, _ := recordBroadcast(t, fig3, logp.Config{})
	cfg := rec.BaseConfig()
	cfg.Params.P = 4
	if _, err := rec.Replay(cfg); err == nil {
		t.Error("replay accepted a different P")
	}
	cfg = rec.BaseConfig()
	cfg.Params.G = 0
	if _, err := rec.Replay(cfg); err == nil {
		t.Error("replay accepted invalid parameters")
	}
}

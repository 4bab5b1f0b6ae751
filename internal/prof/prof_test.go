package prof_test

import (
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/trace"
)

// fig3 is the machine of the paper's Figure 3: P=8, L=6, o=2, g=4.
var fig3 = core.Params{P: 8, L: 6, O: 2, G: 4}

func mustRun(t *testing.T, cfg logp.Config, body func(p *logp.Proc)) logp.Result {
	t.Helper()
	res, err := logp.Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustRunProgram(t *testing.T, cfg logp.Config, prog logp.Program) logp.Result {
	t.Helper()
	res, err := logp.RunProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustAnalyze(t *testing.T, rec *prof.Recorder) *prof.Run {
	t.Helper()
	run, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// recordBroadcast runs the optimal broadcast under a profiler and returns
// the recording alongside the machine result.
func recordBroadcast(t *testing.T, params core.Params, cfg logp.Config) (*prof.Recorder, logp.Result) {
	t.Helper()
	s, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := prof.NewRecorder()
	cfg.Params = params
	cfg.Profiler = rec
	res := mustRunProgram(t, cfg, progs.NewBroadcast(s, 1, "datum"))
	return rec, res
}

// checkMatchesMachine asserts the replayed run reconstructs the machine run
// exactly: same makespan and same per-processor completion times.
func checkMatchesMachine(t *testing.T, run *prof.Run, res logp.Result) {
	t.Helper()
	if run.Makespan != res.Time {
		t.Errorf("replay makespan %d, machine ran in %d", run.Makespan, res.Time)
	}
	for i, f := range run.Finish {
		if f != res.Procs[i].Finish {
			t.Errorf("proc %d: replay finish %d, machine finish %d", i, f, res.Procs[i].Finish)
		}
	}
}

// TestFig3BroadcastOracle pins the analyzer to the paper's Figure 3: the
// optimal broadcast on (P=8, L=6, o=2, g=4) takes 24 cycles, and the
// critical path is the chain the figure draws — three send overheads, two
// flights, two receive overheads and one gap wait, tiling the makespan as
// 10 cycles of o, 12 of L and 2 of g.
func TestFig3BroadcastOracle(t *testing.T) {
	rec, res := recordBroadcast(t, fig3, logp.Config{})
	if res.Time != 24 {
		t.Fatalf("simulated broadcast time %d, want 24 (Figure 3)", res.Time)
	}
	run := mustAnalyze(t, rec)
	checkMatchesMachine(t, run, res)

	cp := run.CriticalPath()
	if err := cp.Contiguous(); err != nil {
		t.Fatalf("critical path does not tile the makespan: %v\n%v", err, cp)
	}
	if len(cp.Spans) != 8 {
		t.Errorf("critical path has %d spans, want 8:\n%v", len(cp.Spans), cp)
	}
	count := map[trace.Kind]int{}
	for _, k := range cp.Kinds() {
		count[k]++
	}
	want := map[trace.Kind]int{
		trace.SendOverhead: 3,
		trace.Flight:       2,
		trace.RecvOverhead: 2,
		trace.GapWait:      1,
	}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("critical path has %d %v spans, want %d:\n%v", count[k], k, n, cp)
		}
	}
	if first := cp.Spans[0]; first.Proc != 0 || first.Kind != trace.SendOverhead {
		t.Errorf("path starts with %v on proc %d, want the root's first send overhead", first.Kind, first.Proc)
	}
	if last := cp.Spans[len(cp.Spans)-1]; last.Kind != trace.RecvOverhead {
		t.Errorf("path ends with %v, want the last reception's overhead", last.Kind)
	}

	a := cp.Attribution()
	if a.Overhead != 10 || a.Latency != 12 || a.Gap != 2 {
		t.Errorf("attribution o=%d L=%d g=%d, want o=10 L=12 g=2 (%v)", a.Overhead, a.Latency, a.Gap, a)
	}
	if a.Compute != 0 || a.Stall != 0 || a.Idle != 0 {
		t.Errorf("attribution charges compute=%d stall=%d idle=%d on an idle-machine broadcast (%v)",
			a.Compute, a.Stall, a.Idle, a)
	}
}

// TestFig4SummationOracle: the optimal summation schedule keeps the root
// busy through its deadline, so the critical path is a chain with no idle
// or stall time and the computation dominates the accounting.
func TestFig4SummationOracle(t *testing.T) {
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
	rec := prof.NewRecorder()
	res := mustRunProgram(t, logp.Config{Params: params, Profiler: rec}, progs.NewSum(s, 1, dist))
	if res.Time != 28 {
		t.Fatalf("simulated summation time %d, want 28 (Figure 4)", res.Time)
	}
	run := mustAnalyze(t, rec)
	checkMatchesMachine(t, run, res)

	cp := run.CriticalPath()
	if err := cp.Contiguous(); err != nil {
		t.Fatalf("critical path does not tile the makespan: %v\n%v", err, cp)
	}
	a := cp.Attribution()
	if a.Idle != 0 || a.Stall != 0 {
		t.Errorf("optimal summation path has idle=%d stall=%d, want a fully busy chain (%v)", a.Idle, a.Stall, a)
	}
	if a.Compute == 0 || a.Overhead == 0 {
		t.Errorf("expected both computation and overhead on the summation path, got %v", a)
	}
	if sum := a.Compute + a.Overhead + a.Gap + a.Latency + a.Stall + a.Idle; sum != a.Makespan {
		t.Errorf("attribution components sum to %d, makespan %d", sum, a.Makespan)
	}
}

// TestAnalyzeReconstructsRun: replaying a recording under its own
// configuration (with recorded latencies) reproduces the machine run
// exactly, across jitter, skew, bulk transfers, coprocessors, barriers and
// both capacity regimes.
func TestAnalyzeReconstructsRun(t *testing.T) {
	base := core.Params{P: 6, L: 9, O: 2, G: 3}
	body := func(p *logp.Proc) {
		P := p.P()
		next := (p.ID() + 1) % P
		prev := (p.ID() + P - 1) % P
		p.Compute(int64(5 + 3*p.ID()))
		p.Send(next, 1, nil)
		p.SendBulk(next, 2, nil, 4)
		p.RecvTag(1)
		p.Compute(7)
		p.Recv()
		p.Barrier()
		p.Send(prev, 3, nil)
		p.Recv()
		p.Wait(3)
	}
	cases := []struct {
		name string
		cfg  logp.Config
	}{
		{"deterministic", logp.Config{Params: base}},
		{"latency-jitter", logp.Config{Params: base, LatencyJitter: 5, Seed: 7}},
		{"all-noise", logp.Config{Params: base, LatencyJitter: 4, ComputeJitter: 0.5, ProcSkew: 0.3, Seed: 11}},
		{"hold-capacity", logp.Config{Params: base, HoldCapacityUntilReceive: true}},
		{"coprocessor", logp.Config{Params: base, Coprocessor: true}},
		{"no-capacity", logp.Config{Params: base, DisableCapacity: true}},
		{"barrier-cost", logp.Config{Params: base, BarrierCost: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := prof.NewRecorder()
			cfg := tc.cfg
			cfg.Profiler = rec
			res := mustRun(t, cfg, body)
			run := mustAnalyze(t, rec)
			checkMatchesMachine(t, run, res)
			cp := run.CriticalPath()
			if err := cp.Contiguous(); err != nil {
				t.Errorf("critical path does not tile the makespan: %v\n%v", err, cp)
			}
		})
	}
}

// TestAnalyzeReconstructsContendedRun drives the capacity constraint into
// stalls (two processors flooding one receiver) and checks both the exact
// reconstruction and that the stall shows up in the span DAG.
func TestAnalyzeReconstructsContendedRun(t *testing.T) {
	params := core.Params{P: 3, L: 12, O: 2, G: 6} // capacity ceil(12/6) = 2
	const msgs = 4
	body := func(p *logp.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 2*msgs; i++ {
				p.Recv()
			}
			return
		}
		for i := 0; i < msgs; i++ {
			p.Send(0, p.ID(), nil)
		}
	}
	rec := prof.NewRecorder()
	res := mustRun(t, logp.Config{Params: params, Profiler: rec}, body)
	if res.TotalStall() == 0 {
		t.Fatal("flood program did not stall; the test needs contention")
	}
	run := mustAnalyze(t, rec)
	checkMatchesMachine(t, run, res)
	var stalled int64
	for _, s := range run.Spans {
		if s.Kind == trace.Stall {
			stalled += s.End - s.Start
		}
	}
	if stalled == 0 {
		t.Error("replay produced no stall spans for a stalling run")
	}
	if err := run.CriticalPath().Contiguous(); err != nil {
		t.Errorf("critical path does not tile the makespan: %v", err)
	}
}

// TestRecorderReuse: Begin resets the recorder, so one recorder can profile
// sequential runs and the analysis reflects the latest.
func TestRecorderReuse(t *testing.T) {
	rec := prof.NewRecorder()
	small := core.Params{P: 2, L: 3, O: 1, G: 2}
	mustRun(t, logp.Config{Params: fig3, Profiler: rec}, func(p *logp.Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil)
		} else if p.ID() == 1 {
			p.Recv()
		}
	})
	res := mustRun(t, logp.Config{Params: small, Profiler: rec}, func(p *logp.Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil)
		} else {
			p.Recv()
		}
	})
	if rec.Info().Params != small {
		t.Fatalf("recorder info %v after second run, want %v", rec.Info().Params, small)
	}
	if rec.Messages() != 1 {
		t.Fatalf("recorder has %d messages after reuse, want 1", rec.Messages())
	}
	run := mustAnalyze(t, rec)
	checkMatchesMachine(t, run, res)
}

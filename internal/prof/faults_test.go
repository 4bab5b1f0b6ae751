package prof_test

import (
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/reliable"
)

// assertExactReplay replays the recording under the recorded configuration
// and checks it reproduces the machine run cycle for cycle.
func assertExactReplay(t *testing.T, rec *prof.Recorder, res logp.Result) *prof.Run {
	t.Helper()
	run := mustAnalyze(t, rec)
	if run.Makespan != res.Time {
		t.Errorf("replay makespan %d, machine ran %d", run.Makespan, res.Time)
	}
	for i, f := range run.Finish {
		if f != res.Procs[i].Finish {
			t.Errorf("replay finishes proc %d at %d, machine at %d", i, f, res.Procs[i].Finish)
		}
	}
	return run
}

func TestReplayExactUnderLinkFaults(t *testing.T) {
	// A lossy, duplicating network forces retransmissions; the recording
	// (with Dropped marks, OpDup entries and OpWaitUntil timeouts) must
	// replay to the exact machine timing, so the cost of recovery shows up
	// faithfully in critical-path attribution.
	rec := prof.NewRecorder()
	cfg := logp.Config{
		Params:   core.Params{P: 2, L: 6, O: 2, G: 4},
		Profiler: rec,
		Faults: &logp.FaultPlan{
			Seed:    21,
			Default: logp.LinkFault{Drop: 0.3, Dup: 0.2},
		},
	}
	var retrans int
	res, err := logp.Run(cfg, func(p *logp.Proc) {
		e := reliable.New(p, reliable.Config{Timeout: 40})
		switch p.ID() {
		case 0:
			for i := 0; i < 6; i++ {
				if err := e.Send(1, 0, i); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			}
			retrans = e.Retransmits()
			e.Drain(p.Now() + 500)
		case 1:
			for i := 0; i < 6; i++ {
				e.Recv()
			}
			e.Drain(p.Now() + 500)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if retrans == 0 {
		t.Fatal("seed produced no retransmissions; the scenario is vacuous")
	}
	run := assertExactReplay(t, rec, res)

	// The recording knows which flights died and which were network copies.
	dropped, dups := 0, 0
	for _, m := range run.Msgs {
		if m.Dropped {
			dropped++
		}
		if m.Dup {
			dups++
		}
	}
	if dropped != res.Dropped {
		t.Errorf("replay sees %d dropped messages, machine reported %d", dropped, res.Dropped)
	}
	if dups != res.Duplicated {
		t.Errorf("replay sees %d duplicates, machine reported %d", dups, res.Duplicated)
	}
	cp := run.CriticalPath()
	if err := cp.Contiguous(); err != nil {
		t.Error(err)
	}
}

func TestReplayExactUnderFailStop(t *testing.T) {
	// Proc 1 dies mid-conversation, blocked inside a receive. The recorder
	// pops that never-completed receive, so replay terminates and lands on
	// the machine's exact timing.
	rec := prof.NewRecorder()
	cfg := logp.Config{
		Params:   core.Params{P: 3, L: 6, O: 2, G: 4},
		Profiler: rec,
		Faults: &logp.FaultPlan{
			FailStops: []logp.FailStop{{Proc: 1, At: 25}},
		},
	}
	res, err := logp.Run(cfg, func(p *logp.Proc) {
		switch p.ID() {
		case 0:
			p.Compute(40)
			for i := 0; i < 3; i++ {
				p.Send(1, 0, i) // all of these reach a corpse
			}
		case 1:
			p.Recv() // never satisfied: dies waiting at t=25
		case 2:
			p.Compute(60)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", res.Failed)
	}
	if !rec.Failed(1) {
		t.Error("recorder did not mark proc 1 failed")
	}
	assertExactReplay(t, rec, res)
}

func TestReplayExactUnderReceiverKill(t *testing.T) {
	// Procs 1 and 2 flood proc 0 and stall on its two capacity units. Proc 0
	// is killed mid-compute at t=9 and halts only at t=100: the messages
	// that arrived before the kill stay queued in its inbox, the later ones
	// reach a corpse and are dropped, and each settles its unit at arrival
	// either way, so the kill changes no sender's timing and replay needs
	// no record of it.
	rec := prof.NewRecorder()
	cfg := logp.Config{
		Params:   core.Params{P: 3, L: 4, O: 1, G: 2},
		Profiler: rec,
		Faults: &logp.FaultPlan{
			FailStops: []logp.FailStop{{Proc: 0, At: 9}},
		},
	}
	res, err := logp.Run(cfg, func(p *logp.Proc) {
		if p.ID() == 0 {
			p.Compute(100)
			p.Recv()
			return
		}
		for i := 0; i < 6; i++ {
			p.Send(0, 0, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", res.Failed)
	}
	if res.TotalStall() == 0 {
		t.Error("no sender stalled on proc 0's capacity")
	}
	if res.Undelivered == 0 || res.Dropped == 0 {
		t.Errorf("undelivered %d, dropped %d; want some queued at the kill and some dropped after it", res.Undelivered, res.Dropped)
	}
	assertExactReplay(t, rec, res)
}

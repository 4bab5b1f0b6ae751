package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/topo"
)

// tieredBroadcastSpec is a two-tier broadcast spec: P=8 with 4-processor
// nodes whose intra-node links are cheaper in all of (L, o, g).
func tieredBroadcastSpec(engine string, shards int) JobSpec {
	return JobSpec{
		Program: "broadcast",
		Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4,
			Topology: &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}},
		Engine: engine,
		Shards: shards,
	}
}

// TestRunTieredSpec runs a tiered spec through the service path on both
// engines and the sharded kernel (which needs the capacity constraint off;
// the broadcast tree sends one message per link, so capacity never binds):
// all three must report the same simulated time, and the tiered machine must
// beat the flat one (uniformly cheaper intra-node links can only help).
func TestRunTieredSpec(t *testing.T) {
	g, err := Run(tieredBroadcastSpec("goroutine", 0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(tieredBroadcastSpec("flat", 0))
	if err != nil {
		t.Fatal(err)
	}
	shardedSpec := tieredBroadcastSpec("flat", 4)
	shardedSpec.Machine.NoCapacity = true
	s, err := Run(shardedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.Shards != 4 {
		t.Fatalf("sharded spec normalized to %d shards, want 4", s.Spec.Shards)
	}
	if g.Result.Time != f.Result.Time || g.Result.Time != s.Result.Time {
		t.Errorf("engines disagree under the tiered model: goroutine %d, flat %d, sharded %d",
			g.Result.Time, f.Result.Time, s.Result.Time)
	}
	if g.Result.Messages != f.Result.Messages || g.Result.Messages != s.Result.Messages {
		t.Errorf("message counts disagree: %d %d %d", g.Result.Messages, f.Result.Messages, s.Result.Messages)
	}

	flatSpec := tieredBroadcastSpec("goroutine", 0)
	flatSpec.Machine.Topology = nil
	flat, err := Run(flatSpec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Result.Time >= flat.Result.Time {
		t.Errorf("tiered broadcast %d should beat the flat machine's %d", g.Result.Time, flat.Result.Time)
	}
	if g.SpecHash == flat.SpecHash {
		t.Error("tiered and flat specs must not share a cache address")
	}
}

// bodyVariants are the machine variants TestEnginesAgreeOnBody runs every
// registry program under, at P = 8 and 16; TestEncodeMatchesJSON encodes the
// same bodies.
var bodyVariants = []struct {
	name    string
	mut     func(*JobSpec)
	mayFail bool // lost messages can leave a program waiting forever
}{
	{"plain", func(*JobSpec) {}, false},
	{"no-capacity", func(s *JobSpec) { s.Machine.NoCapacity = true }, false},
	{"two-tier", func(s *JobSpec) {
		s.Machine.Topology = &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}
	}, false},
	{"metrics", func(s *JobSpec) { s.Metrics = &MetricsSpec{Include: true, Every: 7} }, false},
	{"jitter-skew", func(s *JobSpec) {
		s.Machine.LatencyJitter, s.Machine.ComputeJitter, s.Machine.ProcSkew = 3, 0.4, 0.25
	}, false},
	{"link-faults", func(s *JobSpec) {
		s.Faults = &FaultSpec{Seed: 3, Drop: 0.05, Dup: 0.05, Jitter: 4}
		s.Metrics = &MetricsSpec{Include: true}
	}, true},
	{"dup-delay", func(s *JobSpec) {
		s.Faults = &FaultSpec{Seed: 3, Dup: 0.1, Jitter: 4}
		s.Metrics = &MetricsSpec{Include: true}
	}, false},
	{"fail-stop", func(s *JobSpec) {
		s.Faults = &FaultSpec{Fails: []FailStopSpec{{Proc: 3, At: 30}}}
		s.Metrics = &MetricsSpec{Include: true}
	}, true},
	{"procs", func(s *JobSpec) { s.IncludeProcs = true }, false},
}

// bodyVariantSpec is the spec of one bodyVariants case.
func bodyVariantSpec(prog string, mut func(*JobSpec), p int) JobSpec {
	spec := JobSpec{Program: prog, Work: 3, Staggered: true, Seed: 5,
		Machine: MachineSpec{P: p, L: 6, O: 2, G: 4}}
	mut(&spec)
	return spec
}

// TestEnginesAgreeOnBody is the service-level engine equivalence check. The
// daemon runs every job on the flat engine and leaves the engine out of the
// hash, which is sound only if the goroutine machine would have answered
// with the same bytes. So every registry program, under each machine
// variant and at two sizes, runs through Run on both engines: the hashes and
// the encoded bodies (result, output, per-processor stats, metrics) must be
// identical, or both runs must fail with the same error text.
func TestEnginesAgreeOnBody(t *testing.T) {
	for _, prog := range progs.Names() {
		for _, v := range bodyVariants {
			for _, p := range []int{8, 16} {
				spec := bodyVariantSpec(prog, v.mut, p)
				name := fmt.Sprintf("%s/%s/P%d", prog, v.name, p)
				var bodies [2][]byte
				var errs [2]error
				for i, engine := range []string{"goroutine", "flat"} {
					s := spec
					s.Engine = engine
					resp, err := Run(s)
					if errs[i] = err; err == nil {
						if bodies[i], err = resp.Encode(); err != nil {
							t.Fatal(err)
						}
					}
				}
				switch {
				case (errs[0] == nil) != (errs[1] == nil):
					t.Errorf("%s: goroutine error %v, flat error %v", name, errs[0], errs[1])
				case errs[0] != nil:
					if !v.mayFail {
						t.Errorf("%s: %v", name, errs[0])
					}
					if errs[0].Error() != errs[1].Error() {
						t.Errorf("%s: errors differ:\n goroutine: %v\n flat:      %v", name, errs[0], errs[1])
					}
				case !bytes.Equal(bodies[0], bodies[1]):
					t.Errorf("%s: bodies differ:\n--- goroutine ---\n%.2000s\n--- flat ---\n%.2000s", name, bodies[0], bodies[1])
				}
			}
		}
	}
}

// TestSumSpecMeetsPrediction is the daemon-path regression for an overflow-
// heap event the flat queue once fired a wheel turn late: this summation
// answered time 295 on the flat engine, against 167 on the goroutine engine
// and in predicted_finish, and the daemon cached the wrong body.
func TestSumSpecMeetsPrediction(t *testing.T) {
	for _, engine := range []string{"goroutine", "flat"} {
		resp, err := Run(JobSpec{Program: "sum", N: 420, Engine: engine,
			Machine: MachineSpec{P: 3, L: 15, O: 7, G: 6}})
		if err != nil {
			t.Fatal(err)
		}
		if pred := resp.Output["predicted_finish"]; resp.Result.Time != 167 || pred != 167 {
			t.Errorf("%s: time %d, predicted_finish %v; want both 167", engine, resp.Result.Time, pred)
		}
	}
}

// sendPastTheClock is a daemon spec whose first send would arrive past the
// int64 cycle count: each processor computes until cycle 2^63-8, then pays
// o=2 and puts a message in flight for L=6. It once crashed the flat engine
// on a scheduling panic, and the goroutine engine's whole process with it.
const sendPastTheClock = `{"program":"alltoall","work":9223372036854775800,"machine":{"p":4,"l":6,"o":2,"g":4}}`

// TestSendPastTheClockFailsBothEngines: Run fails the overflowing send with
// the same logp.ClockOverflowError on the flat engine and the goroutine one.
func TestSendPastTheClockFailsBothEngines(t *testing.T) {
	var texts []string
	for _, engine := range []string{"", "goroutine"} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(sendPastTheClock), &spec); err != nil {
			t.Fatal(err)
		}
		spec.Engine = engine
		_, err := Run(spec)
		var e *logp.ClockOverflowError
		if !errors.As(err, &e) || e.Op != "send" {
			t.Fatalf("engine %q: err = %v, want a send's ClockOverflowError", engine, err)
		}
		texts = append(texts, err.Error())
	}
	if texts[0] != texts[1] {
		t.Errorf("engines disagree:\n flat:      %s\n goroutine: %s", texts[0], texts[1])
	}
}

// TestRunHonoursEngineName: Run executes an explicit "goroutine" on the
// goroutine machine, which holds one goroutine per processor for the whole
// run, and "" or "flat" on the flat engine, which starts none. Without this,
// TestEnginesAgreeOnBody could compare flat with flat. A sampler records the
// peak goroutine count while each run is in progress.
func TestRunHonoursEngineName(t *testing.T) {
	const p = 4096
	for _, tc := range []struct {
		engine    string
		goroutine bool
	}{{"goroutine", true}, {"flat", false}, {"", false}} {
		var done atomic.Bool
		var peak int
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			for !done.Load() {
				peak = max(peak, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}()
		_, err := Run(JobSpec{Program: "broadcast", Engine: tc.engine, Machine: MachineSpec{P: p, L: 6, O: 2, G: 4}})
		done.Store(true)
		<-sampled
		if err != nil {
			t.Fatalf("engine %q: %v", tc.engine, err)
		}
		if (peak > p) != tc.goroutine {
			t.Errorf("engine %q: peak of %d goroutines during a P=%d run; want one per processor on the goroutine engine only",
				tc.engine, peak, p)
		}
	}
}

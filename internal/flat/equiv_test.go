package flat_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/sim"
)

// The cross-engine determinism contract: the same (program, machine config,
// seed, fault plan) must produce the identical Result — times, stats, trace
// — the identical metrics registry state (pinned via Prometheus text and the
// sample series), and the identical profiler recording (pinned via the
// recorded op streams and the critical-path attribution) on the goroutine
// machine and the flat core.

// runBoth executes a fresh program instance from mk on each engine under
// cfg (with per-engine profiler/metrics attachments when requested) and
// compares everything the run produces.
func runBoth(t *testing.T, name string, cfg logp.Config, mk func() logp.Program, withProf, withMetrics bool) (gRes, fRes logp.Result) {
	t.Helper()
	var gRec, fRec *prof.Recorder
	var gMet, fMet *metrics.Registry
	gCfg, fCfg := cfg, cfg
	if withProf {
		gRec, fRec = prof.NewRecorder(), prof.NewRecorder()
		gCfg.Profiler, fCfg.Profiler = gRec, fRec
	}
	if withMetrics {
		gMet, fMet = metrics.NewRegistry(), metrics.NewRegistry()
		gCfg.Metrics, fCfg.Metrics = gMet, fMet
	}

	gRes, gErr := logp.RunProgram(gCfg, mk())
	fRes, fErr := flat.Run(fCfg, mk(), 1)
	if (gErr == nil) != (fErr == nil) || (gErr != nil && gErr.Error() != fErr.Error()) {
		t.Fatalf("%s: errors differ: goroutine=%v flat=%v", name, gErr, fErr)
	}
	if gErr != nil {
		return gRes, fRes
	}
	if !reflect.DeepEqual(gRes, fRes) {
		t.Errorf("%s: results differ:\n goroutine: %+v\n flat:      %+v", name, gRes, fRes)
	}
	if withProf {
		for p := 0; p < cfg.P; p++ {
			if !reflect.DeepEqual(gRec.Ops(p), fRec.Ops(p)) {
				t.Errorf("%s: recorded ops differ at proc %d:\n goroutine: %+v\n flat:      %+v",
					name, p, gRec.Ops(p), fRec.Ops(p))
			}
		}
		gRun, err1 := gRec.Analyze()
		fRun, err2 := fRec.Analyze()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: analyze: goroutine=%v flat=%v", name, err1, err2)
		}
		gCP, fCP := gRun.CriticalPath(), fRun.CriticalPath()
		if gCP.String() != fCP.String() {
			t.Errorf("%s: critical paths differ:\n goroutine:\n%s flat:\n%s", name, gCP.String(), fCP.String())
		}
		if ga, fa := gCP.Attribution(), fCP.Attribution(); ga != fa {
			t.Errorf("%s: critical-path attribution differs:\n goroutine: %+v\n flat:      %+v", name, ga, fa)
		}
	}
	if withMetrics {
		var gBuf, fBuf bytes.Buffer
		if err := metrics.WritePrometheus(&gBuf, gMet.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := metrics.WritePrometheus(&fBuf, fMet.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gBuf.Bytes(), fBuf.Bytes()) {
			t.Errorf("%s: Prometheus text differs:\n goroutine:\n%s\n flat:\n%s", name, gBuf.String(), fBuf.String())
		}
		if !reflect.DeepEqual(gMet.Samples, fMet.Samples) {
			t.Errorf("%s: sample series differ:\n goroutine: %+v\n flat:      %+v", name, gMet.Samples, fMet.Samples)
		}
	}
	return gRes, fRes
}

func figureParams() core.Params { return core.Params{P: 8, L: 6, O: 2, G: 4} }

func TestEquivPingPong(t *testing.T) {
	cfg := logp.Config{Params: core.Params{P: 2, L: 20, O: 2, G: 4}, CollectTrace: true}
	runBoth(t, "pingpong", cfg, func() logp.Program { return progsPingPong(16) }, true, true)
}

func progsPingPong(rounds int) logp.Program { return newPingPong(rounds) }

func TestEquivOptimalBroadcast(t *testing.T) {
	p := figureParams()
	s, err := core.OptimalBroadcast(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: p, CollectTrace: true}
	g, f := runBoth(t, "broadcast", cfg, func() logp.Program { return newBroadcast(s, 7, "datum") }, true, true)
	// The Figure 3 exactness result must hold on both engines: the run
	// completes at the schedule's Finish plus the final o receive overhead
	// already included in Finish.
	if g.Time != f.Time {
		t.Fatalf("times differ: %d vs %d", g.Time, f.Time)
	}
	if g.Time != s.Finish {
		t.Errorf("broadcast completed at %d, schedule Finish %d", g.Time, s.Finish)
	}
}

func TestEquivOptimalSummation(t *testing.T) {
	p := core.Params{P: 8, L: 6, O: 2, G: 4}
	s, err := core.OptimalSummation(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, s.TotalValues)
	total := 0.0
	for i := range values {
		values[i] = float64(i + 1)
		total += values[i]
	}
	inputs, err := collective.DistributeInputs(s, values)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: p, CollectTrace: true}
	mkSum := func() logp.Program { return newSum(s, 3, inputs) }

	// Run once per engine, keeping the program to check the root value.
	gProg, fProg := mkSum(), mkSum()
	progs := []logp.Program{gProg, fProg}
	i := 0
	g, f := runBoth(t, "summation", cfg, func() logp.Program { p := progs[i]; i++; return p }, true, true)
	if g.Time != f.Time {
		t.Fatalf("times differ: %d vs %d", g.Time, f.Time)
	}
	if g.Time != s.Deadline {
		t.Errorf("summation completed at %d, schedule deadline %d", g.Time, s.Deadline)
	}
	checkSumRoot(t, "goroutine", gProg, total)
	checkSumRoot(t, "flat", fProg, total)
}

func TestEquivPipelinedCollectives(t *testing.T) {
	p := core.Params{P: 6, L: 12, O: 3, G: 5}
	cfg := logp.Config{Params: p, CollectTrace: true}
	vals := func(i int) any { return i * 10 }
	runBoth(t, "chain", cfg, func() logp.Program { return newChain(p.P, 1, 5, 8, vals) }, true, true)
	runBoth(t, "binomial", cfg, func() logp.Program { return newBinomial(p.P, 2, 6, 7, vals) }, true, true)
}

func TestEquivAllToAllSaturation(t *testing.T) {
	p := core.Params{P: 6, L: 18, O: 2, G: 3}
	// Capacity on: the naive schedule floods destination 0 and stalls on the
	// ceil(L/g) constraint, exercising the semaphore mirror.
	cfg := logp.Config{Params: p, CollectTrace: true}
	g, _ := runBoth(t, "alltoall-naive", cfg, func() logp.Program { return newAllToAll(p.P, 4, 1, 9, false) }, true, true)
	if g.TotalStall() == 0 {
		t.Error("naive all-to-all did not stall: capacity path not exercised")
	}
	runBoth(t, "alltoall-staggered", cfg, func() logp.Program { return newAllToAll(p.P, 4, 1, 9, true) }, true, true)

	hold := cfg
	hold.HoldCapacityUntilReceive = true
	runBoth(t, "alltoall-hold", hold, func() logp.Program { return newAllToAll(p.P, 3, 0, 9, true) }, true, true)
}

func TestEquivJitterSkewSeeded(t *testing.T) {
	p := core.Params{P: 5, L: 20, O: 2, G: 4}
	cfg := logp.Config{
		Params:        p,
		LatencyJitter: 7,
		ComputeJitter: 0.3,
		ProcSkew:      0.2,
		Seed:          12345,
		CollectTrace:  true,
	}
	runBoth(t, "jitter-skew", cfg, func() logp.Program { return newAllToAll(p.P, 3, 2, 5, true) }, true, true)
}

func TestEquivFaultPlan(t *testing.T) {
	p := core.Params{P: 5, L: 20, O: 2, G: 4}
	cfg := logp.Config{
		Params: p,
		Seed:   99,
		Faults: &logp.FaultPlan{
			Seed:    1234,
			Default: logp.LinkFault{Dup: 0.3, Jitter: 9},
			Slowdowns: []logp.Slowdown{
				{Proc: 1, Start: 0, End: 400, Factor: 2.5},
				{Proc: 3, Start: 50, End: 200, Factor: 1.5},
			},
		},
		CollectTrace: true,
	}
	runBoth(t, "faults", cfg, func() logp.Program { return newAllToAll(p.P, 3, 2, 5, true) }, true, true)
}

func TestEquivDeadlockError(t *testing.T) {
	// Every ping dropped: both processors block forever, and the two engines
	// must report the identical deadlock (time, blocked set, formatting).
	cfg := logp.Config{
		Params: core.Params{P: 2, L: 20, O: 2, G: 4},
		Faults: &logp.FaultPlan{Default: logp.LinkFault{Drop: 1}},
	}
	mk := func() logp.Program { return newPingPong(4) }
	_, gErr := logp.RunProgram(cfg, mk())
	_, fErr := flat.Run(cfg, mk(), 1)
	var gDl, fDl *sim.DeadlockError
	if !errors.As(gErr, &gDl) || !errors.As(fErr, &fDl) {
		t.Fatalf("want deadlocks, got goroutine=%v flat=%v", gErr, fErr)
	}
	if gErr.Error() != fErr.Error() {
		t.Errorf("deadlock errors differ:\n goroutine: %v\n flat:      %v", gErr, fErr)
	}
}

func TestEquivFailStop(t *testing.T) {
	// Proc 1 dies mid-exchange; messages to it are dropped, survivors run
	// on. Both engines must agree on the failure bookkeeping. The exchange
	// among survivors still completes because every survivor expects only
	// the messages that can still arrive.
	p := core.Params{P: 4, L: 20, O: 2, G: 4}
	cfg := logp.Config{
		Params: p,
		Faults: &logp.FaultPlan{FailStops: []logp.FailStop{{Proc: 1, At: 0}}},
	}
	// A resilient workload: everyone streams to their ring successor; the
	// processor downstream of the dead one expects nothing, so a dead peer
	// cannot block anyone. (Proc 1 dies before its first send charges, so
	// proc 2 expects zero; sends into proc 1 are dropped on arrival.)
	mk := func() logp.Program { return newRingExpect(6, []int{6, 6, 0, 6}) }
	gRes, gErr := logp.RunProgram(cfg, mk())
	fRes, fErr := flat.Run(cfg, mk(), 1)
	if gErr != nil || fErr != nil {
		t.Fatalf("errors: goroutine=%v flat=%v", gErr, fErr)
	}
	if !reflect.DeepEqual(gRes, fRes) {
		t.Errorf("fail-stop results differ:\n goroutine: %+v\n flat:      %+v", gRes, fRes)
	}
	if len(gRes.Failed) != 1 || gRes.Failed[0] != 1 {
		t.Errorf("Failed = %v, want [1]", gRes.Failed)
	}
}

// capCase is one capacity-on machine and program. The capacity cases are
// the corners of the ceil(L/g) semaphores: parameter extremes, stalls that
// span many L-cycle spans, and fail-stops of processors that hold capacity.
// The equivalence suite runs them on both engines, and the one-shard rule
// (shard_test.go) runs them at several requested shard counts.
type capCase struct {
	name string
	cfg  logp.Config
	mk   func() logp.Program
}

// capacityCorners covers the registry programs and the parameter corners:
// g > L (capacity 1, every link serialized), L = 0, L = o = 0, and
// hold-until-receive (units released at reception end, not arrival). The
// hold-mode all-to-all genuinely deadlocks — everyone's reservations are
// held behind receptions that wait on everyone else — and must fail with
// the identical error.
func capacityCorners(t testing.TB) []capCase {
	std := core.Params{P: 0, L: 8, O: 2, G: 3}
	with := func(p int) core.Params { pr := std; pr.P = p; return pr }
	values := func(i int) any { return i }
	return []capCase{
		{"broadcast", logp.Config{Params: with(32)}, func() logp.Program {
			s, err := core.OptimalBroadcast(with(32), 0)
			if err != nil {
				t.Fatal(err)
			}
			return newBroadcast(s, 1, "datum")
		}},
		{"pingpong", logp.Config{Params: with(16)}, func() logp.Program { return newPingPong(12) }},
		{"alltoall", logp.Config{Params: with(12)}, func() logp.Program { return newAllToAll(12, 3, 1, 2, true) }},
		{"chain", logp.Config{Params: with(24)}, func() logp.Program { return newChain(24, 0, 3, 6, values) }},
		{"gap-exceeds-latency", logp.Config{Params: core.Params{P: 8, L: 2, O: 1, G: 5}},
			func() logp.Program { return newAllToAll(8, 3, 1, 2, true) }},
		{"zero-latency", logp.Config{Params: core.Params{P: 8, L: 0, O: 2, G: 1}},
			func() logp.Program { return newAllToAll(8, 2, 1, 2, true) }},
		{"zero-latency-zero-overhead", logp.Config{Params: core.Params{P: 6, L: 0, O: 0, G: 1}},
			func() logp.Program { return newChain(6, 0, 3, 4, values) }},
		{"hold-until-receive", logp.Config{Params: with(12), HoldCapacityUntilReceive: true},
			func() logp.Program { return newChain(12, 0, 3, 6, values) }},
		{"hold-deadlock", logp.Config{Params: with(12), HoldCapacityUntilReceive: true},
			func() logp.Program { return newAllToAll(12, 3, 1, 2, true) }},
	}
}

// capFlood: proc 0 fires burst back-to-back sends at proc 1, which idles
// for hold cycles before draining its inbox. With hold-until-receive the
// capacity units stay reserved until proc 1's receptions complete, so proc
// 0's stalls last many times L and its grants arrive long after its
// acquires. The remaining processors finish at once.
type capFlood struct {
	burst int
	hold  int64
}

func (c *capFlood) Start(n logp.Node) {
	switch n.ID() {
	case 0:
		for i := 0; i < c.burst; i++ {
			n.Send(1, 9, i)
		}
		n.Done()
	case 1:
		n.Wait(c.hold)
	default:
		n.Done()
	}
}

func (c *capFlood) Message(n logp.Node, m logp.Message) {
	if m.Data.(int) == c.burst-1 {
		n.Done()
	}
}

// capacityStalls runs capFlood with units released at arrival, held until
// reception, and held with a capacity of one.
func capacityStalls() []capCase {
	flood := func() logp.Program { return &capFlood{burst: 8, hold: 60} }
	return []capCase{
		{"arrival-release", logp.Config{Params: core.Params{P: 6, L: 4, O: 1, G: 2}}, flood},
		{"hold-release", logp.Config{Params: core.Params{P: 6, L: 4, O: 1, G: 2}, HoldCapacityUntilReceive: true}, flood},
		{"hold-release-cap1", logp.Config{Params: core.Params{P: 6, L: 3, O: 2, G: 4}, HoldCapacityUntilReceive: true}, flood},
	}
}

// holdKillChain: 0 floods 1, 1 floods 2, 2 sleeps long before draining.
// Hold mode keeps every unit reserved until reception, so 1 stalls on its
// acquire to 2 while arrivals from 0 pile up in its inbox; killing 1 at
// various times lands the kill mid-stall, mid-burst and after the drain.
// Every kill time deadlocks: 2 finishes on the burst's last message, which
// the killed 1 never sends. The kill gives back the units of 0's messages
// queued in the dead 1's inbox, so 0 itself completes its burst.
//
// With release set the chain completes with 1 failed: 0 sends 1 a single
// message (dropped if it arrives after the kill, else left in the dead 1's
// inbox), or with flood set the whole burst, and then sends 2 one message
// of its own; 2 finishes on that message instead of the burst's last, and
// leaves the rest of what 1 sent before its kill unreceived. The flood form
// completes only because the kill releases the units of the messages queued
// at 1: otherwise 0 stalls for good on its burst and never reaches 2.
type holdKillChain struct {
	burst   int
	release bool
	flood   bool
}

func (c *holdKillChain) Start(n logp.Node) {
	switch n.ID() {
	case 0:
		if c.release {
			sends := 1
			if c.flood {
				sends = c.burst
			}
			for i := 0; i < sends; i++ {
				n.Send(1, 9, i)
			}
			n.Send(2, 10, 0)
			n.Done()
			return
		}
		for i := 0; i < c.burst; i++ {
			n.Send(1, 9, i)
		}
		n.Done()
	case 1:
		for i := 0; i < c.burst; i++ {
			n.Send(2, 9, i)
		}
	case 2:
		n.Wait(300)
	default:
		n.Done()
	}
}

func (c *holdKillChain) Message(n logp.Node, m logp.Message) {
	last := (n.ID() == 1 || n.ID() == 2) && m.Data.(int) == c.burst-1
	if last || m.Tag == 10 { // tag 10: 0's message to 2 in the released chain
		n.Done()
	}
}

// capacityFailStops kills processors that hold reserved capacity: the
// sender mid-stall (its queued acquire is granted posthumously, then it
// halts at the next operation boundary, and its receiver deadlocks waiting
// for the rest of the burst), the receiver (deliveries to it drop, but
// non-dup drops still release the reserved units, so the ring keeps going
// around it), and the middle of holdKillChain at ten kill times, in the
// deadlocking form and the released one.
func capacityFailStops() []capCase {
	params := core.Params{P: 6, L: 4, O: 1, G: 2}
	kill := func(proc int, at int64) *logp.FaultPlan {
		return &logp.FaultPlan{FailStops: []logp.FailStop{{Proc: proc, At: at}}}
	}
	cases := []capCase{
		{"sender-killed-mid-stall", logp.Config{Params: params, Faults: kill(0, 7)},
			func() logp.Program { return &capFlood{burst: 8, hold: 60} }},
		// Proc 2 expects nothing (its predecessor is dead) and the others
		// their full stream.
		{"receiver-killed-holding-reservations", logp.Config{Params: params, Faults: kill(1, 9)},
			func() logp.Program { return newRingExpect(4, []int{4, 0, 0, 4, 4, 4}) }},
	}
	cases = append(cases, holdKillCases(false)...)
	return append(cases, holdKillCases(true)...)
}

// holdKillCases kills the middle of holdKillChain at ten times, in the
// deadlocking form or, with release, in both released ones.
func holdKillCases(release bool) []capCase {
	chains := []holdKillChain{{burst: 8}}
	names := []string{"hold-kill-at-%d"}
	if release {
		chains = []holdKillChain{{burst: 8, release: true}, {burst: 8, release: true, flood: true}}
		names = []string{"hold-kill-released-at-%d", "hold-kill-flood-released-at-%d"}
	}
	var cases []capCase
	for i, chain := range chains {
		for _, at := range []int64{5, 9, 12, 15, 20, 25, 30, 40, 60, 100} {
			cases = append(cases, capCase{
				fmt.Sprintf(names[i], at),
				logp.Config{Params: core.Params{P: 6, L: 4, O: 1, G: 2}, HoldCapacityUntilReceive: true,
					Faults: &logp.FaultPlan{FailStops: []logp.FailStop{{Proc: 1, At: at}}}},
				func() logp.Program { c := chain; return &c },
			})
		}
	}
	return cases
}

// TestEquivCapacity pins both engines on every capacity case with trace,
// profile and metrics attached; a run that fails must fail with the
// identical error on both.
func TestEquivCapacity(t *testing.T) {
	for _, cases := range [][]capCase{capacityCorners(t), capacityStalls(), capacityFailStops()} {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.CollectTrace = true
				runBoth(t, tc.name, cfg, tc.mk, true, true)
			})
		}
	}
}

// TestEquivHoldKillCompletes: the released hold-kill chain completes at every
// kill time on both engines with exactly proc 1 failed, so TestEquivCapacity
// compares its full Results, traces, profiles and metrics rather than the
// deadlock text the plain chain ends in.
func TestEquivHoldKillCompletes(t *testing.T) {
	for _, tc := range holdKillCases(true) {
		t.Run(tc.name, func(t *testing.T) {
			g, gErr := logp.RunProgram(tc.cfg, tc.mk())
			f, fErr := flat.Run(tc.cfg, tc.mk(), 1)
			if gErr != nil || fErr != nil {
				t.Fatalf("did not complete: goroutine=%v flat=%v", gErr, fErr)
			}
			for _, res := range []logp.Result{g, f} {
				if !reflect.DeepEqual(res.Failed, []int{1}) {
					t.Errorf("Failed = %v, want [1]", res.Failed)
				}
			}
		})
	}
}

// TestReplayExactOnHoldKill: the profiler's replay of both released
// hold-kill chains lands on the machine's finish time for every processor
// at every kill time. On the flood chain a sender woken from its out-queue
// re-checks the in-capacity as the machine does, so it cannot take an
// in-unit ahead of the in-queue's head.
func TestReplayExactOnHoldKill(t *testing.T) {
	for _, tc := range holdKillCases(true) {
		t.Run(tc.name, func(t *testing.T) {
			rec := prof.NewRecorder()
			cfg := tc.cfg
			cfg.Profiler = rec
			res, err := flat.Run(cfg, tc.mk(), 1)
			if err != nil {
				t.Fatal(err)
			}
			run, err := rec.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range run.Finish {
				if f != res.Procs[i].Finish {
					t.Errorf("replay finishes proc %d at %d, machine at %d", i, f, res.Procs[i].Finish)
				}
			}
		})
	}
}

package flat_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/sim"
	"github.com/logp-model/logp/internal/trace"
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
	inputs, err := s.Distribute(values)
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
// outlast several L-cycle spans, and fail-stops of stalled senders and of
// receivers with messages in flight.
// The equivalence suite runs them on both engines, and the one-shard rule
// (shard_test.go) runs them at several requested shard counts.
type capCase struct {
	name string
	cfg  logp.Config
	mk   func() logp.Program
}

// capacityCorners covers the registry programs and the parameter corners:
// g > L (capacity 1, every link serialized), L = 0 and L = o = 0.
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
	}
}

// capFlood: proc 0 fires burst back-to-back sends at proc 1, which idles
// for hold cycles before draining its inbox. Units free at arrival, so the
// lone sender never stalls however long 1 idles. The remaining processors
// finish at once.
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

// manyToOne floods processor 0: every other processor sends it msgs
// messages back to back, from cycle at on, while 0 waits for wait cycles
// before draining its inbox. The P-1 senders share 0's ceil(L/g) in-units, so they stall even
// though units free at arrival, and a freed unit has several claimants.
// 0 finishes on the last message it expects: msgs from every sender but
// skip (0 for none), a sender the fault plan kills, whose remaining
// messages never come.
type manyToOne struct {
	msgs int
	wait int64
	skip int
	at   int64
	left int // messages 0 still expects; only processor 0 touches it
}

func (c *manyToOne) Start(n logp.Node) {
	if n.ID() != 0 {
		if c.at > 0 {
			n.WaitUntil(c.at)
		}
		for i := 0; i < c.msgs; i++ {
			n.Send(0, 9, i)
		}
		n.Done()
		return
	}
	c.left = (n.P() - 1) * c.msgs
	if c.skip != 0 {
		c.left -= c.msgs
	}
	n.Wait(c.wait)
}

func (c *manyToOne) Message(n logp.Node, m logp.Message) {
	if m.From == c.skip {
		return
	}
	if c.left--; c.left == 0 {
		n.Done()
	}
}

// floodParams is the machine of the named many-to-one cases: capacity 2,
// shared by five senders.
var floodParams = core.Params{P: 6, L: 4, O: 1, G: 2}

// floodKillSender and floodKillReceiver are the processors, and
// floodSenderKills and floodReceiverKills the times, of the many-to-one
// fail-stop cases. The sender's four stalls on 0's in-units span cycles
// 1-5, 7-13, 15-25 and 27-33, and it is inside one at each of its times
// (TestFloodKillsStalledSender): a stall's first cycle, its middle and its
// last. 0 waits until 30 and drains until 69, so its kills land while the
// flood arrives at a dead destination and while its inbox still holds
// messages.
const (
	floodKillSender   = 3
	floodKillReceiver = 0
)

var (
	floodSenderKills   = []int64{1, 3, 7, 9, 12, 15, 20, 24, 30, 32}
	floodReceiverKills = []int64{3, 9, 12, 20, 30, 35, 40, 50, 60, 68}
)

// floodStalls are the fault-free many-to-one cases: the receiver draining
// at once or after a wait, and a capacity of one (g > L).
func floodStalls() []capCase {
	flood := func(wait int64) func() logp.Program {
		return func() logp.Program { return &manyToOne{msgs: 4, wait: wait} }
	}
	return []capCase{
		{"many-to-one", logp.Config{Params: floodParams}, flood(30)},
		{"many-to-one-no-wait", logp.Config{Params: floodParams}, flood(0)},
		{"many-to-one-cap1", logp.Config{Params: core.Params{P: 5, L: 3, O: 2, G: 4}}, flood(7)},
	}
}

// floodFailStops kill a stalled sender of the many-to-one flood at each of
// floodSenderKills, and the flooded receiver at each of floodReceiverKills.
func floodFailStops() []capCase {
	var cases []capCase
	for _, at := range floodSenderKills {
		cases = append(cases, capCase{fmt.Sprintf("many-to-one-sender-killed-at-%d", at),
			logp.Config{Params: floodParams, Faults: failStop(floodKillSender, at)},
			func() logp.Program { return &manyToOne{msgs: 4, wait: 30, skip: floodKillSender} }})
	}
	for _, at := range floodReceiverKills {
		cases = append(cases, capCase{fmt.Sprintf("many-to-one-receiver-killed-at-%d", at),
			logp.Config{Params: floodParams, Faults: failStop(floodKillReceiver, at)},
			func() logp.Program { return &manyToOne{msgs: 4, wait: 30} }})
	}
	return cases
}

// failStop is a fault plan that kills proc at cycle at.
func failStop(proc int, at int64) *logp.FaultPlan {
	return &logp.FaultPlan{FailStops: []logp.FailStop{{Proc: proc, At: at}}}
}

// capacityStalls runs capFlood, whose lone sender never stalls, and the
// many-to-one flood, whose senders do.
func capacityStalls() []capCase {
	return append([]capCase{{"arrival-release", logp.Config{Params: floodParams},
		func() logp.Program { return &capFlood{burst: 8, hold: 60} }}}, floodStalls()...)
}

// capacityFailStops kills processors while others stall on capacity: the
// lone capFlood sender (its receiver then deadlocks waiting for the rest of
// the burst), a ring receiver (deliveries to it drop and release their
// units, so the ring keeps going around it), and the many-to-one flood's
// stalled sender and flooded receiver.
func capacityFailStops() []capCase {
	return append([]capCase{
		{"lone-sender-killed", logp.Config{Params: floodParams, Faults: failStop(0, 7)},
			func() logp.Program { return &capFlood{burst: 8, hold: 60} }},
		// Proc 2 expects nothing (its predecessor is dead) and the others
		// their full stream.
		{"receiver-killed-holding-reservations", logp.Config{Params: floodParams, Faults: failStop(1, 9)},
			func() logp.Program { return newRingExpect(4, []int{4, 0, 0, 4, 4, 4}) }},
	}, floodFailStops()...)
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

// floodSweep is the many-to-one flood on every machine with P processors,
// L 1-8, o 0-3 and g 1-5, with receiver waits 0, 7 and 30 and four
// messages per sender.
func floodSweep(p int) []capCase {
	var cases []capCase
	for l := int64(1); l <= 8; l++ {
		for o := int64(0); o <= 3; o++ {
			for g := int64(1); g <= 5; g++ {
				for _, wait := range []int64{0, 7, 30} {
					prm := core.Params{P: p, L: l, O: o, G: g}
					cases = append(cases, capCase{fmt.Sprintf("%v/wait=%d", prm, wait), logp.Config{Params: prm},
						func() logp.Program { return &manyToOne{msgs: 4, wait: wait} }})
				}
			}
		}
	}
	return cases
}

// TestFloodStallsAndCompletes: every named many-to-one case stalls on
// capacity and completes, and each fail-stop case reports exactly its
// victim failed.
func TestFloodStallsAndCompletes(t *testing.T) {
	for _, tc := range append(floodStalls(), floodFailStops()...) {
		t.Run(tc.name, func(t *testing.T) {
			res, err := flat.Run(tc.cfg, tc.mk(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalStall() == 0 {
				t.Error("no sender stalled")
			}
			var want []int
			if fp := tc.cfg.Faults; fp != nil {
				want = []int{fp.FailStops[0].Proc}
			}
			if !reflect.DeepEqual(res.Failed, want) {
				t.Errorf("Failed = %v, want %v", res.Failed, want)
			}
		})
	}
}

// TestFloodKillsStalledSender: at every kill time of the many-to-one
// sender cases, the victim is inside a capacity stall.
func TestFloodKillsStalledSender(t *testing.T) {
	cfg := logp.Config{Params: floodParams, CollectTrace: true}
	res, err := flat.Run(cfg, &manyToOne{msgs: 4, wait: 30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range floodSenderKills {
		t.Run(fmt.Sprintf("at-%d", at), func(t *testing.T) {
			for _, sg := range res.Trace.Segments {
				if sg.Proc == floodKillSender && sg.Kind == trace.Stall && sg.Start <= at && at < sg.End {
					return
				}
			}
			t.Errorf("sender %d is not stalled at cycle %d", floodKillSender, at)
		})
	}
}

// TestReplayExactOnFlood: the profiler's replay of every many-to-one case,
// the named ones and the sweep, lands on the machine's finish time for
// every processor. A freed unit wakes the longest-queued sender to
// re-check, as on the machine, so a sender acting at the same instant can
// take it first; a replay that hands the unit straight to the queue's head
// reorders the senders' finishes.
func TestReplayExactOnFlood(t *testing.T) {
	for _, tc := range append(floodStalls(), floodFailStops()...) {
		t.Run(tc.name, func(t *testing.T) { checkReplayFinish(t, tc) })
	}
	for p := 3; p <= 6; p++ {
		t.Run(fmt.Sprintf("sweep-P=%d", p), func(t *testing.T) {
			for _, tc := range floodSweep(p) {
				checkReplayFinish(t, tc)
			}
		})
	}
}

// checkReplayFinish runs tc on the flat engine with a recorder attached
// and compares the replay's finish time for every processor with the
// machine's.
func checkReplayFinish(t *testing.T, tc capCase) {
	t.Helper()
	rec := prof.NewRecorder()
	cfg := tc.cfg
	cfg.Profiler = rec
	res, err := flat.Run(cfg, tc.mk(), 1)
	if err != nil {
		t.Errorf("%s: %v", tc.name, err)
		return
	}
	run, err := rec.Analyze()
	if err != nil {
		t.Errorf("%s: %v", tc.name, err)
		return
	}
	for i, f := range run.Finish {
		if f != res.Procs[i].Finish {
			t.Errorf("%s: replay finishes proc %d at %d, machine at %d", tc.name, i, f, res.Procs[i].Finish)
		}
	}
}

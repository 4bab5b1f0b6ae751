package flat_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

// longWaits idles each processor for three waits of 2^62 cycles, the last
// of which ends past the int64 cycle count.
type longWaits struct{}

func (longWaits) Start(n logp.Node) {
	for i := 0; i < 3; i++ {
		n.Wait(1 << 62)
	}
	n.Done()
}

func (longWaits) Message(logp.Node, logp.Message) {}

// lateSend has processor 0 wait until cycle at and then send processor 1 one
// message, which 1 finishes on; the others finish at once.
type lateSend struct{ at int64 }

func (s lateSend) Start(n logp.Node) {
	switch n.ID() {
	case 0:
		n.WaitUntil(s.at)
		n.Send(1, 0, nil)
		n.Done()
	case 1:
	default:
		n.Done()
	}
}

func (lateSend) Message(n logp.Node, _ logp.Message) { n.Done() }

// TestStretchOverflowFailsBothEngines: a compute that a stretch factor —
// compute jitter, processor skew, a slowdown window or a topology rate —
// pushes past the int64 cycle count fails the run on both engines with the
// same StretchOverflowError, and a moderate stretch still finishes no
// earlier than the unstretched run. A compute or wait that passes the int64
// cycle count unstretched, a send whose overhead or flight (a duplicate's
// included) passes it, and a reception whose overhead does fail it with the
// same ClockOverflowError.
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
	alltoall := func(work int64) func(*testing.T) logp.Program {
		return func(t *testing.T) logp.Program { return stretchProg(t, work) }
	}
	cases := []struct {
		name  string
		cfg   logp.Config
		prog  func(*testing.T) logp.Program
		clock bool // unstretched: a ClockOverflowError
	}{
		{"compute-jitter", logp.Config{Params: stretchParams, ComputeJitter: 1e300}, alltoall(3), false},
		{"proc-skew", logp.Config{Params: stretchParams, ProcSkew: 1e300}, alltoall(3), false},
		{"slowdown", logp.Config{Params: stretchParams, Faults: &logp.FaultPlan{
			Slowdowns: []logp.Slowdown{{Proc: 2, Start: 0, End: 1000, Factor: 1e300}},
		}}, alltoall(3), false},
		{"topology-rate", logp.Config{Params: stretchParams, Topology: rated}, alltoall(3), false},
		// Every jittered length fits in an int64, but a processor's second
		// compute would end past the int64 cycle count.
		{"jitter-past-the-clock", logp.Config{Params: stretchParams, ComputeJitter: 1}, alltoall(1 << 62), false},
		// The daemon spec {"program":"alltoall","work":4611686018427387904,
		// "machine":{"p":4,"l":6,"o":2,"g":4}} once finished at about 2^62
		// on the flat engine, where a processor's second compute wrapped,
		// and crashed the goroutine engine.
		{"compute-past-the-clock", logp.Config{Params: stretchParams}, alltoall(1 << 62), true},
		{"wait-past-the-clock", logp.Config{Params: stretchParams},
			func(*testing.T) logp.Program { return longWaits{} }, true},
		// The daemon spec {"program":"alltoall","work":9223372036854775800,
		// "machine":{"p":4,"l":6,"o":2,"g":4}} crashed both engines on the
		// first send's arrival: the flat one on a scheduling panic, the
		// goroutine one on a process goroutine, taking the process down.
		{"send-past-the-clock", logp.Config{Params: stretchParams}, alltoall(math.MaxInt64 - 7), true},
		{"send-overhead-past-the-clock", logp.Config{Params: stretchParams},
			func(*testing.T) logp.Program { return lateSend{at: math.MaxInt64 - 1} }, true},
		// The original lands on the last cycle; its duplicate lands later.
		{"duplicate-past-the-clock", logp.Config{Params: stretchParams, Faults: &logp.FaultPlan{
			Default: logp.LinkFault{Dup: 1},
		}}, func(*testing.T) logp.Program { return lateSend{at: math.MaxInt64 - 8} }, true},
		{"receive-past-the-clock", logp.Config{Params: stretchParams},
			func(*testing.T) logp.Program { return lateSend{at: math.MaxInt64 - 9} }, true},
		// The message lands on the last cycle, which the flat queue once
		// never reached, and its reception ends past it.
		{"arrival-on-the-last-cycle", logp.Config{Params: stretchParams},
			func(*testing.T) logp.Program { return lateSend{at: math.MaxInt64 - 8} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, gErr := logp.RunProgram(tc.cfg, tc.prog(t))
			_, fErr := flat.Run(tc.cfg, tc.prog(t), 1)
			if tc.clock {
				sameError[logp.ClockOverflowError](t, gErr, fErr)
			} else {
				sameError[logp.StretchOverflowError](t, gErr, fErr)
			}
		})
	}
}

// sameError fails t unless both engines' errors are an E, equal as values
// and in their text.
func sameError[E comparable, PE interface {
	*E
	error
}](t *testing.T, gErr, fErr error) {
	t.Helper()
	var g, f PE
	if !errors.As(gErr, &g) || !errors.As(fErr, &f) {
		t.Fatalf("want a %T on both engines: goroutine=%v flat=%v", g, gErr, fErr)
	}
	if *g != *f || gErr.Error() != fErr.Error() {
		t.Errorf("engines disagree: goroutine=%v flat=%v", gErr, fErr)
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

// TestSendPastTheClockSharded: the windowed kernel fails a send or a
// reception past the int64 cycle count with the sequential kernel's error,
// whether or not the message crosses a shard boundary. The window that
// reaches the last cycle runs to it: a delivery there once left the kernel
// looping on an empty window.
func TestSendPastTheClockSharded(t *testing.T) {
	cfg := logp.Config{Params: stretchParams, DisableCapacity: true}
	for _, prog := range []func() logp.Program{
		func() logp.Program { return stretchProg(t, math.MaxInt64-7) },
		func() logp.Program { return lateSend{at: math.MaxInt64 - 8} },
	} {
		_, want := flat.Run(cfg, prog(), 1)
		for _, shards := range []int{2, 4} {
			_, err := flat.Run(cfg, prog(), shards)
			var e *logp.ClockOverflowError
			if !errors.As(err, &e) || err.Error() != want.Error() {
				t.Errorf("shards=%d: err = %v, want %v", shards, err, want)
			}
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

// TestFlightsPastInt64Rejected: both engines refuse, with the same error, a
// config whose latency draws could leave int64. The daemon specs
// {"program":"pingpong","machine":{"p":2,"l":9223372036854775807,"o":2,
// "g":4,"latency_jitter":9223372036854775807}} and any fault jitter of
// 2^63-1 once panicked rand.Int63n, whose argument is jitter+1, and
// "l":9223372036854775800 with "faults":{"jitter":100,"drop":0.1} wrapped
// the drawn flight negative. A flight is at most the longest link's L plus
// the fault jitter J, a duplicate's L + 2J + 1; a config whose bounds just
// fit is accepted, and both engines run it to the same outcome.
func TestFlightsPastInt64Rejected(t *testing.T) {
	params := func(p int, l int64) core.Params { return core.Params{P: p, L: l, O: 2, G: 4} }
	faults := func(lf logp.LinkFault) *logp.FaultPlan { return &logp.FaultPlan{Default: lf} }
	twoTier, err := topo.TwoTier(params(4, 6), 2, topo.Link{L: math.MaxInt64 - 8, O: 1, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  logp.Config
		fits bool
	}{
		{"latency-jitter", logp.Config{Params: params(2, math.MaxInt64), LatencyJitter: math.MaxInt64}, false},
		{"fault-jitter", logp.Config{Params: params(2, 6), Faults: faults(logp.LinkFault{Jitter: math.MaxInt64})}, false},
		{"fault-jitter-zero-latency", logp.Config{Params: core.Params{P: 2},
			Faults: faults(logp.LinkFault{Jitter: math.MaxInt64})}, false},
		{"flight-wraps", logp.Config{Params: params(2, math.MaxInt64-7),
			Faults: faults(logp.LinkFault{Jitter: 100, Drop: 0.1})}, false},
		{"link-override", logp.Config{Params: params(2, 6), Faults: &logp.FaultPlan{
			Links: map[logp.Link]logp.LinkFault{{From: 0, To: 1}: {Jitter: math.MaxInt64}}}}, false},
		{"two-tier-node-link", logp.Config{Params: params(4, 6), Topology: twoTier,
			Faults: faults(logp.LinkFault{Jitter: 100})}, false},
		{"duplicate-wraps", logp.Config{Params: params(2, math.MaxInt64-200),
			Faults: faults(logp.LinkFault{Jitter: 100, Dup: 0.5})}, false},
		{"latency-jitter-fits", logp.Config{Params: params(2, math.MaxInt64), LatencyJitter: math.MaxInt64 - 1}, true},
		{"flight-fits", logp.Config{Params: params(2, math.MaxInt64-100),
			Faults: faults(logp.LinkFault{Jitter: 100, Drop: 0.1})}, true},
		{"duplicate-fits", logp.Config{Params: params(2, math.MaxInt64-201),
			Faults: faults(logp.LinkFault{Jitter: 100, Dup: 0.5})}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := lateSend{at: 0}
			gRes, gErr := logp.RunProgram(tc.cfg, prog)
			fRes, fErr := flat.Run(tc.cfg, prog, 1)
			switch {
			case tc.fits && gErr == nil && fErr == nil:
				if gRes.Time != fRes.Time {
					t.Errorf("engines disagree: goroutine time %d, flat time %d", gRes.Time, fRes.Time)
				}
			case gErr == nil || fErr == nil || gErr.Error() != fErr.Error():
				t.Errorf("engines disagree: goroutine=%v flat=%v", gErr, fErr)
			case tc.fits == strings.Contains(gErr.Error(), "draw"):
				t.Errorf("fits=%v, error %v", tc.fits, gErr)
			}
		})
	}
}

// TestGapPastTheClockFailsBothEngines: a send or reception whose gap bound
// lies past the int64 cycle count fails the run on both engines, with the
// same ClockOverflowError, and the windowed kernel fails it as the
// sequential one does; a processor whose last operation sets such a bound
// and that does nothing after it finishes normally. On this machine the
// P=4 all-to-all makes its 12 sends g apart and then its 12 receptions g
// apart, finishing at 22g + 16. The daemon spec {"program":"alltoall",
// "machine":{"p":4,"l":6,"o":2,"g":840000000000000000}} once finished at
// 10g + 56 on both engines, because the bound after the eleventh send,
// initiation + max(o, g), wrapped negative and the twelfth send did not
// wait; at g = 830000000000000000 the receptions' bound wrapped the same
// way, and both engines answered 11g + 38.
func TestGapPastTheClockFailsBothEngines(t *testing.T) {
	const wide = 1 << 62                // a gap most of the way to the end of the clock
	const at = math.MaxInt64 - wide - 4 // a send at this cycle sets a bound 4 short of the end
	params := func(g int64) core.Params { return core.Params{P: 4, L: 6, O: 2, G: g} }
	alltoall := func(t *testing.T) logp.Program { return stretchProg(t, 0) }
	cases := []struct {
		name string
		cfg  logp.Config
		prog func(*testing.T) logp.Program
		time int64                    // the finish, when the run succeeds
		want *logp.ClockOverflowError // the error, when it fails
	}{
		{"alltoall-fits", logp.Config{Params: params(4e17)}, alltoall, 22*4e17 + 16, nil},
		{"alltoall-receive-gap", logp.Config{Params: params(83e16)}, alltoall, 0,
			&logp.ClockOverflowError{Proc: 0, Op: "receive", Cycles: 83e16 - 2, At: 11*83e16 + 4}},
		{"alltoall-send-gap", logp.Config{Params: params(84e16)}, alltoall, 0,
			&logp.ClockOverflowError{Proc: 0, Op: "send", Cycles: 84e16 - 2, At: 10*84e16 + 2}},
		// Processor 2 stalls 6 cycles for 0's in-capacity unit, so its bound
		// is its injection + g - o, past the clock though its initiation + g
		// is not, and its second send fails at once. The others' bounds fit.
		{"send-gap-after-stall", logp.Config{Params: core.Params{P: 3, L: 6, O: 2, G: wide}},
			func(*testing.T) logp.Program { return &manyToOne{msgs: 2, at: at} }, 0,
			&logp.ClockOverflowError{Proc: 2, Op: "send", Cycles: wide - 2, At: at + 8}},
		// Without capacity every message lands at at+8. Each sender's bound,
		// at + g, fits; the receiver's, at + 8 + g, does not, so its second
		// reception fails.
		{"receive-gap", logp.Config{Params: params(wide), DisableCapacity: true},
			func(*testing.T) logp.Program { return &manyToOne{msgs: 1, at: at} }, 0,
			&logp.ClockOverflowError{Proc: 0, Op: "receive", Cycles: wide - 2, At: at + 10}},
		// Both ends set a bound past the clock on their last operation.
		{"last-op-gap", logp.Config{Params: params(wide)},
			func(*testing.T) logp.Program { return lateSend{at: math.MaxInt64 - 20} }, math.MaxInt64 - 10, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gRes, gErr := logp.RunProgram(tc.cfg, tc.prog(t))
			fRes, fErr := flat.Run(tc.cfg, tc.prog(t), 1)
			if tc.want == nil {
				if gErr != nil || fErr != nil || gRes.Time != tc.time || fRes.Time != tc.time {
					t.Fatalf("goroutine: time %d, err %v; flat: time %d, err %v; want time %d",
						gRes.Time, gErr, fRes.Time, fErr, tc.time)
				}
			} else {
				sameError[logp.ClockOverflowError](t, gErr, fErr)
				if e := (*logp.ClockOverflowError)(nil); !errors.As(fErr, &e) || *e != *tc.want {
					t.Errorf("err = %v, want %v", fErr, tc.want)
				}
			}
			// The windowed kernel needs capacity off.
			cfg := tc.cfg
			cfg.DisableCapacity = true
			seqRes, seqErr := flat.Run(cfg, tc.prog(t), 1)
			for _, shards := range []int{2, 4} {
				res, err := flat.Run(cfg, tc.prog(t), shards)
				if fmt.Sprint(err) != fmt.Sprint(seqErr) || res.Time != seqRes.Time {
					t.Errorf("shards=%d: time %d, err %v; sequential: time %d, err %v", shards, res.Time, err, seqRes.Time, seqErr)
				}
			}
		})
	}
}

package logp

import (
	"fmt"
	"math"
	"math/rand"
)

// Fault injection. Section 2 of the paper assumes the network "delivers all
// messages reliably", while conceding that real interconnects degrade: links
// drop and duplicate packets, latency grows under congestion, and nodes slow
// down or die. A FaultPlan attached to Config.Faults injects exactly those
// degradations into a machine run, deterministically in its own seed, so
// that protocols layered on the machine (internal/reliable) can be tested
// against the failures they exist to mask. With Config.Faults == nil every
// fault check is a single nil test and the simulator behaves — and costs —
// exactly as the fault-free machine, so the zero-allocation hot paths and
// the Figure 3/4 exactness results are untouched.
//
// Semantics (documented in DESIGN.md §7):
//
//   - a dropped message is injected normally (the sender pays o, the gap and
//     the capacity constraint) and is lost at the destination module: its
//     capacity slots free at the would-be arrival, as a delivered
//     message's do;
//   - a duplicated message yields a second copy, created inside the network,
//     that arrives strictly after the original (at least one cycle later,
//     plus its own jitter draw) and is exempt from the capacity constraint —
//     the sender injected only one message;
//   - fault jitter ADDS latency beyond L, deliberately violating the model's
//     upper bound: it models the degraded network the paper's L does not;
//   - a slowdown stretches Compute calls whose start time falls inside the
//     window — transient contention, thermal throttling, a noisy neighbour;
//   - a fail-stopped processor halts at the next machine operation at or
//     after its deadline (a blocked receiver is woken and halts immediately);
//     messages addressed to it are discarded on arrival, and the run reports
//     it in Result.Failed instead of failing. The hardware Barrier is NOT
//     fault-tolerant: if a dead processor never arrives, the survivors
//     deadlock, which the kernel reports as such.
//
// Determinism contract: all fault randomness comes from a dedicated
// generator seeded with FaultPlan.Seed, and a draw is made only when the
// corresponding rate is non-zero, in the fixed per-message order
// jitter → drop → duplicate (→ duplicate's jitter). Two runs with equal
// Config, FaultPlan and program are therefore bit-identical, and an
// all-zero FaultPlan reproduces the nil-plan run exactly, cycle for cycle.

// Link identifies a directed sender→receiver pair of processors.
type Link struct{ From, To int }

// LinkFault describes the misbehaviour of one directed link. The zero value
// is a perfect link.
type LinkFault struct {
	// Drop is the probability, per message, that the network loses the
	// message in flight.
	Drop float64
	// Dup is the probability, per delivered message, that the network
	// delivers a second copy of it.
	Dup float64
	// Jitter adds uniform extra latency in [0, Jitter] cycles on top of the
	// model's L bound (degradation, unlike Config.LatencyJitter which stays
	// under L).
	Jitter int64
}

func (lf LinkFault) validate() error {
	if !(0 <= lf.Drop && lf.Drop <= 1) {
		return fmt.Errorf("logp: drop rate %v outside [0,1]", lf.Drop)
	}
	if !(0 <= lf.Dup && lf.Dup <= 1) {
		return fmt.Errorf("logp: duplication rate %v outside [0,1]", lf.Dup)
	}
	if lf.Jitter < 0 {
		return fmt.Errorf("logp: negative fault jitter %d", lf.Jitter)
	}
	return nil
}

// Slowdown is a transient processor slowdown: Compute calls of Proc whose
// start time falls in [Start, End) stretch by Factor.
type Slowdown struct {
	Proc       int
	Start, End int64
	Factor     float64 // >= 1
}

// FailStop halts processor Proc at the first machine operation at or after
// local time At.
type FailStop struct {
	Proc int
	At   int64
}

// FaultPlan is a complete, seeded description of the faults to inject into
// one machine run. The zero value injects nothing (but still exercises the
// fault-aware bookkeeping, which is how the chaos experiment pins the
// zero-fault configuration to the exact Figure 3/4 numbers).
type FaultPlan struct {
	// Seed drives all fault randomness, independently of Config.Seed.
	Seed int64
	// Default applies to every link without an explicit override.
	Default LinkFault
	// Links overrides Default per directed link (the entry replaces Default
	// entirely for that link).
	Links map[Link]LinkFault
	// Slowdowns are transient compute-stretch windows.
	Slowdowns []Slowdown
	// FailStops kill processors at fixed times.
	FailStops []FailStop
}

// Validate checks the plan against a machine of P processors.
func (fp *FaultPlan) Validate(P int) error {
	if err := fp.Default.validate(); err != nil {
		return err
	}
	for l, lf := range fp.Links {
		if l.From < 0 || l.From >= P || l.To < 0 || l.To >= P {
			return fmt.Errorf("logp: fault link %d->%d outside machine of P=%d", l.From, l.To, P)
		}
		if err := lf.validate(); err != nil {
			return err
		}
	}
	for _, s := range fp.Slowdowns {
		if s.Proc < 0 || s.Proc >= P {
			return fmt.Errorf("logp: slowdown for proc %d outside machine of P=%d", s.Proc, P)
		}
		if !(1 <= s.Factor && s.Factor <= math.MaxFloat64) {
			return fmt.Errorf("logp: slowdown factor %v not a finite value >= 1", s.Factor)
		}
		if s.End <= s.Start {
			return fmt.Errorf("logp: empty slowdown window [%d,%d)", s.Start, s.End)
		}
	}
	for _, fs := range fp.FailStops {
		if fs.Proc < 0 || fs.Proc >= P {
			return fmt.Errorf("logp: fail-stop for proc %d outside machine of P=%d", fs.Proc, P)
		}
		if fs.At < 0 {
			return fmt.Errorf("logp: fail-stop at negative time %d", fs.At)
		}
	}
	return nil
}

// validateFlights checks that no link's fault jitter can carry a flight
// past int64 on links whose latency is at most maxL: the jitter draw covers
// [0, J], so it needs J+1 within int64, a flight is at most maxL + J, and a
// duplicate's, which lands at least a cycle after the original, at most
// maxL + 2J + 1.
func (fp *FaultPlan) validateFlights(maxL int64) error {
	fits := func(lf LinkFault) bool {
		room := math.MaxInt64 - maxL // maxL >= 0
		j := lf.Jitter
		if j == math.MaxInt64 || j > room {
			return false
		}
		return lf.Dup == 0 || j <= room-j-1
	}
	if !fits(fp.Default) {
		return fmt.Errorf("logp: fault jitter %d on links of latency up to %d draws a flight past the int64 cycle count", fp.Default.Jitter, maxL)
	}
	for l, lf := range fp.Links {
		if !fits(lf) {
			return fmt.Errorf("logp: fault jitter %d on link %d->%d draws a flight past the int64 cycle count", lf.Jitter, l.From, l.To)
		}
	}
	return nil
}

// faultState is the per-run runtime of a FaultPlan.
type faultState struct {
	plan *FaultPlan
	rng  *rand.Rand
	slow [][]Slowdown // per-processor slowdown windows
}

func newFaultState(plan *FaultPlan, P int) *faultState {
	f := &faultState{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
	if len(plan.Slowdowns) > 0 {
		f.slow = make([][]Slowdown, P)
		for _, s := range plan.Slowdowns {
			f.slow[s.Proc] = append(f.slow[s.Proc], s)
		}
	}
	return f
}

// link resolves the fault parameters of the directed link from→to.
func (f *faultState) link(from, to int) LinkFault {
	if f.plan.Links != nil {
		if lf, ok := f.plan.Links[Link{from, to}]; ok {
			return lf
		}
	}
	return f.plan.Default
}

// slowFactor returns the compute stretch for proc at local time t (the
// largest factor among overlapping windows, 1 if none).
func (f *faultState) slowFactor(proc int, t int64) float64 {
	if f.slow == nil {
		return 1
	}
	factor := 1.0
	for _, s := range f.slow[proc] {
		if t >= s.Start && t < s.End {
			factor = math.Max(factor, s.Factor)
		}
	}
	return factor
}

// messageFate draws the fate of one message on the link from→to, in the
// fixed order jitter → drop → duplicate → duplicate jitter, consuming
// random draws only for non-zero rates so an all-zero plan leaves the
// generator untouched.
func (f *faultState) messageFate(from, to int, lat int64) (newLat int64, drop, dup bool, dupLat int64) {
	lf := f.link(from, to)
	if lf.Jitter > 0 {
		lat += f.rng.Int63n(lf.Jitter + 1)
	}
	if lf.Drop > 0 && f.rng.Float64() < lf.Drop {
		return lat, true, false, 0
	}
	if lf.Dup > 0 && f.rng.Float64() < lf.Dup {
		dupLat = lat + 1
		if lf.Jitter > 0 {
			dupLat += f.rng.Int63n(lf.Jitter + 1)
		}
		return lat, false, true, dupLat
	}
	return lat, false, false, 0
}

// procFailure is the panic value a fail-stopped processor unwinds with; the
// machine recovers it at the processor body boundary.
type procFailure struct{ proc int }

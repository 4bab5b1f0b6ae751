package logp

import (
	"math"
	"testing"
)

// drainBody receives until deadline, ignoring content: a receiver for tests
// whose messages may never arrive.
func drainBody(deadline int64) func(p *Proc) {
	return func(p *Proc) {
		for {
			if _, ok := p.RecvTimeout(deadline); !ok {
				return
			}
		}
	}
}

// pingPong is a small program with jitter-sensitive timing, used to compare
// runs cycle for cycle.
func pingPong(rounds int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < rounds; i++ {
			switch p.ID() {
			case 0:
				p.Send(1, i, i)
				p.Recv()
				p.Compute(3)
			case 1:
				p.Recv()
				p.Compute(2)
				p.Send(0, i, i)
			}
		}
	}
}

func TestZeroFaultPlanMatchesNil(t *testing.T) {
	// An all-zero FaultPlan must reproduce the nil-plan run exactly: no
	// random draws are consumed and every fault check is a no-op.
	base := cfg(2, 6, 2, 4)
	base.LatencyJitter = 3
	base.ComputeJitter = 0.5
	base.Seed = 42

	want, err := Run(base, pingPong(20))
	if err != nil {
		t.Fatal(err)
	}
	withPlan := base
	withPlan.Faults = &FaultPlan{Seed: 7}
	got, err := Run(withPlan, pingPong(20))
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Messages != want.Messages {
		t.Errorf("zero plan run (T=%d, msgs=%d) differs from nil plan (T=%d, msgs=%d)",
			got.Time, got.Messages, want.Time, want.Messages)
	}
	if got.Dropped != 0 || got.Duplicated != 0 || got.Undelivered != 0 || got.Failed != nil {
		t.Errorf("zero plan reported faults: %+v", got)
	}
	for i := range want.Procs {
		if got.Procs[i] != want.Procs[i] {
			t.Errorf("proc %d stats diverge: %+v vs %+v", i, got.Procs[i], want.Procs[i])
		}
	}
}

func TestDropLosesMessageAndSettlesCapacity(t *testing.T) {
	// Every message on 0->1 is dropped; the sender must not wedge on the
	// capacity constraint (the network frees a dropped message's slots at
	// its would-be arrival), even under HoldCapacityUntilReceive.
	for _, hold := range []bool{false, true} {
		c := cfg(2, 6, 2, 4)
		c.HoldCapacityUntilReceive = hold
		c.Faults = &FaultPlan{
			Links: map[Link]LinkFault{{From: 0, To: 1}: {Drop: 1}},
		}
		const n = 10 // well beyond capacity ceil(L/g) = 2
		res, err := Run(c, func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < n; i++ {
					p.Send(1, 0, i)
				}
			} else {
				drainBody(200)(p)
			}
		})
		if err != nil {
			t.Fatalf("hold=%v: %v", hold, err)
		}
		if res.Dropped != n {
			t.Errorf("hold=%v: dropped %d messages, want %d", hold, res.Dropped, n)
		}
		if res.Messages != 0 {
			t.Errorf("hold=%v: delivered %d messages, want 0", hold, res.Messages)
		}
	}
}

func TestDuplicateDeliversExtraCopy(t *testing.T) {
	c := cfg(2, 6, 2, 4)
	c.Faults = &FaultPlan{
		Links: map[Link]LinkFault{{From: 0, To: 1}: {Dup: 1}},
	}
	var got []Message
	res, err := Run(c, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 7, "x")
		case 1:
			for len(got) < 2 {
				m, ok := p.RecvTimeout(300)
				if !ok {
					return
				}
				got = append(got, m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("received %d copies, want 2", len(got))
	}
	if got[0].Dup() || !got[1].Dup() {
		t.Errorf("dup flags = %v, %v; want original first, copy second", got[0].Dup(), got[1].Dup())
	}
	if got[1].ArrivedAt <= got[0].ArrivedAt {
		t.Errorf("copy arrived at %d, not after original at %d", got[1].ArrivedAt, got[0].ArrivedAt)
	}
	if res.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", res.Duplicated)
	}
}

func TestFaultJitterDelaysBeyondL(t *testing.T) {
	c := cfg(2, 6, 2, 4)
	// Disable capacity so injection is exactly SentAt+o: jittered messages
	// linger in transit and would otherwise stall later sends, shifting
	// initiations.
	c.DisableCapacity = true
	c.Faults = &FaultPlan{
		Seed:    3,
		Default: LinkFault{Jitter: 10},
	}
	var msgs []Message
	_, err := Run(c, func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 20; i++ {
				p.Send(1, 0, i)
			}
		case 1:
			for i := 0; i < 20; i++ {
				msgs = append(msgs, p.Recv())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	beyond := false
	for i, m := range msgs {
		flight := m.ArrivedAt - (m.SentAt + 2) // injected o after initiation
		if flight < 6 || flight > 16 {
			t.Errorf("message %d flew %d cycles, want within [L, L+Jitter] = [6, 16]", i, flight)
		}
		if flight > 6 {
			beyond = true
		}
	}
	if !beyond {
		t.Error("no message exceeded L; jitter never applied")
	}
}

func TestSlowdownStretchesCompute(t *testing.T) {
	c := cfg(1, 0, 0, 0)
	c.Faults = &FaultPlan{
		Slowdowns: []Slowdown{{Proc: 0, Start: 100, End: 200, Factor: 3}},
	}
	var in, out int64
	_, err := Run(c, func(p *Proc) {
		p.Compute(50) // outside the window: 50 cycles
		out = p.Now()
		p.WaitUntil(100)
		p.Compute(50) // inside: 150 cycles
		in = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != 50 {
		t.Errorf("compute outside window finished at %d, want 50", out)
	}
	if in != 250 {
		t.Errorf("compute inside window finished at %d, want 100+3*50=250", in)
	}
}

func TestFailStopHaltsProcessor(t *testing.T) {
	c := cfg(3, 6, 2, 4)
	c.Faults = &FaultPlan{
		FailStops: []FailStop{{Proc: 1, At: 30}},
	}
	var rounds int
	res, err := Run(c, func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 10; i++ {
				p.Send(1, 0, i) // messages after t=30 arrive at a corpse
			}
		case 1:
			for {
				if _, ok := p.RecvTimeout(1000); !ok {
					return
				}
				rounds++
			}
		case 2:
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", res.Failed)
	}
	finish := res.Procs[1].Finish
	if finish < 30 || finish > 40 {
		t.Errorf("victim halted at %d, want shortly after the kill at 30", finish)
	}
	if res.Dropped == 0 {
		t.Error("no messages discarded at the dead processor")
	}
	if res.Procs[2].Finish != 100 {
		t.Errorf("bystander finished at %d, want 100", res.Procs[2].Finish)
	}
}

func TestFailStopAtTimeZero(t *testing.T) {
	// A kill at t=0 fires before the victim's first operation.
	c := cfg(2, 6, 2, 4)
	c.Faults = &FaultPlan{FailStops: []FailStop{{Proc: 1, At: 0}}}
	res, err := Run(c, func(p *Proc) {
		if p.ID() == 1 {
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[1].Finish != 0 {
		t.Errorf("victim ran to %d, want 0", res.Procs[1].Finish)
	}
}

func TestRecvTimeout(t *testing.T) {
	c := cfg(2, 6, 2, 4)
	var missCount int
	var missAt, hitAt int64
	var hit bool
	_, err := Run(c, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.WaitUntil(50)
			p.Send(1, 0, "late")
		case 1:
			if _, ok := p.RecvTimeout(20); !ok {
				missCount++
				missAt = p.Now()
			}
			_, hit = p.RecvTimeout(1000)
			hitAt = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if missCount != 1 || missAt != 20 {
		t.Errorf("timeout path: miss=%d at %d, want 1 at exactly the deadline 20", missCount, missAt)
	}
	if !hit {
		t.Fatal("second RecvTimeout missed the late message")
	}
	if want := int64(50 + 2 + 6 + 2); hitAt != want { // sent at 50, o+L flight, o receive
		t.Errorf("late receive done at %d, want %d", hitAt, want)
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() Result {
		c := cfg(4, 6, 2, 4)
		c.Faults = &FaultPlan{
			Seed:    99,
			Default: LinkFault{Drop: 0.3, Dup: 0.2, Jitter: 5},
		}
		res, err := Run(c, func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < 30; i++ {
					p.Send(1+i%3, 0, i)
				}
			} else {
				drainBody(600)(p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Dropped != b.Dropped || a.Duplicated != b.Duplicated || a.Messages != b.Messages {
		t.Errorf("two identically seeded runs diverged: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 {
		t.Errorf("fault plan injected nothing (dropped=%d, duplicated=%d)", a.Dropped, a.Duplicated)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"drop rate", FaultPlan{Default: LinkFault{Drop: 1.5}}},
		{"dup rate", FaultPlan{Default: LinkFault{Dup: -0.1}}},
		{"NaN drop rate", FaultPlan{Default: LinkFault{Drop: math.NaN()}}},
		{"NaN dup rate", FaultPlan{Default: LinkFault{Dup: math.NaN()}}},
		{"NaN link drop rate", FaultPlan{Links: map[Link]LinkFault{{From: 0, To: 1}: {Drop: math.NaN()}}}},
		{"negative jitter", FaultPlan{Default: LinkFault{Jitter: -1}}},
		{"link out of range", FaultPlan{Links: map[Link]LinkFault{{From: 0, To: 9}: {}}}},
		{"slowdown proc", FaultPlan{Slowdowns: []Slowdown{{Proc: 9, Start: 0, End: 1, Factor: 2}}}},
		{"slowdown factor", FaultPlan{Slowdowns: []Slowdown{{Proc: 0, Start: 0, End: 1, Factor: 0.5}}}},
		{"NaN slowdown factor", FaultPlan{Slowdowns: []Slowdown{{Proc: 0, Start: 0, End: 1, Factor: math.NaN()}}}},
		{"infinite slowdown factor", FaultPlan{Slowdowns: []Slowdown{{Proc: 0, Start: 0, End: 1, Factor: math.Inf(1)}}}},
		{"slowdown window", FaultPlan{Slowdowns: []Slowdown{{Proc: 0, Start: 5, End: 5, Factor: 2}}}},
		{"failstop proc", FaultPlan{FailStops: []FailStop{{Proc: -1}}}},
		{"failstop time", FaultPlan{FailStops: []FailStop{{Proc: 0, At: -3}}}},
	}
	for _, tc := range cases {
		c := cfg(2, 6, 2, 4)
		plan := tc.plan
		c.Faults = &plan
		if _, err := New(c); err == nil {
			t.Errorf("%s: invalid plan accepted", tc.name)
		}
	}
}

package logp

import "testing"

func TestProcSkewSystematic(t *testing.T) {
	c := cfg(4, 6, 2, 4)
	c.ProcSkew = 0.5
	c.Seed = 3
	res, err := Run(c, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every processor computes at its own fixed rate in [1000, 1500].
	distinct := map[int64]bool{}
	for _, s := range res.Procs {
		if s.Compute < 1000 || s.Compute > 1500 {
			t.Errorf("proc %d compute %d outside skew range", s.Proc, s.Compute)
		}
		distinct[s.Compute] = true
	}
	if len(distinct) < 2 {
		t.Error("skew produced identical processors")
	}
	// Same seed, same skews.
	res2, err := Run(c, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Procs {
		if res.Procs[i].Compute != res2.Procs[i].Compute {
			t.Error("skew not deterministic in seed")
		}
	}
	bad := cfg(2, 6, 2, 4)
	bad.ProcSkew = -0.1
	if _, err := New(bad); err == nil {
		t.Error("negative skew accepted")
	}
}

// TestArrivalReleaseNeverStallsOneOnOne: a message's capacity units free at
// its arrival at the destination module, busy receiver or not, so a lone
// sender, whose injections are already spaced g apart, never stalls.
func TestArrivalReleaseNeverStallsOneOnOne(t *testing.T) {
	c := cfg(2, 10, 1, 2) // capacity ceil(10/2) = 5
	res, err := Run(c, func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 20; i++ {
				p.Send(1, 0, i)
			}
		case 1:
			p.Compute(500) // busy: messages pile up at the module
			for i := 0; i < 20; i++ {
				p.Recv()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxInTransitTo > 5 {
		t.Errorf("in-transit count %d exceeds capacity 5", res.MaxInTransitTo)
	}
	if res.Procs[0].Stall != 0 {
		t.Errorf("arrival-release sender stalled %d cycles", res.Procs[0].Stall)
	}
}

func TestInTransitTrackedWithoutEnforcement(t *testing.T) {
	c := cfg(4, 20, 0, 1)
	c.DisableCapacity = true
	res, err := Run(c, func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < 30; i++ {
				p.Recv()
			}
			return
		}
		for i := 0; i < 10; i++ {
			p.Send(0, 0, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxInTransitTo <= c.Params.Capacity() {
		t.Errorf("flood without enforcement peaked at %d, expected above capacity %d",
			res.MaxInTransitTo, c.Params.Capacity())
	}
}

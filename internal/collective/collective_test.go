package collective

import (
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

func mustRun(t *testing.T, cfg logp.Config, body func(p *logp.Proc)) logp.Result {
	t.Helper()
	res, err := logp.Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBinomialBroadcastDeliversToAll(t *testing.T) {
	for _, P := range []int{1, 2, 3, 5, 8, 13, 16} {
		params := core.Params{P: P, L: 6, O: 2, G: 4}
		for root := 0; root < P; root += 3 {
			got := make([]any, P)
			mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
				got[p.ID()] = BinomialBroadcast(p, root, 1, "x")
			})
			for i, v := range got {
				if v != "x" {
					t.Errorf("P=%d root=%d: proc %d got %v", P, root, i, v)
				}
			}
		}
	}
}

func TestBinomialReduce(t *testing.T) {
	params := core.Params{P: 7, L: 6, O: 2, G: 4}
	var got any
	mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
		v, ok := BinomialReduce(p, 3, 1, p.ID(), func(a, b any) any { return a.(int) + b.(int) })
		if ok {
			if p.ID() != 3 {
				t.Errorf("reduce completed on proc %d, root is 3", p.ID())
			}
			got = v
		}
	})
	if got != 21 { // 0+1+...+6
		t.Errorf("reduce = %v, want 21", got)
	}
}

func TestAllToAllDeliversEverything(t *testing.T) {
	params := core.Params{P: 4, L: 6, O: 2, G: 4}
	for _, sched := range []Schedule{Naive, Staggered} {
		perPair := 3
		counts := func(me int) []int {
			c := make([]int, 4)
			for d := range c {
				if d != me {
					c[d] = perPair
				}
			}
			return c
		}
		received := make([][]logp.Message, 4)
		mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
			received[p.ID()] = AllToAll(p, sched, 1, counts(p.ID()),
				func(dst, k int) any { return p.ID()*100 + dst*10 + k },
				perPair*3, 0)
		})
		for me, msgs := range received {
			if len(msgs) != perPair*3 {
				t.Fatalf("%v: proc %d received %d messages, want %d", sched, me, len(msgs), perPair*3)
			}
			seen := map[int]bool{}
			for _, m := range msgs {
				v := m.Data.(int)
				if v%100/10 != me {
					t.Errorf("%v: proc %d got message for %d", sched, me, v%100/10)
				}
				if seen[v] {
					t.Errorf("%v: duplicate payload %d", sched, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestStaggeredBeatsNaive: the contention-free staggered schedule is faster
// than the naive one, which serializes on each destination's receive gap in
// turn (Section 4.1.2 / Figure 6).
func TestStaggeredBeatsNaive(t *testing.T) {
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	perPair := 8
	run := func(sched Schedule) int64 {
		counts := make([]int, 8)
		res := mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
			c := make([]int, 8)
			copy(c, counts)
			for d := range c {
				if d != p.ID() {
					c[d] = perPair
				}
			}
			AllToAll(p, sched, 1, c, func(dst, k int) any { return 0 }, perPair*7, 0)
		})
		return res.Time
	}
	naive, staggered := run(Naive), run(Staggered)
	if staggered >= naive {
		t.Errorf("staggered %d not faster than naive %d", staggered, naive)
	}
}

func TestMessageBarrier(t *testing.T) {
	params := core.Params{P: 8, L: 6, O: 2, G: 4}
	released := make([]int64, 8)
	arrive := make([]int64, 8)
	mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
		p.Compute(int64(5 * p.ID()))
		arrive[p.ID()] = p.Now()
		Barrier(p, 100)
		released[p.ID()] = p.Now()
	})
	latest := int64(0)
	for _, a := range arrive {
		if a > latest {
			latest = a
		}
	}
	for i, r := range released {
		if r < latest {
			t.Errorf("proc %d released at %d before last arrival %d", i, r, latest)
		}
	}
	if BarrierRounds(8) != 3 {
		t.Errorf("BarrierRounds(8) = %d, want 3", BarrierRounds(8))
	}
}

func TestBarrierSingleProcessor(t *testing.T) {
	params := core.Params{P: 1, L: 6, O: 2, G: 4}
	res := mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
		Barrier(p, 1)
	})
	if res.Time != 0 {
		t.Errorf("P=1 barrier took %d", res.Time)
	}
}

func TestScanComputesPrefixes(t *testing.T) {
	params := core.Params{P: 9, L: 6, O: 2, G: 4}
	got := make([]int, 9)
	mustRun(t, logp.Config{Params: params}, func(p *logp.Proc) {
		v := Scan(p, 50, p.ID()+1, func(a, b any) any { return a.(int) + b.(int) })
		got[p.ID()] = v.(int)
	})
	for i, v := range got {
		want := (i + 1) * (i + 2) / 2
		if v != want {
			t.Errorf("scan[%d] = %d, want %d", i, v, want)
		}
	}
}

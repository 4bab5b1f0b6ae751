package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// refSumBuilder is the summation DP in its direct form: the recursion of
// sumBuilder's doc comment memoized in maps, with a knapsack loop per slot
// and MinSumTime as a binary search over [0, n-1]. It costs O(T·P²) but
// transcribes Section 3.3 line by line, so it is the oracle the table must
// agree with.
type refSumBuilder struct {
	p       Params
	period  int64
	minRecv int64 // L + 2o + 1: earliest deadline that admits a reception
	best    map[refSumKey]int64
	slots   map[refSumKey]int64
}

type refSumKey struct {
	t int64
	q int
}

func newRefSumBuilder(p Params) *refSumBuilder {
	return &refSumBuilder{
		p:       p,
		period:  recvPeriod(p),
		minRecv: p.L + 2*p.O + 1,
		best:    make(map[refSumKey]int64),
		slots:   make(map[refSumKey]int64),
	}
}

func (b *refSumBuilder) bestVal(t int64, q int) int64 {
	if q <= 0 || t < 0 {
		return 0
	}
	key := refSumKey{t, q}
	if v, ok := b.best[key]; ok {
		return v
	}
	v := t + 1 // single-processor chain of t additions
	if q > 1 && t >= b.minRecv {
		if s := b.slotVal(t-b.minRecv, q-1); s > 0 {
			v = t + 1 + s
		}
	}
	b.best[key] = v
	return v
}

func (b *refSumBuilder) slotVal(bound int64, q int) int64 {
	if bound < 0 || q <= 0 {
		return 0
	}
	key := refSumKey{bound, q}
	if v, ok := b.slots[key]; ok {
		return v
	}
	bestNet := int64(0) // stopping (using no further slots) is always legal
	for use := 1; use <= q; use++ {
		cv := b.bestVal(bound, use)
		if cv-1 < b.p.O {
			break // even more processors cannot make a too-early child worth o additions
		}
		net := cv - (b.p.O + 1) + b.slotVal(bound-b.period, q-use)
		if net > bestNet {
			bestNet = net
		}
	}
	b.slots[key] = bestNet
	return bestNet
}

// build reconstructs the schedule tree for (t, q) by replaying the DP argmax.
func (b *refSumBuilder) build(t int64, q int) *SumNode {
	node := &SumNode{Deadline: t}
	total := b.bestVal(t, q)
	if q <= 1 || t < b.minRecv || total == t+1 {
		node.LocalInputs = int(t + 1)
		return node
	}
	// Re-derive the slot choices.
	bound, rem := t-b.minRecv, q-1
	for bound >= 0 && rem > 0 {
		target := b.slotVal(bound, rem)
		if target == 0 {
			break
		}
		chosen := 0
		for use := 1; use <= rem; use++ {
			cv := b.bestVal(bound, use)
			if cv-1 < b.p.O {
				break
			}
			if cv-(b.p.O+1)+b.slotVal(bound-b.period, rem-use) == target {
				chosen = use
				break
			}
		}
		if chosen == 0 {
			break
		}
		child := b.build(bound, chosen)
		child.Parent = node
		node.Children = append(node.Children, child)
		rem -= chosen
		bound -= b.period
	}
	k := int64(len(node.Children))
	node.LocalInputs = int(t - k*(b.p.O+1) + 1)
	return node
}

// refMinSumTime returns the smallest deadline T such that n values can be
// summed on at most P processors, found by binary search (SumCapacity is
// nondecreasing in T).
func refMinSumTime(p Params, n int64) int64 {
	if n <= 1 {
		return 0
	}
	b := newRefSumBuilder(p)
	lo, hi := int64(0), n-1 // one processor sums n values in n-1 cycles
	for lo < hi {
		mid := lo + (hi-lo)/2
		if b.bestVal(mid, p.P) >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// treeDiff describes the first difference between two schedule trees in
// deadlines, local inputs or child order, or returns "" if there is none.
func treeDiff(got, want *SumNode) string {
	if got.Deadline != want.Deadline || got.LocalInputs != want.LocalInputs || len(got.Children) != len(want.Children) {
		return fmt.Sprintf("node (deadline %d, %d inputs, %d children), want (deadline %d, %d inputs, %d children)",
			got.Deadline, got.LocalInputs, len(got.Children), want.Deadline, want.LocalInputs, len(want.Children))
	}
	for i := range got.Children {
		if d := treeDiff(got.Children[i], want.Children[i]); d != "" {
			return fmt.Sprintf("child %d of deadline %d: %s", i, got.Deadline, d)
		}
	}
	return ""
}

// randomSumParams maps raw quick values to valid parameters, g = 0 with
// L = 0 included.
func randomSumParams(maxP int, pp, ll, oo, gg uint8) Params {
	p := Params{P: int(pp)%maxP + 1, L: int64(ll % 24), O: int64(oo % 8), G: int64(gg % 10)}
	if p.G == 0 {
		p.L = 0
	}
	return p
}

// TestSumTableMatchesReference: for random parameters and deadlines the
// table gives the reference's SumCapacity at every processor count up to P,
// and OptimalSummation builds the reference's tree.
func TestSumTableMatchesReference(t *testing.T) {
	f := func(tt, pp, ll, oo, gg uint8) bool {
		p := randomSumParams(70, pp, ll, oo, gg)
		T := int64(tt) % 151
		ref := newRefSumBuilder(p)
		for q := 1; q <= p.P; q++ {
			pq := p
			pq.P = q
			if got, want := SumCapacity(pq, T), ref.bestVal(T, q); got != want {
				t.Logf("%v T=%d q=%d: SumCapacity %d, reference %d", p, T, q, got, want)
				return false
			}
		}
		s, err := OptimalSummation(p, T)
		if err != nil {
			t.Logf("%v T=%d: %v", p, T, err)
			return false
		}
		if d := treeDiff(s.Root, ref.build(T, p.P)); d != "" {
			t.Logf("%v T=%d: %s", p, T, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestMinSumTimeMatchesReference: the walk up from ⌈n/P⌉-1 finds the
// deadline the reference's binary search finds, n log-uniform up to 2·10⁵.
// With few processors and many values the table starts above bound o+1;
// the fixed cases pin that, so the rows it skips are shown unread.
func TestMinSumTimeMatchesReference(t *testing.T) {
	for _, c := range []struct {
		p Params
		n int64
	}{
		{Params{P: 4, L: 6, O: 2, G: 4}, 200000},
		{Params{P: 12, L: 5, O: 1, G: 3}, 150000},
	} {
		got, b := minSumTime(c.p, c.n)
		if want := refMinSumTime(c.p, c.n); got != want {
			t.Errorf("%v n=%d: MinSumTime %d, reference %d", c.p, c.n, got, want)
		}
		if b.first <= c.p.O+1 {
			t.Errorf("%v n=%d: table starts at bound %d, want above o+1", c.p, c.n, b.first)
		}
	}
	f := func(nn uint16, pp, ll, oo, gg uint8) bool {
		p := randomSumParams(12, pp, ll, oo, gg)
		n := int64(math.Exp2(float64(nn%1760) / 100)) // 1 .. ~2·10⁵
		return MinSumTime(p, n) == refMinSumTime(p, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

package core

import (
	"math"
	"testing"
	"testing/quick"
)

// fig4 is the exact configuration of Figure 4: T=28, P=8, L=5, g=4, o=2.
var fig4 = Params{P: 8, L: 5, O: 2, G: 4}

// TestFigure4OptimalSummation reproduces the structure of Figure 4: the
// communication tree for T=28, P=8, L=5, g=4, o=2 has root children that
// complete at 18, 14, 10 and 6, and third-level leaves completing at 8, 4
// and 4.
func TestFigure4OptimalSummation(t *testing.T) {
	s, err := OptimalSummation(fig4, 28)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed != 8 {
		t.Errorf("procs used = %d, want 8", s.ProcsUsed)
	}
	wantChildren := []int64{18, 14, 10, 6}
	got := s.ChildDeadlines()
	if len(got) != len(wantChildren) {
		t.Fatalf("root children deadlines %v, want %v", got, wantChildren)
	}
	for i := range wantChildren {
		if got[i] != wantChildren[i] {
			t.Fatalf("root children deadlines %v, want %v", got, wantChildren)
		}
	}
	// Level-3: the child finishing at 18 has children finishing at 8 and 4;
	// the child finishing at 14 has one finishing at 4 (Figure 4 left).
	c18 := s.Root.Children[0]
	if len(c18.Children) != 2 || c18.Children[0].Deadline != 8 || c18.Children[1].Deadline != 4 {
		t.Errorf("child@18 has sub-deadlines %v, want [8 4]", deadlinesOf(c18))
	}
	c14 := s.Root.Children[1]
	if len(c14.Children) != 1 || c14.Children[0].Deadline != 4 {
		t.Errorf("child@14 has sub-deadlines %v, want [4]", deadlinesOf(c14))
	}
	// Root timeline: 4 receptions cost 4*(o+1)=12 cycles, leaving a chain of
	// 16 local additions summing 17 local inputs (the root starts its first
	// reception at cycle 13).
	if s.Root.LocalInputs != 17 {
		t.Errorf("root local inputs = %d, want 17", s.Root.LocalInputs)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if s.TotalValues != 79 {
		t.Errorf("total values = %d, want 79", s.TotalValues)
	}
}

func deadlinesOf(n *SumNode) []int64 {
	out := make([]int64, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Deadline
	}
	return out
}

func TestSummationSingleProcessorRegime(t *testing.T) {
	p := Params{P: 8, L: 5, O: 2, G: 4}
	// T < L+2o+1 = 10: no time to receive; a single chain of T additions.
	for _, T := range []int64{0, 5, 9} {
		s, err := OptimalSummation(p, T)
		if err != nil {
			t.Fatal(err)
		}
		if s.ProcsUsed != 1 {
			t.Errorf("T=%d: used %d procs, want 1", T, s.ProcsUsed)
		}
		if s.TotalValues != T+1 {
			t.Errorf("T=%d: %d values, want %d", T, s.TotalValues, T+1)
		}
	}
	// At T = 12 a child could contribute exactly o additions, but the gain
	// is zero (the root invests o+1 cycles to absorb o+1 values), so the
	// single chain remains optimal. T = 13 is the first strictly beneficial
	// reception: capacity jumps to 15 > T+1.
	if got := SumCapacity(p, 12); got != 13 {
		t.Errorf("SumCapacity(12) = %d, want 13", got)
	}
	s, err := OptimalSummation(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed < 2 {
		t.Errorf("T=13: used %d procs, want a reception to appear", s.ProcsUsed)
	}
	if s.TotalValues != 15 {
		t.Errorf("T=13: %d values, want 15 (14 root + net gain 1)", s.TotalValues)
	}
}

func TestSummationRespectsProcessorBudget(t *testing.T) {
	for _, P := range []int{1, 2, 3, 4, 8, 16} {
		p := Params{P: P, L: 5, O: 2, G: 4}
		s, err := OptimalSummation(p, 60)
		if err != nil {
			t.Fatal(err)
		}
		if s.ProcsUsed > P {
			t.Errorf("P=%d: schedule uses %d processors", P, s.ProcsUsed)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("P=%d: %v", P, err)
		}
	}
}

// TestSumCapacityMonotone: capacity never falls as the deadline or the
// processor budget grows, and each extra processor adds no more than the
// one before it. sumBuilder's row trimming relies on the last two: a row
// that stops growing in q never grows again.
func TestSumCapacityMonotone(t *testing.T) {
	p := Params{P: 8, L: 5, O: 2, G: 4}
	prev := int64(-1)
	for T := int64(0); T <= 80; T++ {
		v := SumCapacity(p, T)
		if v < prev {
			t.Fatalf("SumCapacity decreased: T=%d gives %d after %d", T, v, prev)
		}
		prev = v
	}
	f := func(tt, pp, ll, oo, gg uint8) bool {
		p := randomSumParams(48, pp, ll, oo, gg)
		T := int64(tt)
		prev := int64(-1)
		for d := int64(0); d <= T; d++ {
			v := SumCapacity(p, d)
			if v < prev {
				t.Logf("%v: SumCapacity(%d) = %d after %d", p, d, v, prev)
				return false
			}
			prev = v
		}
		prev, prevGain := 0, int64(math.MaxInt64)
		for q := 1; q <= p.P; q++ {
			pq := p
			pq.P = q
			v := SumCapacity(pq, T)
			gain := v - prev
			if gain < 0 || gain > prevGain {
				t.Logf("%v T=%d: processor %d adds %d after %d", p, T, q, gain, prevGain)
				return false
			}
			prev, prevGain = v, gain
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSumCapacityBeatsSingleProcessor(t *testing.T) {
	p := Params{P: 64, L: 5, O: 2, G: 4}
	if v := SumCapacity(p, 60); v <= 61 {
		t.Errorf("64 processors sum %d values in T=60, not better than 1 processor", v)
	}
}

func TestMinSumTime(t *testing.T) {
	p := Params{P: 8, L: 5, O: 2, G: 4}
	for _, n := range []int64{1, 2, 10, 79, 100, 1000} {
		T := MinSumTime(p, n)
		if got := SumCapacity(p, T); got < n {
			t.Errorf("n=%d: T=%d sums only %d", n, T, got)
		}
		if T > 0 {
			if got := SumCapacity(p, T-1); got >= n {
				t.Errorf("n=%d: T=%d not minimal, T-1 sums %d", n, T, got)
			}
		}
	}
	// Figure 4 closes the loop: 79 values need exactly T=28.
	if T := MinSumTime(fig4, 79); T != 28 {
		t.Errorf("MinSumTime(79) = %d, want 28", T)
	}
	// Invalid parameters give -1, and OptimalSummation at that deadline
	// still reports the parameter error rather than the negative deadline.
	for _, bad := range []Params{{P: 0, L: 5, O: 2, G: 4}, {P: 8, L: 5, O: 2, G: 0}} {
		if T := MinSumTime(bad, 100); T != -1 {
			t.Errorf("%v: MinSumTime = %d, want -1", bad, T)
		}
		_, err := OptimalSummation(bad, MinSumTime(bad, 100))
		if want := bad.Validate(); err == nil || err.Error() != want.Error() {
			t.Errorf("%v: OptimalSummation error %v, want %v", bad, err, want)
		}
	}
}

// TestSumTableWork pins how many rows and entries MinSumTime's table
// stores, so that filling every deadline from 0, or every row to width P,
// fails here deterministically rather than by wall clock.
func TestSumTableWork(t *testing.T) {
	for _, c := range []struct {
		p             Params
		n, T          int64
		rows, entries int
	}{
		{Params{P: 1 << 20, L: 6, O: 2, G: 4}, 1000, 55, 42, 1047},
		{Params{P: 1, L: 6, O: 2, G: 4}, 1 << 20, 1<<20 - 1, 0, 0},
		{Params{P: 4, L: 6, O: 2, G: 4}, 1 << 20, 262157, 37, 115},
	} {
		T, b := minSumTime(c.p, c.n)
		entries := 0
		for _, row := range b.rows {
			entries += len(row)
		}
		if T != c.T || len(b.rows) != c.rows || entries != c.entries {
			t.Errorf("%v n=%d: T=%d in %d rows, %d entries; want T=%d in %d rows, %d entries",
				c.p, c.n, T, len(b.rows), entries, c.T, c.rows, c.entries)
		}
	}
}

func TestOptimalSummationBeatsBinaryTree(t *testing.T) {
	f := func(nn uint16, pp uint8) bool {
		p := Params{P: int(pp%32) + 1, L: 5, O: 2, G: 4}
		n := int64(nn%2000) + 1
		return MinSumTime(p, n) <= BinaryTreeSumTime(p, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSummationScheduleValidProperty: schedules are feasible for random
// parameters and deadlines.
func TestSummationScheduleValidProperty(t *testing.T) {
	f := func(tt uint16, pp, ll, oo, gg uint8) bool {
		p := Params{
			P: int(pp%64) + 1,
			L: int64(ll % 40),
			O: int64(oo % 10),
			G: int64(gg%10) + 1,
		}
		s, err := OptimalSummation(p, int64(tt%500))
		if err != nil {
			return false
		}
		return s.Validate() == nil && s.ProcsUsed <= p.P
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSummationInputDistributionUneven: the paper notes "the inputs are not
// equally distributed over processors".
func TestSummationInputDistributionUneven(t *testing.T) {
	s, err := OptimalSummation(fig4, 28)
	if err != nil {
		t.Fatal(err)
	}
	minIn, maxIn := 1<<30, 0
	for _, n := range s.ByProc {
		if n == nil {
			continue
		}
		if n.LocalInputs < minIn {
			minIn = n.LocalInputs
		}
		if n.LocalInputs > maxIn {
			maxIn = n.LocalInputs
		}
	}
	if minIn == maxIn {
		t.Errorf("inputs equally distributed (%d each); Figure 4 distribution is uneven", minIn)
	}
}

// TestDistributeRejectsWrongCount: Distribute hands each used processor its
// LocalInputs values in processor order and refuses any count but
// TotalValues.
func TestDistributeRejectsWrongCount(t *testing.T) {
	s, err := OptimalSummation(fig4, 28)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Distribute(make([]float64, 3)); err == nil {
		t.Error("wrong input count accepted")
	}
	values := make([]float64, s.TotalValues)
	for i := range values {
		values[i] = float64(i)
	}
	dist, err := s.Distribute(values)
	if err != nil {
		t.Fatal(err)
	}
	next := 0.0
	for id, chunk := range dist {
		if n := s.ByProc[id]; (n == nil) != (chunk == nil) || n != nil && len(chunk) != n.LocalInputs {
			t.Fatalf("proc %d given %d values, node %+v", id, len(chunk), n)
		}
		for _, v := range chunk {
			if v != next {
				t.Fatalf("proc %d given value %v, want %v in processor order", id, v, next)
			}
			next++
		}
	}
}

func TestByProcIndexConsistent(t *testing.T) {
	s, err := OptimalSummation(fig4, 28)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for id, n := range s.ByProc {
		if n == nil {
			continue
		}
		seen++
		if n.Proc != id {
			t.Errorf("ByProc[%d].Proc = %d", id, n.Proc)
		}
	}
	if seen != s.ProcsUsed {
		t.Errorf("indexed %d procs, ProcsUsed = %d", seen, s.ProcsUsed)
	}
}

func TestLeafDeadlinesFig4(t *testing.T) {
	s, err := OptimalSummation(fig4, 28)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 8, 6, 4, 4}
	got := s.LeafDeadlines()
	if len(got) != len(want) {
		t.Fatalf("leaf deadlines %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leaf deadlines %v, want %v", got, want)
		}
	}
}

// BenchmarkSumSchedule times what building the sum program costs: the
// minimum deadline for n values, then the schedule at that deadline.
func BenchmarkSumSchedule(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Params
		n    int64
	}{
		{"P=64,n=1000", Params{P: 64, L: 6, O: 2, G: 4}, 1000},
		{"P=1048576,n=1000", Params{P: 1 << 20, L: 6, O: 2, G: 4}, 1000},
		{"P=4,n=1048576", Params{P: 4, L: 6, O: 2, G: 4}, 1 << 20},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OptimalSummation(c.p, MinSumTime(c.p, c.n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

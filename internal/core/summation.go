package core

import (
	"fmt"
	"sort"
)

// SumNode is one processor's role in an optimal summation schedule
// (Section 3.3, Figure 4). The processor sums LocalInputs original values
// and the partial results of its children, finishing (and, unless it is the
// root, initiating the send of its partial sum to its parent) at Deadline.
type SumNode struct {
	Proc        int
	Deadline    int64 // completion time bound T for this subtree
	LocalInputs int   // original input values assigned to this processor
	Children    []*SumNode
	Parent      *SumNode
}

// Additions is the number of additions the subtree's result represents:
// one fewer than the values it sums.
func (n *SumNode) Additions() int64 { return n.SubtreeValues() - 1 }

// SubtreeValues is the number of original input values summed in the subtree.
func (n *SumNode) SubtreeValues() int64 {
	v := int64(n.LocalInputs)
	for _, c := range n.Children {
		v += c.SubtreeValues()
	}
	return v
}

// SumSchedule is the complete optimal summation plan: the communication tree
// (the same shape as an optimal broadcast tree, reversed in time) plus the
// distribution of input values over processors. Note the inputs are not
// equally distributed.
type SumSchedule struct {
	Params      Params
	Root        *SumNode
	Deadline    int64
	TotalValues int64 // number of input values summed by Deadline
	ProcsUsed   int
	// ByProc[i] is processor i's node, nil if the processor is unused
	// (tree pruned to the processor budget).
	ByProc []*SumNode
}

// recvPeriod is the spacing between consecutive receptions in a summation
// schedule: the gap g, but at least o+1 because each reception costs o cycles
// of overhead plus one cycle to add the received value.
func recvPeriod(p Params) int64 {
	if p.G > p.O+1 {
		return p.G
	}
	return p.O + 1
}

// sumBuilder tabulates the two mutually recursive quantities of the optimal
// summation DP:
//
//	best(t, q):  the maximum number of values a subtree with deadline t and
//	             at most q processors can sum;
//	slots(b, q): the maximum *net* gain from the root's reception slots with
//	             child bounds b, b-period, b-period*2, ..., using at most q
//	             processors, where each used slot costs the root o+1 cycles
//	             of local summing (o to receive, 1 to add).
//
// The structure follows Section 3.3: the root's receptions are packed as
// late as possible at the reception period, child k completes at
// t-(2o+L+1)-k*period, and a transmitted partial sum must represent at least
// o additions. Splitting the processor budget across children is a knapsack,
// which the greedy "first child takes what it wants" rule gets wrong; the DP
// solves it exactly (and makes SumCapacity monotone in t, which greedy
// violates). Written out, with minRecv = L+2o+1:
//
//	best(t, q)  = t + 1 + slots(t-minRecv, q-1)               (q >= 1, t >= 0)
//	slots(b, q) = b - o + max over i+j = q-1 of
//	              slots(b-minRecv, i) + slots(b-period, j)    (q >= 1, b > o)
//
// and 0 elsewhere: a first child finishing by b <= o cannot transmit a
// partial sum worth o additions at a gain. The first child gets i+1
// processors, and the slots after it the other j.
//
// Each row slots(b, ·) is nondecreasing and concave in q. By induction: the
// max-plus convolution of two concave rows is concave, and its first step,
// max(slots(b-minRecv, 1), slots(b-period, 1)), is at most b-o, the row's
// own first step. Two things follow. The convolution takes the q-1 largest
// steps of the two rows, so a row is one merge of their steps. And a row
// that stops growing never grows again, so it is stored only up to there
// and a lookup past its end reads its last entry; the unconstrained
// schedule's processor count bounds a row's length, whatever P is.
//
// The table holds only the rows a query at a deadline >= lo can read. Each
// lookup one level down spends at least one processor and descends at most
// step = max(minRecv, period) cycles. So row top-k*step, with
// top = lo-minRecv, is read at q <= P-1-k and is computed only that far, and
// no row below top-(P-2)*step is read at all. Rows are added upwards on
// demand, so a walk up from lo computes none past the deadline it stops at.
type sumBuilder struct {
	p       Params
	period  int64
	minRecv int64 // L + 2o + 1: earliest deadline that admits a reception
	step    int64 // max(minRecv, period)
	top     int64 // lo - minRecv: the lowest row read with all P-1 processors
	first   int64 // bound of rows[0]
	rows    [][]int64
}

// noSlots is the row of every bound <= o.
var noSlots = []int64{0}

// newSumBuilder returns an empty table for queries at deadlines >= lo.
func newSumBuilder(p Params, lo int64) *sumBuilder {
	b := &sumBuilder{
		p:       p,
		period:  recvPeriod(p),
		minRecv: p.L + 2*p.O + 1,
	}
	b.step = max(b.minRecv, b.period)
	b.top = lo - b.minRecv
	// first = max(o+1, top-(P-2)*step), without overflowing the product.
	b.first = p.O + 1
	if k := int64(p.P - 2); k <= 0 {
		b.first = max(b.first, b.top)
	} else if (b.top-b.first)/k >= b.step {
		b.first = b.top - k*b.step
	}
	return b
}

func (b *sumBuilder) bestVal(t int64, q int) int64 {
	if q <= 0 || t < 0 {
		return 0
	}
	return t + 1 + b.slotVal(t-b.minRecv, q-1)
}

func (b *sumBuilder) slotVal(bound int64, q int) int64 {
	if q <= 0 {
		return 0
	}
	row := b.slots(bound)
	return row[min(q, len(row)-1)]
}

// slots returns the row slots(bound, ·), adding rows up to bound.
func (b *sumBuilder) slots(bound int64) []int64 {
	if bound <= b.p.O {
		return noSlots
	}
	for next := b.first + int64(len(b.rows)); next <= bound; next++ {
		b.rows = append(b.rows, b.newRow(next))
	}
	return b.rows[bound-b.first]
}

// newRow computes slots(bound, ·) for bound > o from the rows below it,
// up to the widest q a query at a deadline >= lo reads there, and stops
// where the row stops growing.
func (b *sumBuilder) newRow(bound int64) []int64 {
	width := b.p.P - 1
	if bound < b.top {
		width -= int((b.top - bound + b.step - 1) / b.step)
	}
	if width <= 1 {
		return []int64{0, bound - b.p.O}
	}
	child, later := b.slots(bound-b.minRecv), b.slots(bound-b.period)
	row := make([]int64, 2, min(width, len(child)+len(later)-1)+1)
	row[1] = bound - b.p.O
	i, j := 1, 1 // next steps of child and later to merge
	for len(row) <= width {
		var di, dj int64
		if i < len(child) {
			di = child[i] - child[i-1]
		}
		if j < len(later) {
			dj = later[j] - later[j-1]
		}
		d := max(di, dj)
		if d == 0 {
			break
		}
		if di >= dj {
			i++
		} else {
			j++
		}
		row = append(row, row[len(row)-1]+d)
	}
	return row
}

// build reconstructs the schedule tree for (t, q) by replaying the DP argmax.
func (b *sumBuilder) build(t int64, q int) *SumNode {
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

// OptimalSummation computes the schedule that sums the maximum number of
// values within deadline T on at most P processors (the "fixed amount of
// time" formulation the paper derives first). See sumBuilder for the
// recursion; briefly (Section 3.3):
//
//   - If T < L+2o+1 there is no time to receive anything: a single processor
//     sums T+1 values in a chain of T additions.
//   - Otherwise the root's last step, at time T-1, adds a received partial
//     sum; that child completed at T-(2o+L+1), and further children at
//     reception-period intervals before it. Each reception costs the root
//     o+1 cycles; all remaining cycles are a chain of local input additions.
//     Transmitted partial sums must represent at least o additions.
func OptimalSummation(p Params, deadline int64) (*SumSchedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if deadline < 0 {
		return nil, fmt.Errorf("core: negative deadline %d", deadline)
	}
	b := newSumBuilder(p, deadline)
	root := b.build(deadline, p.P)
	s := &SumSchedule{
		Params:   p,
		Root:     root,
		Deadline: deadline,
		ByProc:   make([]*SumNode, p.P),
	}
	s.ProcsUsed = assignProcs(root, 0)
	var index func(n *SumNode)
	index = func(n *SumNode) {
		s.ByProc[n.Proc] = n
		for _, c := range n.Children {
			index(c)
		}
	}
	index(root)
	s.TotalValues = root.SubtreeValues()
	return s, nil
}

func assignProcs(n *SumNode, next int) int {
	n.Proc = next
	next++
	for _, c := range n.Children {
		next = assignProcs(c, next)
	}
	return next
}

// SumCapacity returns the maximum number of values summable in time T on at
// most P processors.
func SumCapacity(p Params, deadline int64) int64 {
	if deadline < 0 {
		return 0
	}
	if err := p.Validate(); err != nil {
		return 0
	}
	return newSumBuilder(p, deadline).bestVal(deadline, p.P)
}

// MinSumTime returns the smallest deadline T such that n values can be
// summed on at most P processors, or -1 if p is invalid (see
// Params.Validate). P processors sum at most P(T+1) values by T, so the
// search walks up from ⌈n/P⌉-1 and stops at the first deadline whose
// capacity reaches n (SumCapacity is nondecreasing in T).
func MinSumTime(p Params, n int64) int64 {
	T, _ := minSumTime(p, n)
	return T
}

// minSumTime is MinSumTime, also returning the table the walk filled.
func minSumTime(p Params, n int64) (int64, *sumBuilder) {
	if err := p.Validate(); err != nil {
		return -1, nil
	}
	lo := int64(0)
	if n > 1 {
		lo = (n - 1) / int64(p.P)
	}
	b := newSumBuilder(p, lo)
	T := lo
	for b.bestVal(T, p.P) < n {
		T++
	}
	return T, b
}

// BinaryTreeSumTime is the baseline: distribute n values evenly, local-sum,
// then combine with a balanced binary reduction tree where every combining
// round costs a full message time plus one addition. This is the natural
// PRAM-style schedule, charged honestly under LogP.
func BinaryTreeSumTime(p Params, n int64) int64 {
	per := (n + int64(p.P) - 1) / int64(p.P)
	t := per - 1 // local chain
	if t < 0 {
		t = 0
	}
	step := p.PointToPoint() + 1
	if iv := p.SendInterval(); step < iv {
		step = iv
	}
	for m := 1; m < p.P; m *= 2 {
		t += step
	}
	return t
}

// Distribute splits values across processors according to the schedule's
// (uneven) input distribution: processor i receives the next LocalInputs
// values in processor order, and unused processors get nil. The schedule
// sums exactly TotalValues inputs; len(values) must match.
func (s *SumSchedule) Distribute(values []float64) ([][]float64, error) {
	if int64(len(values)) != s.TotalValues {
		return nil, fmt.Errorf("core: %d values for a schedule of %d", len(values), s.TotalValues)
	}
	out := make([][]float64, s.Params.P)
	next := 0
	for id, node := range s.ByProc {
		if node == nil {
			continue
		}
		out[id] = values[next : next+node.LocalInputs]
		next += node.LocalInputs
	}
	return out, nil
}

// Validate checks that the schedule is executable under the model: receptions
// at each node fit the period and start at or after the child's send
// completes, local additions fit the remaining cycles, and every transmitted
// partial sum represents at least o additions. Used by property tests.
func (s *SumSchedule) Validate() error {
	p := s.Params
	period := recvPeriod(p)
	minRecv := p.L + 2*p.O + 1
	var walk func(n *SumNode) error
	walk = func(n *SumNode) error {
		if n.LocalInputs < 1 {
			return fmt.Errorf("proc %d has %d local inputs", n.Proc, n.LocalInputs)
		}
		k := int64(len(n.Children))
		busy := int64(n.LocalInputs-1) + k*(p.O+1)
		if busy > n.Deadline {
			return fmt.Errorf("proc %d busy %d cycles exceeds deadline %d", n.Proc, busy, n.Deadline)
		}
		for i, c := range n.Children {
			wantBound := n.Deadline - minRecv - int64(i)*period
			if c.Deadline > wantBound {
				return fmt.Errorf("proc %d child %d deadline %d exceeds bound %d", n.Proc, i, c.Deadline, wantBound)
			}
			if c.Additions() < p.O {
				return fmt.Errorf("proc %d transmits only %d additions < o=%d", c.Proc, c.Additions(), p.O)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s.Root)
}

// ChildDeadlines returns the root's children's completion deadlines in
// schedule order, the labels Figure 4 places on the second tree level.
func (s *SumSchedule) ChildDeadlines() []int64 {
	out := make([]int64, len(s.Root.Children))
	for i, c := range s.Root.Children {
		out[i] = c.Deadline
	}
	return out
}

// LeafDeadlines returns the deadlines of all leaves, sorted descending.
func (s *SumSchedule) LeafDeadlines() []int64 {
	var out []int64
	var walk func(n *SumNode)
	walk = func(n *SumNode) {
		if len(n.Children) == 0 {
			out = append(out, n.Deadline)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.Root)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// Package progs implements the paper's benchmark algorithms in the reactive
// logp.Program form, so one implementation runs on every engine (the
// goroutine machine and the flat core) and cross-engine equivalence tests
// can pin the engines cycle-identical against each other. The optimal
// broadcast and summation schedules of Figures 3 and 4 exist only here.
//
// Each program is handler-structured: Start seeds the computation, Message
// reacts to one arrival. All mutable state is confined to per-processor
// slots (a sharded engine runs handlers of different processors
// concurrently), and result fields are written by a single processor's
// handler and read only after the run. Every Start re-initialises its
// processor's state, so one program value can be run repeatedly — in
// particular on a reused flat.Machine, whose Run replays the whole run
// without reallocating.
package progs

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

// PingPong bounces a message between processors 0 and 1 for a number of
// rounds; each half-trip costs the model's 2o+L end-to-end time. Processors
// other than 0 and 1 finish immediately.
type PingPong struct {
	rounds int
	tag    int
	count  [2]int
}

// NewPingPong builds a ping-pong of the given number of round trips (>= 1).
func NewPingPong(rounds, tag int) *PingPong {
	if rounds < 1 {
		panic(fmt.Sprintf("progs: ping-pong rounds %d < 1", rounds))
	}
	return &PingPong{rounds: rounds, tag: tag}
}

// Start implements logp.Program.
func (pp *PingPong) Start(n logp.Node) {
	switch n.ID() {
	case 0:
		pp.count[0] = 0
		n.Send(1, pp.tag, nil)
	case 1:
		pp.count[1] = 0
	default:
		n.Done()
	}
}

// Message implements logp.Program.
func (pp *PingPong) Message(n logp.Node, m logp.Message) {
	switch n.ID() {
	case 0:
		pp.count[0]++
		if pp.count[0] < pp.rounds {
			n.Send(1, pp.tag, nil)
		} else {
			n.Done()
		}
	case 1:
		pp.count[1]++
		n.Send(0, pp.tag, m.Data)
		if pp.count[1] == pp.rounds {
			n.Done()
		}
	}
}

// Rounds reports the completed round trips (for post-run assertions).
func (pp *PingPong) Rounds() int { return pp.count[0] }

// Broadcast executes the optimal broadcast schedule of Figure 3. Every
// non-root processor receives the datum exactly once and retransmits per the
// schedule, so on an otherwise idle machine the run completes at exactly the
// schedule's Finish time.
type Broadcast struct {
	sched *core.BroadcastSchedule
	tag   int
	data  any

	// Got[i] is the datum as received at processor i (set at the root too).
	Got []any
}

// NewBroadcast builds the broadcast program for a schedule.
func NewBroadcast(s *core.BroadcastSchedule, tag int, data any) *Broadcast {
	return &Broadcast{sched: s, tag: tag, data: data, Got: make([]any, s.Params.P)}
}

// Start implements logp.Program.
func (b *Broadcast) Start(n logp.Node) {
	if n.P() != b.sched.Params.P {
		panic(fmt.Sprintf("progs: schedule for P=%d on machine with P=%d", b.sched.Params.P, n.P()))
	}
	me := n.ID()
	b.Got[me] = nil
	if me != b.sched.Root {
		return // wait for the parent's message
	}
	b.Got[me] = b.data
	for _, ev := range b.sched.Sends[me] {
		n.Send(ev.Child, b.tag, b.data)
	}
	n.Done()
}

// Message implements logp.Program.
func (b *Broadcast) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	b.Got[me] = m.Data
	for _, ev := range b.sched.Sends[me] {
		n.Send(ev.Child, b.tag, m.Data)
	}
	n.Done()
}

// sumState is one processor's slot of the Sum program.
type sumState struct {
	sum       float64
	remaining []float64
	recvLeft  int64
}

// Sum executes the optimal summation schedule of Figure 4, interleaving local
// additions with receptions exactly as the schedule prescribes: an initial
// chain, then per reception o cycles receiving, one cycle adding the received
// partial sum and g-o-1 chained local additions. The root therefore finishes
// at precisely the schedule's deadline on an otherwise idle machine.
type Sum struct {
	sched    *core.SumSchedule
	tag      int
	inputs   [][]float64
	betweens int64
	st       []sumState

	// Root is the global sum at the schedule root; RootOK is set when the
	// root finished.
	Root   float64
	RootOK bool
}

// NewSum builds the summation program for a schedule; inputs is the
// per-processor distribution from (*core.SumSchedule).Distribute.
func NewSum(s *core.SumSchedule, tag int, inputs [][]float64) *Sum {
	period := s.Params.G
	if period < s.Params.O+1 {
		period = s.Params.O + 1
	}
	return &Sum{
		sched:    s,
		tag:      tag,
		inputs:   inputs,
		betweens: period - s.Params.O - 1,
		st:       make([]sumState, s.Params.P),
	}
}

// chain performs cnt local additions eagerly and records their cost.
func (s *Sum) chain(st *sumState, n logp.Node, cnt int64) {
	for i := int64(0); i < cnt; i++ {
		st.sum += st.remaining[0]
		st.remaining = st.remaining[1:]
	}
	n.Compute(cnt)
}

// Start implements logp.Program.
func (s *Sum) Start(n logp.Node) {
	me := n.ID()
	node := s.sched.ByProc[me]
	if node == nil {
		n.Done() // pruned processor: not part of the schedule
		return
	}
	local := s.inputs[me]
	if len(local) != node.LocalInputs {
		panic(fmt.Sprintf("progs: proc %d given %d inputs, schedule says %d", me, len(local), node.LocalInputs))
	}
	if node.Parent == nil {
		s.Root, s.RootOK = 0, false
	}
	st := &s.st[me]
	st.sum = local[0]
	st.remaining = local[1:]
	k := int64(len(node.Children))
	if k == 0 {
		s.chain(st, n, int64(len(st.remaining)))
		s.finish(st, n, node)
		return
	}
	initial := int64(len(st.remaining)) - (k-1)*s.betweens
	if initial < 0 {
		panic(fmt.Sprintf("progs: proc %d schedule underflow (initial=%d)", me, initial))
	}
	s.chain(st, n, initial)
	st.recvLeft = k
}

// Message implements logp.Program.
func (s *Sum) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	st := &s.st[me]
	st.sum += m.Data.(float64)
	n.Compute(1)
	st.recvLeft--
	if st.recvLeft > 0 {
		s.chain(st, n, s.betweens)
		return
	}
	s.finish(st, n, s.sched.ByProc[me])
}

func (s *Sum) finish(st *sumState, n logp.Node, node *core.SumNode) {
	if node.Parent != nil {
		n.Send(node.Parent.Proc, s.tag, st.sum)
	} else {
		s.Root, s.RootOK = st.sum, true
	}
	n.Done()
}

// chainState is one processor's slot of the pipelined broadcasts.
type chainState struct {
	next int
	got  int
}

// PipelinedChain streams m values from root through the linear chain
// root -> root+1 -> ... -> root+P-1 (mod P). It charges what the blocking
// collective.PipelinedChainBroadcast charges, which imperative algorithms
// call from inside their bodies; a test pins the two identical.
type PipelinedChain struct {
	root, tag, m int
	values       func(i int) any
	st           []chainState

	// Out[p][i] is the i-th value as seen at processor p.
	Out [][]any
}

// NewPipelinedChain builds the chain broadcast of m values, with values(i)
// producing the i-th value at the root.
func NewPipelinedChain(p, root, tag, m int, values func(i int) any) *PipelinedChain {
	c := &PipelinedChain{root: root, tag: tag, m: m, values: values,
		st: make([]chainState, p), Out: outMatrix(p, m)}
	return c
}

// outMatrix carves the p-by-(up to m) output rows from one arena: each row
// has capacity m exactly, so appends never reallocate and constructing a
// million-processor program is one allocation, not one per processor.
func outMatrix(p, m int) [][]any {
	rows := make([][]any, p)
	arena := make([]any, p*m)
	for i := range rows {
		rows[i] = arena[i*m : i*m : (i+1)*m]
	}
	return rows
}

// Start implements logp.Program.
func (c *PipelinedChain) Start(n logp.Node) {
	P := n.P()
	me := n.ID()
	pos := (me - c.root + P) % P
	c.Out[me] = c.Out[me][:0]
	st := &c.st[me]
	st.got = 0
	st.next = -1
	if pos < P-1 {
		st.next = (me + 1) % P
	}
	if pos != 0 {
		return
	}
	for i := 0; i < c.m; i++ {
		v := c.values(i)
		c.Out[me] = append(c.Out[me], v)
		if st.next >= 0 {
			n.Send(st.next, c.tag, v)
		}
	}
	n.Done()
}

// Message implements logp.Program.
func (c *PipelinedChain) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	st := &c.st[me]
	c.Out[me] = append(c.Out[me], m.Data)
	if st.next >= 0 {
		n.Send(st.next, c.tag, m.Data)
	}
	st.got++
	if st.got == c.m {
		n.Done()
	}
}

// binState is one processor's slot of PipelinedBinomial.
type binState struct {
	children []int
	got      int
}

// PipelinedBinomial streams m values down the binomial broadcast tree
// (core.AppendBinomialChildren). It charges what the blocking
// collective.PipelinedBinomialBroadcast charges; a test pins the two
// identical.
type PipelinedBinomial struct {
	root, tag, m int
	values       func(i int) any
	st           []binState

	// The broadcast tree is static, so every rank's child list is carved
	// from one arena at construction (p-1 edges total) instead of being
	// allocated per processor at Start.
	kidArena []int
	kidOffs  []int32

	// Out[p][i] is the i-th value as seen at processor p.
	Out [][]any
}

// NewPipelinedBinomial builds the binomial broadcast of m values.
func NewPipelinedBinomial(p, root, tag, m int, values func(i int) any) *PipelinedBinomial {
	b := &PipelinedBinomial{root: root, tag: tag, m: m, values: values,
		st: make([]binState, p), Out: outMatrix(p, m)}
	b.kidArena = make([]int, 0, p-1+1)
	b.kidOffs = make([]int32, p+1)
	for r := 0; r < p; r++ {
		b.kidArena = core.AppendBinomialChildren(b.kidArena, r, root, p)
		b.kidOffs[r+1] = int32(len(b.kidArena))
	}
	return b
}

// Start implements logp.Program.
func (b *PipelinedBinomial) Start(n logp.Node) {
	P := n.P()
	me := n.ID()
	r := (me - b.root + P) % P
	b.Out[me] = b.Out[me][:0]
	st := &b.st[me]
	st.got = 0
	st.children = b.kidArena[b.kidOffs[r]:b.kidOffs[r+1]]
	if r != 0 {
		return
	}
	for i := 0; i < b.m; i++ {
		v := b.values(i)
		b.Out[me] = append(b.Out[me], v)
		for _, c := range st.children {
			n.Send(c, b.tag, v)
		}
	}
	n.Done()
}

// Message implements logp.Program.
func (b *PipelinedBinomial) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	st := &b.st[me]
	b.Out[me] = append(b.Out[me], m.Data)
	for _, c := range st.children {
		n.Send(c, b.tag, m.Data)
	}
	st.got++
	if st.got == b.m {
		n.Done()
	}
}

// AllToAll is the saturation workload of Section 4.1.2 in handler form:
// every processor sends perDst messages to every other processor (in naive
// or staggered destination order, with workPerMsg cycles of local work
// before each send) and finishes after receiving its perDst*(P-1) incoming
// messages. Unlike the blocking collective.AllToAll, the handler form
// records all sends up front and lets arrivals queue at the inbox; the
// reception interleave is then driven entirely by the model's gap and
// overhead charges.
type AllToAll struct {
	perDst    int
	work      int64
	tag       int
	staggered bool

	// Received[p] counts messages received at p.
	Received []int
}

// NewAllToAll builds the exchange: perDst messages to each of the other
// P-1 processors, staggered or naive destination order.
func NewAllToAll(p, perDst int, work int64, tag int, staggered bool) *AllToAll {
	return &AllToAll{perDst: perDst, work: work, tag: tag, staggered: staggered,
		Received: make([]int, p)}
}

// Start implements logp.Program.
func (a *AllToAll) Start(n logp.Node) {
	P := n.P()
	me := n.ID()
	a.Received[me] = 0
	if a.staggered {
		for i := 1; i < P; i++ {
			a.sendTo(n, (me+i)%P)
		}
	} else {
		for d := 0; d < P; d++ {
			if d != me {
				a.sendTo(n, d)
			}
		}
	}
	if a.perDst*(P-1) == 0 {
		n.Done()
	}
}

func (a *AllToAll) sendTo(n logp.Node, dst int) {
	for k := 0; k < a.perDst; k++ {
		if a.work > 0 {
			n.Compute(a.work)
		}
		n.Send(dst, a.tag, nil)
	}
}

// Message implements logp.Program.
func (a *AllToAll) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	a.Received[me]++
	if a.Received[me] == a.perDst*(n.P()-1) {
		n.Done()
	}
}

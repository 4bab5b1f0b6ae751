package core

import (
	"fmt"
	"sort"
)

// SendEvent is one transmission in a communication schedule: the processor
// initiates a send to Child at time At (the processor is then busy for o
// cycles and may not initiate again for max(g,o) cycles).
type SendEvent struct {
	Child int
	At    int64
}

// BroadcastSchedule is the optimal single-source broadcast of Section 3.3
// (Figure 3): every informed processor retransmits as fast as the gap allows,
// and no processor receives more than one message. The tree is unbalanced,
// with fan-out determined by L, o and g.
type BroadcastSchedule struct {
	Params Params
	Root   int
	// Parent[i] is the processor that informs i (-1 for the root).
	Parent []int
	// RecvDone[i] is the time processor i has fully received the datum
	// (including its o receive overhead) and can begin retransmitting.
	// RecvDone[Root] = 0.
	RecvDone []int64
	// Sends[i] lists i's transmissions in initiation order.
	Sends [][]SendEvent
	// Finish is the time the last processor holds the datum: the broadcast
	// completion time.
	Finish int64
}

// slot is a processor able to initiate its next send at time t.
type slot struct {
	t    int64
	proc int
}

func slotLess(a, b slot) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.proc < b.proc
}

// slotHeap is a typed 4-ary min-heap by (t, proc). Each processor holds at
// most one slot, so the order is total and the pop sequence is independent
// of heap layout. Typed and flat — container/heap boxes every Push and Pop
// through an interface value, two allocations per element that dominate
// schedule construction at P = 10^6.
type slotHeap []slot

func (h *slotHeap) push(e slot) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !slotLess(e, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
	*h = s
}

func (h *slotHeap) pop() slot {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			best := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if slotLess(s[j], s[best]) {
					best = j
				}
			}
			if !slotLess(s[best], last) {
				break
			}
			s[i] = s[best]
			i = best
		}
		s[i] = last
	}
	*h = s
	return top
}

// OptimalBroadcast computes the optimal broadcast schedule from processor
// root. Greedy construction: repeatedly let the processor able to initiate
// the earliest send inform the next uninformed processor. Greedy is optimal
// because a send initiated earlier is never worse: it both delivers its datum
// no later and frees the sender's next slot no later.
func OptimalBroadcast(p Params, root int) (*BroadcastSchedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if root < 0 || root >= p.P {
		return nil, fmt.Errorf("core: broadcast root %d out of range [0,%d)", root, p.P)
	}
	s := &BroadcastSchedule{
		Params:   p,
		Root:     root,
		Parent:   make([]int, p.P),
		RecvDone: make([]int64, p.P),
		Sends:    make([][]SendEvent, p.P),
	}
	for i := range s.Parent {
		s.Parent[i] = -1
	}
	interval := p.SendInterval()
	h := make(slotHeap, 1, p.P+1)
	h[0] = slot{t: 0, proc: root}
	// Greedy pops are chronological, so sends accumulate in one flat array
	// with the initiating processor alongside; a stable counting sort then
	// carves the per-processor Sends out of a single arena (pop order is
	// non-decreasing in t, so per-processor initiation order survives). One
	// allocation per run instead of one per tree node.
	evs := make([]SendEvent, 0, p.P-1+1)
	evProc := make([]int32, 0, p.P-1+1)
	// Assign physical IDs to informed processors in discovery order,
	// skipping the root's ID.
	next := 0
	for informed := 1; informed < p.P; informed++ {
		if next == root {
			next++
		}
		sl := h.pop()
		child := next
		next++
		rc := sl.t + 2*p.O + p.L // child holds datum after send o + flight L + recv o
		s.Parent[child] = sl.proc
		s.RecvDone[child] = rc
		evs = append(evs, SendEvent{Child: child, At: sl.t})
		evProc = append(evProc, int32(sl.proc))
		h.push(slot{t: sl.t + interval, proc: sl.proc})
		h.push(slot{t: rc, proc: child})
		if rc > s.Finish {
			s.Finish = rc
		}
	}
	offs := make([]int32, p.P+1)
	for _, pr := range evProc {
		offs[pr+1]++
	}
	for i := 0; i < p.P; i++ {
		offs[i+1] += offs[i]
	}
	arena := make([]SendEvent, len(evs))
	cursor := append([]int32(nil), offs[:p.P]...)
	for i, ev := range evs {
		c := evProc[i]
		arena[cursor[c]] = ev
		cursor[c]++
	}
	for i := 0; i < p.P; i++ {
		if offs[i] < offs[i+1] {
			s.Sends[i] = arena[offs[i]:offs[i+1]:offs[i+1]]
		}
	}
	return s, nil
}

// BroadcastTime returns only the completion time of the optimal broadcast,
// without materializing the schedule.
func BroadcastTime(p Params) int64 {
	s, err := OptimalBroadcast(p, 0)
	if err != nil || p.P == 1 {
		return 0
	}
	return s.Finish
}

// BinomialBroadcastTime is the classic binomial-tree broadcast, charged
// honestly under LogP: in each round every informed processor forwards to one
// new processor, so a round lasts max(2o+L, max(g,o)) — the receive must
// complete before the recipient forwards, and a processor's consecutive sends
// must respect the gap. It is the natural schedule under models without g,
// and the baseline the optimal LogP schedule is compared against.
func BinomialBroadcastTime(p Params) int64 {
	if p.P <= 1 {
		return 0
	}
	round := p.PointToPoint()
	if iv := p.SendInterval(); round < iv {
		round = iv
	}
	rounds := int64(0)
	for n := 1; n < p.P; n *= 2 {
		rounds++
	}
	return rounds * round
}

// AppendBinomialChildren appends to dst the children of the processor with
// root-relative rank r in the binomial broadcast tree over P processors
// rooted at root, as absolute processor IDs in send order. A rank's children
// sit below the bit it joined the tree on (below the top bit for the root),
// largest first.
func AppendBinomialChildren(dst []int, r, root, P int) []int {
	joinMask := 1
	for joinMask < P && r&joinMask == 0 {
		joinMask <<= 1
	}
	for mask := joinMask >> 1; mask > 0; mask >>= 1 {
		if d := r + mask; d < P {
			dst = append(dst, (d+root)%P)
		}
	}
	return dst
}

// LinearBroadcastTime is the naive source-sends-to-everyone schedule: the
// root initiates P-1 sends back to back.
func LinearBroadcastTime(p Params) int64 {
	if p.P <= 1 {
		return 0
	}
	return int64(p.P-2)*p.SendInterval() + p.PointToPoint()
}

// Validate checks the internal consistency of a broadcast schedule:
// every processor informed exactly once, timing lawful under (L,o,g), and
// Finish is the max receive time. It is used by property tests.
func (s *BroadcastSchedule) Validate() error {
	p := s.Params
	informed := make([]bool, p.P)
	informed[s.Root] = true
	if s.RecvDone[s.Root] != 0 {
		return fmt.Errorf("root RecvDone = %d, want 0", s.RecvDone[s.Root])
	}
	interval := p.SendInterval()
	var finish int64
	for proc, sends := range s.Sends {
		for i, ev := range sends {
			if ev.At < s.RecvDone[proc] {
				return fmt.Errorf("proc %d sends at %d before holding datum at %d", proc, ev.At, s.RecvDone[proc])
			}
			if i > 0 && ev.At-sends[i-1].At < interval {
				return fmt.Errorf("proc %d sends at %d and %d: violates interval %d", proc, sends[i-1].At, ev.At, interval)
			}
			if informed[ev.Child] {
				return fmt.Errorf("proc %d informed twice", ev.Child)
			}
			informed[ev.Child] = true
			want := ev.At + 2*p.O + p.L
			if s.RecvDone[ev.Child] != want {
				return fmt.Errorf("child %d RecvDone = %d, want %d", ev.Child, s.RecvDone[ev.Child], want)
			}
			if s.Parent[ev.Child] != proc {
				return fmt.Errorf("child %d parent = %d, want %d", ev.Child, s.Parent[ev.Child], proc)
			}
			if want > finish {
				finish = want
			}
		}
	}
	for i, ok := range informed {
		if !ok {
			return fmt.Errorf("processor %d never informed", i)
		}
	}
	if finish != s.Finish && p.P > 1 {
		return fmt.Errorf("Finish = %d, want %d", s.Finish, finish)
	}
	return nil
}

// RecvTimes returns the sorted multiset of RecvDone times for the non-root
// processors, the quantity Figure 3 annotates on each tree node.
func (s *BroadcastSchedule) RecvTimes() []int64 {
	out := make([]int64, 0, len(s.RecvDone)-1)
	for i, t := range s.RecvDone {
		if i != s.Root {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Children returns proc's children in send order.
func (s *BroadcastSchedule) Children(proc int) []int {
	out := make([]int, len(s.Sends[proc]))
	for i, ev := range s.Sends[proc] {
		out[i] = ev.Child
	}
	return out
}

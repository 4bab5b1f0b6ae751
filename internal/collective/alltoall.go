package collective

import (
	"fmt"

	"github.com/logp-model/logp/internal/logp"
)

// Schedule selects the destination ordering of an all-to-all exchange
// (Section 4.1.2).
type Schedule int

const (
	// Naive sends all traffic to processor 0 first, then 1, and so on:
	// every processor floods the same destination at once, serializing on
	// the receiver's gap and stalling on the capacity constraint.
	Naive Schedule = iota
	// Staggered starts processor i at destination i+1 and wraps around, so
	// at every moment each destination has exactly one sender: the
	// contention-free schedule.
	Staggered
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case Naive:
		return "naive"
	case Staggered:
		return "staggered"
	}
	return fmt.Sprintf("schedule(%d)", int(s))
}

// AllToAll performs a personalized all-to-all exchange. Processor p sends
// counts[d] messages to each destination d (counts[p.ID()] must be 0), with
// payload(d, k) producing the k-th message for destination d. It receives
// messages until it has collected expect of them, interleaving receptions
// with sends so that the processor is never idle while traffic is pending.
// WorkPerMsg cycles of local computation are charged before each send,
// modeling the per-point load/store cost of Section 4.1.4.
func AllToAll(p *logp.Proc, sched Schedule, tag int, counts []int, payload func(dst, k int) any, expect int, workPerMsg int64) []logp.Message {
	P := p.P()
	me := p.ID()
	if len(counts) != P {
		panic(fmt.Sprintf("collective: counts len %d, P=%d", len(counts), P))
	}
	if counts[me] != 0 {
		panic("collective: nonzero self count in all-to-all")
	}
	order := destinationOrder(sched, P, me)
	recvd := make([]logp.Message, 0, expect)

	k := make([]int, P) // next message index per destination
	di := 0             // position in the destination order
	take := func(m logp.Message) {
		if m.Tag != tag {
			panic(fmt.Sprintf("collective: unexpected tag %d during all-to-all %d", m.Tag, tag))
		}
		recvd = append(recvd, m)
	}
	for di < len(order) || len(recvd) < expect {
		// Drain arrivals first: receiving is what unblocks remote senders.
		if p.HasMessage() && len(recvd) < expect {
			take(p.Recv())
			continue
		}
		if di < len(order) {
			dst := order[di]
			if k[dst] >= counts[dst] {
				di++
				continue
			}
			if workPerMsg > 0 {
				p.Compute(workPerMsg)
			}
			p.Send(dst, tag, payload(dst, k[dst]))
			k[dst]++
			continue
		}
		// Nothing to send; block for the remaining receptions.
		take(p.Recv())
	}
	return recvd
}

// destinationOrder produces the destination sequence for a schedule.
func destinationOrder(sched Schedule, P, me int) []int {
	order := make([]int, 0, P-1)
	switch sched {
	case Naive:
		for d := 0; d < P; d++ {
			if d != me {
				order = append(order, d)
			}
		}
	case Staggered:
		for i := 1; i < P; i++ {
			order = append(order, (me+i)%P)
		}
	default:
		panic(fmt.Sprintf("collective: unknown schedule %d", sched))
	}
	return order
}

package logp

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/sim"
	"github.com/logp-model/logp/internal/trace"
)

// Message is a small message in the sense of the model: a word or small
// number of words. Data carries the payload; algorithms that move bulk data
// send one message per word-sized unit (Section 5.4: long messages are not
// given special treatment in the basic model).
type Message struct {
	From, To  int
	Tag       int
	Data      any
	Size      int   // words in the message: 1 for Send, k for SendBulk
	SentAt    int64 // initiation time at the sender
	ArrivedAt int64 // arrival time at the destination module

	// dup marks a network-made duplicate copy (fault injection), which never
	// touches the capacity books.
	dup bool
}

// Dup reports whether this message is a fault-injected duplicate copy of an
// earlier delivery. Protocols normally detect duplicates by sequence number;
// this is for tests and diagnostics.
func (m Message) Dup() bool { return m.dup }

// Proc is one of the P processor/memory modules. All methods must be called
// from the processor's own body function. Methods advance this processor's
// simulated clock according to the model's cost rules.
type Proc struct {
	id    int
	m     *Machine
	ps    *sim.Process
	stats ProcStats

	nextSend int64 // earliest next send initiation (gap/overhead spacing)
	nextRecv int64 // earliest next reception start

	// inbox is head-indexed: arrivals append, receptions advance inboxHead,
	// and the storage is reused once drained, so the steady-state message
	// flow does not allocate.
	inbox     []Message
	inboxHead int
	inboxSig  sim.Signal

	// failed is set by a fault-plan fail-stop; the processor unwinds with a
	// procFailure panic at its next machine operation.
	failed bool
	// wake is this processor's pooled timeout event (RecvTimeout): it nudges
	// inboxSig at the deadline so the condition loop re-checks the clock.
	wake wakeup
}

// wakeup is a pooled timer event for RecvTimeout. Notify with no waiter is a
// no-op and all inbox waits are condition loops, so a stale wakeup (the
// message arrived first) is harmless.
type wakeup struct{ p *Proc }

// RunEvent implements sim.Runner.
func (w *wakeup) RunEvent() { w.p.inboxSig.Notify() }

// checkFail unwinds the processor body if a fail-stop has triggered. It is
// called on entry to every machine operation and after every inbox wait, so
// a dead processor halts at the next operation boundary.
func (p *Proc) checkFail() {
	if p.failed {
		panic(procFailure{p.id})
	}
}

// ID is the processor number in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the machine's processor count.
func (p *Proc) P() int { return p.m.cfg.P }

// Params returns the machine's LogP parameters. Protocols use them to derive
// timeouts from the model's L, o and g.
func (p *Proc) Params() core.Params { return p.m.cfg.Params }

// Failed reports whether a fail-stop has triggered for this processor. The
// processor itself never observes true (it unwinds first); other processors'
// code must not call this — protocols learn about dead peers by timeout.
func (p *Proc) Failed() bool { return p.failed }

// Now is this processor's current local time in cycles.
func (p *Proc) Now() int64 { return int64(p.ps.Now()) }

// Rand returns the machine's deterministic random source. It must only be
// used from processor bodies (the kernel runs one process at a time, so
// access is race-free and the draw order is reproducible).
func (p *Proc) Rand() *rand.Rand { return p.m.kernel.Rand() }

// Stats returns a snapshot of the processor's activity counters.
func (p *Proc) Stats() ProcStats { s := p.stats; s.Proc = p.id; s.Finish = p.Now(); return s }

// Metrics returns the machine's metrics registry, or nil when metrics are
// off. Layers built on top of the machine (internal/reliable) use it to
// record their own protocol counters alongside the machine's.
func (p *Proc) Metrics() *metrics.Registry { return p.m.met }

func (p *Proc) record(kind trace.Kind, start, end int64) {
	if p.m.tr != nil {
		p.m.tr.Add(p.id, kind, start, end)
	}
}

// Compute performs cycles of local work (the model charges unit time per
// local operation). With Config.ComputeJitter the actual duration stretches
// by a random factor, modeling local timing noise; a fault-plan Slowdown
// window overlapping the start time stretches it further.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("logp: negative compute %d", cycles))
	}
	p.checkFail()
	if cycles == 0 {
		return
	}
	if p.m.topol != nil {
		if r := p.m.topol.Rate(p.id); r != 1 {
			cycles = p.stretched(0, float64(cycles)*r)
		}
	}
	if p.m.skew != nil {
		cycles = p.stretched(0, float64(cycles)*p.m.skew[p.id])
	}
	if j := p.m.cfg.ComputeJitter; j > 0 {
		cycles = p.stretched(cycles, float64(cycles)*j*p.m.kernel.Rand().Float64())
	}
	if p.m.faults != nil {
		if f := p.m.faults.slowFactor(p.id, p.Now()); f > 1 {
			cycles = p.stretched(0, float64(cycles)*f)
		}
	}
	if cycles > math.MaxInt64-p.Now() {
		p.overflow(&ClockOverflowError{Proc: p.id, Op: "compute", Cycles: cycles, At: p.Now()})
	}
	start := p.Now()
	p.ps.Wait(sim.Time(cycles))
	p.stats.Compute += p.Now() - start
	p.record(trace.Compute, start, p.Now())
	if p.m.rec != nil {
		p.m.rec.Compute(p.id, cycles)
	}
}

// stretched is Stretched for a compute this processor begins now. On
// overflow it fails the run with a StretchOverflowError.
func (p *Proc) stretched(base int64, x float64) int64 {
	c, ok := Stretched(base, x, p.Now())
	if !ok {
		p.overflow(&StretchOverflowError{Proc: p.id, At: p.Now()})
	}
	return c
}

// overflow records err as the run's error, unless an earlier overflow did,
// and halts the processor as a fail-stop would.
func (p *Proc) overflow(err error) {
	if p.m.err == nil {
		p.m.err = err
	}
	p.m.kill(p.id)
	p.checkFail()
}

// idleUntil waits until absolute time t, recording the wait as idle.
func (p *Proc) idleUntil(t int64) {
	if t <= p.Now() {
		return
	}
	start := p.Now()
	p.ps.WaitUntil(sim.Time(t))
	p.record(trace.Idle, start, p.Now())
}

// Send transmits one small message to processor to. Model costs:
//
//   - the initiation respects the gap: consecutive initiations at this
//     processor are at least max(g, o) apart;
//   - the capacity constraint: if ceil(L/g) messages are already in transit
//     from this processor or to the destination, the processor stalls;
//   - the processor is then busy for o cycles; the message enters the
//     network and arrives at the destination module L cycles later (or
//     up to LatencyJitter earlier).
//
// Send to self is a programming error and panics: the model has no loopback
// network path.
func (p *Proc) Send(to, tag int, data any) {
	if to == p.id {
		panic(fmt.Sprintf("logp: proc %d sending to itself", p.id))
	}
	if to < 0 || to >= p.m.cfg.P {
		panic(fmt.Sprintf("logp: proc %d sending to %d out of range", p.id, to))
	}
	p.checkFail()
	cfg := &p.m.cfg
	lkL, lkO, lkG := p.m.link(p.id, to)
	// The gap wait (until nextSend) and the o-cycle overhead are one
	// uninterruptible stretch of processor time, so they share a single
	// kernel park; the trace segments are computed analytically.
	start := p.Now()
	if p.nextSend < 0 {
		p.overflow(GapOverflow(p.id, "send", p.nextSend, start))
	}
	initiation := start
	if p.nextSend > initiation {
		initiation = p.nextSend
	}
	if lkO > math.MaxInt64-initiation {
		p.overflow(&ClockOverflowError{Proc: p.id, Op: "send", Cycles: lkO, At: initiation})
	}
	p.ps.WaitUntil(sim.Time(initiation + lkO)) // idle until nextSend, then send overhead
	p.stats.SendOverhead += lkO
	p.stats.MsgsSent++
	if initiation > start {
		p.record(trace.Idle, start, initiation)
	}
	p.record(trace.SendOverhead, initiation, p.Now())
	if p.m.met != nil {
		p.m.met.OnSend(p.id, to)
	}

	// Capacity: a message is "in transit" during its L-cycle flight, from
	// injection to arrival at the destination module. If injecting now would
	// exceed ceil(L/g) in transit from this processor or to the destination,
	// the processor stalls until it can send (Section 3). A lone sender
	// never self-stalls: its injections are already spaced g apart.
	if p.m.outCap != nil {
		start := p.Now()
		p.m.outCap[p.id].Acquire(p.ps)
		p.m.inCap[to].Acquire(p.ps)
		if d := p.Now() - start; d > 0 {
			p.stats.Stall += d
			p.record(trace.Stall, start, p.Now())
			if p.m.met != nil {
				p.m.met.OnStall(p.id, d)
			}
		}
	}
	p.m.inTransitFrom[p.id]++
	p.m.inTransitTo[to]++
	if u := p.m.inTransitFrom[p.id]; u > p.m.maxOut {
		p.m.maxOut = u
	}
	if u := p.m.inTransitTo[to]; u > p.m.maxIn {
		p.m.maxIn = u
	}
	injection := p.Now()
	// Consecutive injections at one processor are at least g apart even if a
	// stall delayed this one. Both bounds use the link's own interval: the
	// gap is a property of the port driving that link class.
	p.nextSend = GapBound(initiation, max(lkO, lkG), injection, lkG-lkO)

	lat := lkL
	if cfg.LatencyJitter > 0 {
		lat -= p.m.kernel.Rand().Int63n(cfg.LatencyJitter + 1)
	}
	var drop, dup bool
	var dupLat int64
	if p.m.faults != nil {
		lat, drop, dup, dupLat = p.m.faults.messageFate(p.id, to, lat)
	}
	// The later copy's flight: a duplicate always lands after the original,
	// and dupLat is 0 without one.
	if f := max(lat, dupLat); f > math.MaxInt64-injection {
		p.overflow(&ClockOverflowError{Proc: p.id, Op: "send", Cycles: f, At: injection})
	}
	if p.m.rec != nil {
		p.m.rec.Send(p.id, to, tag, lat)
		if drop {
			p.m.rec.DropLast(p.id)
		}
	}
	d := p.m.newDelivery()
	d.msg = Message{From: p.id, To: to, Tag: tag, Data: data, Size: 1, SentAt: initiation}
	d.drop = drop
	d.flight = lat
	p.m.kernel.AfterRun(sim.Time(lat), d)
	if dup {
		if p.m.rec != nil {
			p.m.rec.Dup(p.id, to, tag, 1, dupLat)
		}
		d2 := p.m.newDelivery()
		d2.msg = Message{From: p.id, To: to, Tag: tag, Data: data, Size: 1, SentAt: initiation, dup: true}
		d2.dup = true
		d2.flight = dupLat
		p.m.kernel.AfterRun(sim.Time(dupLat), d2)
	}
}

// HasMessage reports whether a message has arrived and is waiting, at no
// cost: it models the processor glancing at its network interface.
func (p *Proc) HasMessage() bool { return p.Pending() > 0 }

// Pending reports the number of arrived, unreceived messages.
func (p *Proc) Pending() int { return len(p.inbox) - p.inboxHead }

// popInbox removes and returns the earliest-arrived message.
func (p *Proc) popInbox() Message {
	msg := p.inbox[p.inboxHead]
	p.inbox[p.inboxHead] = Message{}
	p.inboxHead++
	if p.inboxHead == len(p.inbox) {
		p.inbox = p.inbox[:0]
		p.inboxHead = 0
	}
	return msg
}

// RecvReady reports whether a Recv would proceed immediately: a message has
// arrived and the reception gap has elapsed. Polling loops that interleave
// receives with other work should gate on this rather than HasMessage, or
// the Recv blocks waiting out the gap and delays the other work. A gap
// bound past the int64 cycle count reads as elapsed, so the Recv fails at
// once instead of a poll waiting for ever.
func (p *Proc) RecvReady() bool {
	return p.Pending() > 0 && p.Now() >= p.nextRecv
}

// HasTag reports whether a message with the given tag has arrived and is
// waiting, at no cost.
func (p *Proc) HasTag(tag int) bool {
	for i := p.inboxHead; i < len(p.inbox); i++ {
		if p.inbox[i].Tag == tag {
			return true
		}
	}
	return false
}

// finishRecv pays the reception costs for a message already popped from the
// inbox: the gap wait (until nextRecv) and the reception overhead share one
// kernel park; popping first is safe because later arrivals only append
// behind the queue front.
func (p *Proc) finishRecv(msg Message) Message {
	arrived := p.Now()
	if p.nextRecv < 0 {
		p.overflow(GapOverflow(p.id, "receive", p.nextRecv, arrived))
	}
	start := arrived
	if p.nextRecv > start {
		start = p.nextRecv
	}
	_, lkO, lkG := p.m.link(msg.From, p.id)
	cost := p.recvCost(msg, lkO)
	if cost > math.MaxInt64-start {
		p.overflow(&ClockOverflowError{Proc: p.id, Op: "receive", Cycles: cost, At: start})
	}
	p.ps.WaitUntil(sim.Time(start + cost)) // gap, then receive overhead (per word without a coprocessor)
	p.stats.RecvOverhead += cost
	p.stats.MsgsReceived++
	if start > arrived {
		p.record(trace.Idle, arrived, start)
	}
	p.record(trace.RecvOverhead, start, p.Now())
	p.nextRecv = GapBound(start, max(lkO, lkG), start, cost)
	if p.m.rec != nil {
		p.m.rec.RecvDone(p.id)
	}
	if p.m.met != nil {
		p.m.met.OnRecv(p.id)
	}
	return msg
}

// Recv receives the earliest-arrived message, blocking until one is
// available. Model costs: reception start respects the gap (consecutive
// receptions at least max(g, o) apart) and the processor is busy for o
// cycles. The wait for arrival is idle time.
func (p *Proc) Recv() Message {
	p.checkFail()
	if p.m.rec != nil {
		p.m.rec.Recv(p.id)
	}
	for p.Pending() == 0 {
		start := p.Now()
		p.inboxSig.Wait(p.ps)
		p.record(trace.Idle, start, p.Now())
		p.checkFail()
	}
	return p.finishRecv(p.popInbox())
}

// RecvTimeout receives like Recv, but gives up if no message has arrived by
// absolute time deadline: the processor idles until the deadline and returns
// false. A message arriving exactly at the deadline is missed (the timer was
// scheduled first); one that arrived earlier is received normally, paying
// the usual gap and overhead.
func (p *Proc) RecvTimeout(deadline int64) (Message, bool) {
	p.checkFail()
	for p.Pending() == 0 {
		if p.Now() >= deadline {
			if p.m.rec != nil {
				p.m.rec.WaitUntil(p.id, deadline)
			}
			return Message{}, false
		}
		p.m.kernel.AtRun(sim.Time(deadline), &p.wake)
		start := p.Now()
		p.inboxSig.Wait(p.ps)
		p.record(trace.Idle, start, p.Now())
		p.checkFail()
	}
	if p.m.rec != nil {
		p.m.rec.Recv(p.id)
	}
	return p.finishRecv(p.popInbox()), true
}

// TryRecv receives a message if one has arrived, without blocking for
// arrival (it still pays the gap and overhead when a message is taken).
func (p *Proc) TryRecv() (Message, bool) {
	if p.Pending() == 0 {
		return Message{}, false
	}
	return p.Recv(), true
}

// RecvTag receives the earliest message with the given tag, blocking until
// one arrives. Messages with other tags stay queued in arrival order. Each
// inspection that lands on a matching message costs one reception (o).
func (p *Proc) RecvTag(tag int) Message {
	p.checkFail()
	if p.m.rec != nil {
		p.m.rec.RecvTag(p.id, tag)
	}
	for {
		for i := p.inboxHead; i < len(p.inbox); i++ {
			m := p.inbox[i]
			if m.Tag == tag {
				copy(p.inbox[i:], p.inbox[i+1:])
				p.inbox[len(p.inbox)-1] = Message{}
				p.inbox = p.inbox[:len(p.inbox)-1]
				if p.inboxHead == len(p.inbox) {
					p.inbox = p.inbox[:0]
					p.inboxHead = 0
				}
				return p.finishRecv(m)
			}
		}
		start := p.Now()
		p.inboxSig.Wait(p.ps)
		p.record(trace.Idle, start, p.Now())
		p.checkFail()
	}
}

// Barrier blocks until all P processors have arrived, then releases everyone
// Config.BarrierCost cycles after the last arrival. This models the special
// synchronization hardware of Section 5.5 (the CM-5 control network); the
// message-based alternative is collective.Barrier.
func (p *Proc) Barrier() {
	p.checkFail()
	if p.m.rec != nil {
		p.m.rec.Barrier(p.id)
	}
	start := p.Now()
	p.m.barrier.Await(p.ps)
	if c := p.m.cfg.BarrierCost; c > 0 {
		p.ps.Wait(sim.Time(c))
	}
	p.record(trace.Idle, start, p.Now())
}

// Wait idles for the given number of cycles without counting as computation.
func (p *Proc) Wait(cycles int64) {
	p.checkFail()
	if cycles <= 0 {
		return
	}
	if cycles > math.MaxInt64-p.Now() {
		p.overflow(&ClockOverflowError{Proc: p.id, Op: "wait", Cycles: cycles, At: p.Now()})
	}
	if p.m.rec != nil {
		p.m.rec.Wait(p.id, cycles)
	}
	start := p.Now()
	p.ps.Wait(sim.Time(cycles))
	p.record(trace.Idle, start, p.Now())
}

// WaitUntil idles until the given absolute time (no-op if already past).
func (p *Proc) WaitUntil(t int64) {
	p.checkFail()
	if p.m.rec != nil {
		p.m.rec.WaitUntil(p.id, t)
	}
	p.idleUntil(t)
}

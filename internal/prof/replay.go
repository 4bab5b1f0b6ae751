package prof

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/trace"
)

// Config selects the machine parameters a recorded run is re-costed under.
// The zero value is not useful; start from Recorder.BaseConfig and override
// the parameters being swept.
type Config struct {
	Params          core.Params
	Coprocessor     bool
	DisableCapacity bool
	BarrierCost     int64

	// UseRecordedLatency charges each message its actually drawn latency
	// instead of Params.L, reproducing a jittered recording exactly. What-if
	// replays leave it false so every message flies in exactly L.
	UseRecordedLatency bool
}

// BaseConfig returns the replay configuration matching the recorded machine,
// with UseRecordedLatency set: replaying it reconstructs the recorded run
// exactly (see Analyze).
func (r *Recorder) BaseConfig() Config {
	i := r.info
	return Config{
		Params:             i.Params,
		Coprocessor:        i.Coprocessor,
		DisableCapacity:    i.DisableCapacity,
		BarrierCost:        i.BarrierCost,
		UseRecordedLatency: true,
	}
}

// Span is one contiguous interval of the replayed run: processor activity
// (compute, overhead, stall, typed waits) or a message's network flight
// (Proc == -1). Pred indexes the span whose end determined this span's
// start — the binding constraint — so walking Pred links from the last span
// tiles the makespan exactly; -1 marks a chain that starts at time zero.
type Span struct {
	Proc  int // processor, or -1 for a network flight
	Kind  trace.Kind
	Start int64
	End   int64
	Pred  int // binding predecessor span index, -1 at a chain head
	Msg   int // message index for Flight spans, -1 otherwise
}

// MsgInfo summarizes one replayed message, with span indices for rendering.
type MsgInfo struct {
	From, To, Tag, Words int
	Injected             int64 // last word entered the network
	Arrived              int64 // complete at the destination module
	RecvStart, RecvEnd   int64 // reception overhead interval at the receiver
	FlightSpan           int
	RecvSpan             int  // -1 if the program ended without receiving it
	Dropped              bool // lost by the fault layer at arrival
	Dup                  bool // network-made duplicate copy (fault injection)
}

// Run is a replayed (re-costed) execution of a recorded DAG.
type Run struct {
	Cfg      Config
	P        int
	Makespan int64
	Finish   []int64 // per-processor completion times
	Spans    []Span
	Msgs     []MsgInfo

	lastSpan []int // per-processor last chain span, for CriticalPath
}

// Analyze replays the recording under the recorded configuration (with
// recorded latencies), reconstructing the run exactly; the result carries
// the span DAG for critical-path analysis and trace export.
func (r *Recorder) Analyze() (*Run, error) { return r.Replay(r.BaseConfig()) }

// Replay re-costs the recorded DAG under cfg without re-running the program:
// a discrete-event pass over the per-processor operation logs applying the
// machine's exact cost rules (gap spacing, capacity stalls, flight latency,
// barrier release). For programs whose operation sequence does not depend on
// message timing, the predicted makespan equals a fresh simulation's.
func (r *Recorder) Replay(cfg Config) (*Run, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.P != r.info.Params.P {
		return nil, fmt.Errorf("prof: replay with P=%d of a recording made with P=%d", cfg.Params.P, r.info.Params.P)
	}
	rp := newReplayer(r, cfg)
	if err := rp.run(); err != nil {
		return nil, err
	}
	return rp.result(), nil
}

// --- event queue ---

type evKind uint8

const (
	evStep     evKind = iota // advance a processor through its next ops
	evAcquire                // a send reaches its capacity-acquire point
	evDelivery               // a message arrives at its destination module
)

type event struct {
	t    int64
	seq  int64 // FIFO tie-break, mirroring the kernel's same-time ordering
	kind evKind
	proc int32
	msg  int32
}

type eventHeap struct {
	h   []event
	seq int64
}

func (q *eventHeap) push(t int64, kind evKind, proc, msg int32) {
	q.seq++
	e := event{t: t, seq: q.seq, kind: kind, proc: proc, msg: msg}
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *eventHeap) pop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && less(q.h[l], q.h[m]) {
			m = l
		}
		if r < n && less(q.h[r], q.h[m]) {
			m = r
		}
		if m == i {
			break
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
	return top
}

func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// --- replay state ---

type waitState uint8

const (
	wNone    waitState = iota
	wRecv              // blocked for a matching message arrival
	wCapOut            // queued on the sender-side capacity semaphore
	wCapIn             // holds the out slot, queued on the receiver-side one
	wBarrier           // arrived at the barrier, waiting for release
)

type rmsg struct {
	from, to, tag, words int
	lat                  int64
	arrival              int64
	flightSpan           int
	dropped              bool // discarded at arrival
	dup                  bool // capacity-exempt network copy
}

type rproc struct {
	id        int
	ops       []Op
	pc        int
	t         int64
	nextSend  int64
	nextRecv  int64
	chain     int     // last span on this processor's causal chain
	inbox     []int32 // arrived, unconsumed message indices in arrival order
	waiting   waitState
	waitStart int64
	lastMsg   int32 // message index of this processor's latest send, for OpDup
	failed    bool  // fail-stopped in the recording: late arrivals are discarded
	// pending send context while acquiring capacity
	sendInit int64 // initiation time
	sendEng  int64 // end of the engaged (overhead) stretch
}

type rsem struct {
	capacity int
	used     int
	queue    []*rproc
}

func (s *rsem) tryAcquire() bool {
	if s.used >= s.capacity {
		return false
	}
	s.used++
	return true
}

type replayer struct {
	rec   *Recorder
	cfg   Config
	procs []*rproc
	q     eventHeap
	spans []Span
	msgs  []rmsg
	minfo []MsgInfo
	// capacity semaphores, nil when disabled
	outCap, inCap []*rsem
	// hardware barrier
	barArrived []*rproc
	barMax     int64
}

func newReplayer(r *Recorder, cfg Config) *replayer {
	P := cfg.Params.P
	rp := &replayer{rec: r, cfg: cfg}
	rp.procs = make([]*rproc, P)
	for i := 0; i < P; i++ {
		rp.procs[i] = &rproc{id: i, ops: r.ops[i], chain: -1, lastMsg: -1}
		if r.failed != nil {
			rp.procs[i].failed = r.failed[i]
		}
	}
	for i := 0; i < P; i++ {
		rp.q.push(0, evStep, int32(i), 0)
	}
	if !cfg.DisableCapacity {
		units := cfg.Params.Capacity()
		rp.outCap = make([]*rsem, P)
		rp.inCap = make([]*rsem, P)
		for i := 0; i < P; i++ {
			rp.outCap[i] = &rsem{capacity: units}
			rp.inCap[i] = &rsem{capacity: units}
		}
	}
	return rp
}

// addSpan appends a span and returns its index; zero-length spans are
// dropped (returning the predecessor) so chains stay contiguous.
func (rp *replayer) addSpan(proc int, kind trace.Kind, start, end int64, pred, msg int) int {
	if end <= start {
		return pred
	}
	rp.spans = append(rp.spans, Span{Proc: proc, Kind: kind, Start: start, End: end, Pred: pred, Msg: msg})
	return len(rp.spans) - 1
}

func (rp *replayer) run() error {
	for len(rp.q.h) > 0 {
		e := rp.q.pop()
		switch e.kind {
		case evStep:
			rp.step(rp.procs[e.proc], e.t)
		case evAcquire:
			rp.acquire(rp.procs[e.proc], e.t)
		case evDelivery:
			rp.deliver(int(e.msg), e.t)
		}
	}
	for _, p := range rp.procs {
		if p.pc < len(p.ops) {
			return fmt.Errorf("prof: replay deadlock: proc %d blocked at op %d/%d (%v)",
				p.id, p.pc, len(p.ops), p.ops[p.pc].Kind)
		}
	}
	return nil
}

// step advances a processor from the current event time: local operations
// run inline, operations that touch shared state (sends acquiring capacity,
// receptions, barriers) are handled only when the global clock has caught up
// with the processor's, preserving the machine's arbitration order.
func (rp *replayer) step(p *rproc, now int64) {
	for p.pc < len(p.ops) {
		op := &p.ops[p.pc]
		switch op.Kind {
		case OpCompute:
			p.chain = rp.addSpan(p.id, trace.Compute, p.t, p.t+op.Arg, p.chain, -1)
			p.t += op.Arg
			p.pc++
		case OpWait:
			p.chain = rp.addSpan(p.id, trace.Idle, p.t, p.t+op.Arg, p.chain, -1)
			p.t += op.Arg
			p.pc++
		case OpWaitUntil:
			if op.Arg > p.t {
				p.chain = rp.addSpan(p.id, trace.Idle, p.t, op.Arg, p.chain, -1)
				p.t = op.Arg
			}
			p.pc++
		case OpDup:
			rp.startDup(p, op)
			p.pc++
		case OpSend, OpSendBulk:
			if p.t > now {
				rp.q.push(p.t, evStep, int32(p.id), 0)
				return
			}
			rp.startSend(p, op)
			return
		case OpRecv:
			if p.t > now {
				rp.q.push(p.t, evStep, int32(p.id), 0)
				return
			}
			if !rp.tryRecv(p, op, now) {
				p.waiting = wRecv
				p.waitStart = now
				return
			}
		case OpBarrier:
			if p.t > now {
				rp.q.push(p.t, evStep, int32(p.id), 0)
				return
			}
			if !rp.barrier(p, now) {
				return
			}
		}
	}
}

// startSend charges the gap wait and the engaged overhead stretch, then
// hands off to capacity acquisition at the end of the overhead (the
// machine's acquire point).
func (rp *replayer) startSend(p *rproc, op *Op) {
	prm := &rp.cfg.Params
	init := p.t
	if p.nextSend > init {
		init = p.nextSend
	}
	engaged := prm.O
	if op.Kind == OpSendBulk && !rp.cfg.Coprocessor {
		engaged = int64(op.Words-1)*prm.SendInterval() + prm.O
	}
	p.chain = rp.addSpan(p.id, trace.GapWait, p.t, init, p.chain, -1)
	p.chain = rp.addSpan(p.id, trace.SendOverhead, init, init+engaged, p.chain, -1)
	p.sendInit = init
	p.sendEng = init + engaged
	p.t = p.sendEng
	// nextSend before capacity, exactly as the machine orders it.
	if op.Kind == OpSendBulk {
		if rp.cfg.Coprocessor {
			p.nextSend = init + prm.O + int64(op.Words)*prm.G
		} else {
			p.nextSend = init + int64(op.Words)*prm.SendInterval()
		}
	} else {
		p.nextSend = init + prm.SendInterval()
	}
	if rp.outCap == nil {
		rp.finishSend(p, p.sendEng)
		return
	}
	rp.q.push(p.sendEng, evAcquire, int32(p.id), 0)
}

// acquire is the capacity-acquire point of a pending send: take the
// sender-side then receiver-side slot, queueing FIFO on whichever is full.
// A sender woken from a queue re-enters here and re-checks, as on the
// machine: from the out-queue it tries both slots again, from the in-queue
// (holding its out slot) only the in slot.
func (rp *replayer) acquire(p *rproc, now int64) {
	op := &p.ops[p.pc]
	if p.waiting != wCapIn {
		out := rp.outCap[p.id]
		if !out.tryAcquire() {
			p.waiting = wCapOut
			out.queue = append(out.queue, p)
			return
		}
	}
	in := rp.inCap[op.To]
	if !in.tryAcquire() {
		p.waiting = wCapIn
		in.queue = append(in.queue, p)
		return
	}
	rp.finishSend(p, now)
}

// release frees one slot and wakes the longest-queued sender, if any, to
// re-check at the current time: the machine's semaphores grant nothing on
// release, so another sender acting at the same instant can take the slot
// first, and the woken one then queues again at the back.
func (rp *replayer) release(s *rsem, tr int64) {
	if s.used == 0 {
		panic("prof: replay capacity release without acquire")
	}
	s.used--
	if len(s.queue) == 0 {
		return
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	rp.q.push(tr, evAcquire, int32(p.id), 0)
}

// finishSend completes a send whose capacity slots are held at time tInj:
// charge any stall, put the message in flight, and resume the processor.
func (rp *replayer) finishSend(p *rproc, tInj int64) {
	op := &p.ops[p.pc]
	prm := &rp.cfg.Params
	p.waiting = wNone
	p.chain = rp.addSpan(p.id, trace.Stall, p.sendEng, tInj, p.chain, -1)

	lat := prm.L
	if rp.cfg.UseRecordedLatency {
		lat = op.Arg
	}
	var arrival int64
	flightPred := p.chain
	if op.Kind == OpSendBulk {
		lastInj := int64(op.Words-1)*prm.SendInterval() + prm.O
		if rp.cfg.Coprocessor {
			lastInj = prm.O + int64(op.Words-1)*prm.G
			// The DMA device streams the train at the gap rate while the
			// processor is free; charge the stream to g on the causal chain.
			flightPred = rp.addSpan(p.id, trace.GapWait, p.sendEng, p.sendInit+lastInj, p.chain, -1)
		}
		arrival = p.sendInit + lastInj + lat
		if arrival < tInj {
			arrival = tInj // the machine clamps the flight to the injection
		}
	} else {
		arrival = tInj + lat
		// A stall may not defeat the gap: consecutive injections stay g apart.
		if t := tInj + prm.G - prm.O; t > p.nextSend {
			p.nextSend = t
		}
	}

	mi := len(rp.msgs)
	flightStart := arrival - lat
	if fp := flightPred; fp >= 0 && rp.spans[fp].End > flightStart {
		flightStart = rp.spans[fp].End
	}
	fs := len(rp.spans) // flights are kept even when zero-length, for message mapping
	rp.spans = append(rp.spans, Span{Proc: -1, Kind: trace.Flight, Start: flightStart, End: arrival, Pred: flightPred, Msg: mi})
	rp.msgs = append(rp.msgs, rmsg{
		from: p.id, to: int(op.To), tag: int(op.Tag), words: int(op.Words),
		lat: lat, arrival: arrival, flightSpan: fs, dropped: op.Dropped,
	})
	rp.minfo = append(rp.minfo, MsgInfo{
		From: p.id, To: int(op.To), Tag: int(op.Tag), Words: int(op.Words),
		Injected: tInj, Arrived: arrival, FlightSpan: fs, RecvSpan: -1,
		Dropped: op.Dropped,
	})
	rp.q.push(arrival, evDelivery, 0, int32(mi))
	p.lastMsg = int32(mi)

	p.t = tInj
	p.pc++
	rp.q.push(p.t, evStep, int32(p.id), 0)
}

// startDup re-delivers this processor's latest sent message as a
// network-made duplicate: no processor time, no capacity slot, its own
// latency (op.Arg) measured from the original's injection into the network.
func (rp *replayer) startDup(p *rproc, op *Op) {
	orig := &rp.msgs[p.lastMsg]
	arrival := orig.arrival - orig.lat + op.Arg
	if arrival <= orig.arrival && !rp.cfg.UseRecordedLatency {
		arrival = orig.arrival + 1 // the machine delivers copies strictly later
	}
	mi := len(rp.msgs)
	flightStart := arrival - op.Arg
	fs := len(rp.spans)
	rp.spans = append(rp.spans, Span{Proc: -1, Kind: trace.Flight, Start: flightStart, End: arrival, Pred: orig.flightSpan, Msg: mi})
	rp.msgs = append(rp.msgs, rmsg{
		from: p.id, to: int(op.To), tag: int(op.Tag), words: int(op.Words),
		lat: op.Arg, arrival: arrival, flightSpan: fs, dup: true,
	})
	rp.minfo = append(rp.minfo, MsgInfo{
		From: p.id, To: int(op.To), Tag: int(op.Tag), Words: int(op.Words),
		Injected: flightStart, Arrived: arrival, FlightSpan: fs, RecvSpan: -1,
		Dup: true,
	})
	rp.q.push(arrival, evDelivery, 0, int32(mi))
}

// deliver completes a message's flight: settle capacity, enqueue at the
// destination, and wake a blocked receiver. A message the fault layer
// dropped — or one addressed to a fail-stopped processor — is discarded
// here instead, exactly as the machine does.
func (rp *replayer) deliver(mi int, now int64) {
	m := &rp.msgs[mi]
	rp.settle(m, now)
	dst := rp.procs[m.to]
	// A fail-stopped destination discards arrivals once past its last
	// recorded op (its death point); earlier arrivals must still queue so
	// the receives it did complete before dying find their messages.
	if m.dropped || dst.failed && dst.pc >= len(dst.ops) && dst.waiting == wNone {
		return
	}
	if dst.waiting == wRecv {
		op := &dst.ops[dst.pc]
		if op.AnyTag || int(op.Tag) == m.tag {
			// Consume directly, bypassing the inbox. The wait is explained by
			// the message's flight, so the wait span preds the flight and the
			// chain continues from the flight itself.
			dst.waiting = wNone
			rp.addSpan(dst.id, trace.MsgWait, dst.waitStart, now, m.flightSpan, -1)
			dst.chain = m.flightSpan
			rp.consume(dst, op, mi, now)
			rp.q.push(dst.t, evStep, int32(dst.id), 0)
			return
		}
	}
	dst.inbox = append(dst.inbox, int32(mi))
}

// settle frees a message's capacity slots at its arrival, waking stalled
// senders; a duplicate copy holds none.
func (rp *replayer) settle(m *rmsg, now int64) {
	if m.dup || rp.outCap == nil {
		return
	}
	rp.release(rp.outCap[m.from], now)
	rp.release(rp.inCap[m.to], now)
}

// tryRecv consumes the earliest-arrived matching message, if one has
// arrived, applying the machine's matching rule (arrival order, optionally
// filtered by tag).
func (rp *replayer) tryRecv(p *rproc, op *Op, now int64) bool {
	for i, mi := range p.inbox {
		m := &rp.msgs[mi]
		if !op.AnyTag && int(op.Tag) != m.tag {
			continue
		}
		copy(p.inbox[i:], p.inbox[i+1:])
		p.inbox = p.inbox[:len(p.inbox)-1]
		// The message was already here: the processor, not the network, is
		// the binding constraint, so the chain stays in program order.
		rp.consume(p, op, int(mi), now)
		return true
	}
	return false
}

// consume charges the reception of message mi starting no earlier than ta
// (the later of the processor's readiness and the arrival).
func (rp *replayer) consume(p *rproc, op *Op, mi int, ta int64) {
	prm := &rp.cfg.Params
	m := &rp.msgs[mi]
	start := ta
	if p.nextRecv > start {
		start = p.nextRecv
	}
	cost := prm.O
	if !rp.cfg.Coprocessor && m.words > 1 {
		cost = int64(m.words) * prm.O
	}
	p.chain = rp.addSpan(p.id, trace.GapWait, ta, start, p.chain, -1)
	rs := rp.addSpan(p.id, trace.RecvOverhead, start, start+cost, p.chain, mi)
	p.chain = rs
	p.nextRecv = start + prm.SendInterval()
	if t := start + cost; t > p.nextRecv {
		p.nextRecv = t
	}
	p.t = start + cost
	p.pc++
	rp.minfo[mi].RecvStart = start
	rp.minfo[mi].RecvEnd = start + cost
	rp.minfo[mi].RecvSpan = rs
}

// barrier registers an arrival; the last arriver releases everyone
// BarrierCost cycles later. Reports whether the processor may continue
// (only the last arriver continues inline).
func (rp *replayer) barrier(p *rproc, now int64) bool {
	if now > rp.barMax {
		rp.barMax = now
	}
	if len(rp.barArrived) < len(rp.procs)-1 {
		rp.barArrived = append(rp.barArrived, p)
		p.waiting = wBarrier
		p.waitStart = now
		return false
	}
	release := rp.barMax + rp.cfg.BarrierCost
	for _, w := range rp.barArrived {
		w.chain = rp.addSpan(w.id, trace.BarrierWait, w.waitStart, release, w.chain, -1)
		w.waiting = wNone
		w.t = release
		w.pc++
		rp.q.push(release, evStep, int32(w.id), 0)
	}
	rp.barArrived = rp.barArrived[:0]
	rp.barMax = 0
	p.chain = rp.addSpan(p.id, trace.BarrierWait, now, release, p.chain, -1)
	p.t = release
	p.pc++
	return true
}

func (rp *replayer) result() *Run {
	run := &Run{
		Cfg:      rp.cfg,
		P:        len(rp.procs),
		Finish:   make([]int64, len(rp.procs)),
		Spans:    rp.spans,
		Msgs:     rp.minfo,
		lastSpan: make([]int, len(rp.procs)),
	}
	for i, p := range rp.procs {
		run.Finish[i] = p.t
		run.lastSpan[i] = p.chain
		if p.t > run.Makespan {
			run.Makespan = p.t
		}
	}
	return run
}

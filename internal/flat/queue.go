package flat

import (
	"fmt"

	"github.com/logp-model/logp/internal/logp"
)

// Event kinds. A wake resumes a processor's continuation, a deliver
// completes a message flight, a fail executes a fail-stop, a sample fires
// the metrics sampler (single-shard runs only).
const (
	evWake uint8 = iota
	evDeliver
	evFail
	evSample
)

// event is one scheduled occurrence in full: the form cross-shard outboxes
// carry. Inside a queue, events are stored as pointer-free ents with deliver
// payloads parked in the arena.
type event struct {
	t    int64
	seq  uint64
	kind uint8
	drop bool  // evDeliver: the fault layer loses the message at arrival
	proc int32 // target processor (wake/fail) or destination (deliver)
	// evDeliver payload.
	flight int64 // network latency drawn for this copy (metrics)
	msg    logp.Message
}

// ent is the in-queue representation: 32 pointer-free bytes, so queue
// operations move quarter-size entries with no write barriers and the
// garbage collector never scans the queue. Deliver payloads (the only part
// of an event with pointers) live out-of-line in the queue's arena,
// referenced by index.
type ent struct {
	t    int64
	seq  uint64
	proc int32
	idx  int32 // arena slot of the deliver payload; -1 for payload-free kinds
	kind uint8
	drop bool
}

// payload is the out-of-line part of an evDeliver event.
type payload struct {
	flight int64
	msg    logp.Message
}

// entLess orders entries by (time, sequence), exactly as the sim kernel
// does, so same-instant ties break in scheduling order.
func entLess(a, b *ent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// The near-future timing wheel: one bucket per cycle, wheelSize cycles
// ahead. LogP events overwhelmingly land within o + g + L of the current
// time, so almost every schedule is a bucket append and almost every pop a
// bucket read — no sift compares. Events beyond the horizon overflow to the
// 4-ary heap and migrate into the wheel as the clock approaches.
const (
	wheelBits = 7
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// queue is one shard's event queue. Dispatch order is exactly (time, seq) —
// the same total order as the sim kernel's heap + same-instant FIFO — which
// is what keeps the flat engine cycle-identical to the goroutine machine:
// the two runs make scheduling calls in the same order, so same-instant
// ties break identically.
//
// Representation invariants: every wheel entry has now <= t < now+wheelSize,
// so bucket t&wheelMask collides with nothing and the bucket for the current
// instant holds exactly the t == now events, in seq order (appends are
// seq-ordered; heap migrations insert by seq). The heap holds only entries
// with t >= now + wheelSize at their scheduling time; popNext migrates them
// into the wheel before the clock reaches them.
type queue struct {
	now      int64
	deadline int64 // bound for in-place clock advances (window end - 1)
	seq      uint64
	count    int // unconsumed wheel entries across all buckets
	heads    [wheelSize]int32
	wheel    [wheelSize][]ent
	heap     []ent // overflow: events past the wheel horizon
	arena    []payload
	free     []int32
	rec      *ShardStat // flight-recorder hook; nil when the recorder is off
}

// allocPayload reserves an arena slot, recycling freed ones.
func (q *queue) allocPayload() int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		return i
	}
	q.arena = append(q.arena, payload{})
	return int32(len(q.arena) - 1)
}

// freePayload recycles a delivery's arena slot once its message has been
// consumed, dropping the payload reference so the GC does not retain it.
func (q *queue) freePayload(i int32) {
	q.arena[i].msg.Data = nil
	q.free = append(q.free, i)
}

// insert places an entry in the wheel or, past the horizon, the heap.
func (q *queue) insert(e ent) {
	if e.t-q.now >= wheelSize {
		if q.rec != nil {
			q.rec.HeapEvents++
		}
		q.pushHeap(e)
		return
	}
	if q.rec != nil {
		q.rec.WheelEvents++
	}
	s := int(e.t) & wheelMask
	if h := q.heads[s]; h != 0 && h == int32(len(q.wheel[s])) {
		q.wheel[s] = q.wheel[s][:0]
		q.heads[s] = 0
	}
	q.wheel[s] = append(q.wheel[s], e)
	q.count++
}

// migrate moves a heap entry into the wheel once its time is within the
// horizon, inserting by seq: earlier-scheduled (heap) entries precede the
// bucket's direct appends at the same instant, exactly as (t, seq) demands.
//
// popNext drains due heap entries in (t, seq) order, so a burst of events
// sharing an instant migrates as a seq-ascending run: each lands after the
// bucket's current tail and the append fast path makes the whole run linear.
// Without it the insertion scan walks the run-so-far every time, which is
// quadratic exactly when it hurts — a broadcast frontier of 10^5+ deliveries
// buffered for one instant beyond the horizon. The scan survives only for
// the rare out-of-order case: a barrier merge direct-appended a larger-seq
// entry to the bucket before the migration caught up.
func (q *queue) migrate(e ent) {
	s := int(e.t) & wheelMask
	if h := q.heads[s]; h != 0 && h == int32(len(q.wheel[s])) {
		q.wheel[s] = q.wheel[s][:0]
		q.heads[s] = 0
	}
	if n := len(q.wheel[s]); n == int(q.heads[s]) || q.wheel[s][n-1].seq < e.seq {
		q.wheel[s] = append(q.wheel[s], e)
		q.count++
		return
	}
	sl := append(q.wheel[s], ent{})
	i := int(q.heads[s])
	for i < len(sl)-1 && sl[i].seq < e.seq {
		i++
	}
	copy(sl[i+1:], sl[i:])
	sl[i] = e
	q.wheel[s] = sl
	q.count++
}

// schedule queues e at absolute time t, assigning the next sequence number.
func (q *queue) schedule(t int64, e *event) {
	if t < q.now {
		panic(fmt.Sprintf("flat: scheduling event at %d before current time %d", t, q.now))
	}
	q.seq++
	en := ent{t: t, seq: q.seq, proc: e.proc, idx: -1, kind: e.kind, drop: e.drop}
	if e.kind == evDeliver {
		i := q.allocPayload()
		p := &q.arena[i]
		p.flight = e.flight
		p.msg = e.msg
		en.idx = i
	}
	q.insert(en)
}

// scheduleAt queues a payload-free event (wake, fail, sample) at time t.
// This is the hot scheduling path — parks and wakes — and never touches the
// full event struct or the arena.
func (q *queue) scheduleAt(t int64, kind uint8, proc int32) {
	if t < q.now {
		panic(fmt.Sprintf("flat: scheduling event at %d before current time %d", t, q.now))
	}
	q.seq++
	q.insert(ent{t: t, seq: q.seq, proc: proc, idx: -1, kind: kind})
}

// scheduleDeliver queues a shard-local delivery from its pieces, writing the
// payload straight into the arena with no intermediate event value.
func (q *queue) scheduleDeliver(t int64, proc int32, msg *logp.Message, flight int64, drop bool) {
	if t < q.now {
		panic(fmt.Sprintf("flat: scheduling event at %d before current time %d", t, q.now))
	}
	q.seq++
	i := q.allocPayload()
	p := &q.arena[i]
	p.flight = flight
	p.msg = *msg
	q.insert(ent{t: t, seq: q.seq, proc: proc, idx: i, kind: evDeliver, drop: drop})
}

// pushHeap inserts e into the 4-ary overflow heap (sift-up with a hole).
func (q *queue) pushHeap(e ent) {
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
}

// popHeap removes and returns the minimum heap entry.
func (q *queue) popHeap() ent {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
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
				if entLess(&h[j], &h[best]) {
					best = j
				}
			}
			if !entLess(&h[best], &last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	q.heap = h
	return top
}

// popBucket removes the next entry of bucket s, which must be non-empty.
func (q *queue) popBucket(s int, out *ent) {
	*out = q.wheel[s][q.heads[s]]
	q.heads[s]++
	q.count--
	if q.heads[s] == int32(len(q.wheel[s])) {
		q.wheel[s] = q.wheel[s][:0]
		q.heads[s] = 0
	}
}

// nextAfterNow finds the earliest event time strictly after now: the first
// non-empty wheel bucket ahead (every wheel entry is within the horizon, so
// the scan is bounded by the gap to the next event) or the heap top.
func (q *queue) nextAfterNow() (int64, bool) {
	if q.count > 0 {
		for d := int64(1); d < wheelSize; d++ {
			t := q.now + d
			if s := int(t) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
				return t, true
			}
		}
	}
	if len(q.heap) > 0 {
		return q.heap[0].t, true
	}
	return 0, false
}

// popNext fills out with the next event in (time, seq) order, advancing the
// clock, as long as its time is strictly below limit. Events at the current
// instant always run (the window barrier only bounds clock advances).
// Deliver payloads stay in the arena; the dispatcher reads them via out.idx
// and frees the slot when done.
func (q *queue) popNext(limit int64, out *ent) bool {
	if s := int(q.now) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
		q.popBucket(s, out)
		return true
	}
	t, ok := q.nextAfterNow()
	if !ok || t >= limit {
		return false
	}
	q.now = t
	for len(q.heap) > 0 && q.heap[0].t-t < wheelSize {
		q.migrate(q.popHeap())
	}
	q.popBucket(int(t)&wheelMask, out)
	return true
}

// reset empties the queue and rewinds its clock and sequence counter,
// keeping the capacity of every bucket, the heap and the arena for reuse.
func (q *queue) reset() {
	q.now, q.deadline, q.seq = 0, 0, 0
	for s := range q.wheel {
		q.wheel[s] = q.wheel[s][:0]
		q.heads[s] = 0
	}
	q.count = 0
	q.heap = q.heap[:0]
	for i := range q.arena {
		q.arena[i].msg = logp.Message{}
	}
	q.arena = q.arena[:0]
	q.free = q.free[:0]
}

// pending reports the number of queued events (the kernel's pendingEvents).
func (q *queue) pending() int { return q.count + len(q.heap) }

// nextTime reports the time of the next event, if any.
func (q *queue) nextTime() (int64, bool) {
	if s := int(q.now) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
		return q.now, true
	}
	return q.nextAfterNow()
}

// canAdvance reports whether the clock may move to t in place, with no
// event scheduled: the mirror of sim.Process.advance. Valid only when no
// queued event precedes or ties t (the advancing processor is necessarily
// the next dispatch) and t does not cross the active window deadline.
func (q *queue) canAdvance(t int64) bool {
	if t > q.deadline {
		return false
	}
	if s := int(q.now) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
		return false
	}
	if len(q.heap) > 0 && q.heap[0].t <= t {
		return false
	}
	if q.count > 0 {
		if t-q.now >= wheelSize {
			return false // every wheel entry is within the horizon, hence <= t
		}
		for d := int64(1); d <= t-q.now; d++ {
			if s := int(q.now+d) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
				return false
			}
		}
	}
	return true
}

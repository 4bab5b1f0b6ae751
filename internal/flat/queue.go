package flat

import (
	"fmt"
	"math"

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

// record is one message from injection to reception: 32 pointer-free
// bytes, written once into its shard's arena when the message enters the
// network and read in place at delivery and at reception, which frees it
// (delivery frees a dropped one). A logp.Message is built from it only when
// a handler receives it. The receiver is the delivery's proc and a Node
// message is always one word, so neither is stored; a non-nil payload
// travels beside the record (see queue.data and proc.inData).
type record struct {
	t       int64 // until delivery: the drawn flight; from delivery on: the arrival time
	sentAt  int64
	tag     int
	from    int32 // in a free record: 1 + the next free slot, 0 at the end of the list
	dup     bool
	hasData bool // delivered with a payload, which waits in the receiver's inData queue
}

// set overwrites every field of r for a message entering the network with
// flight t.
func (r *record) set(from int32, tag int, sentAt, t int64, dup bool) {
	r.t = t
	r.sentAt = sentAt
	r.tag = tag
	r.from = from
	r.dup = dup
	r.hasData = false
}

// message rebuilds the logp.Message a delivered record at processor to
// stands for.
func (r *record) message(to int32, data any) logp.Message {
	msg := logp.Message{From: int(r.from), To: int(to), Tag: r.tag, Data: data, Size: 1,
		SentAt: r.sentAt, ArrivedAt: r.t}
	if r.dup {
		return msg.AsDup()
	}
	return msg
}

// post is a cross-shard delivery waiting in an outbox for the window
// barrier: the only place a message's record travels by value.
type post struct {
	t    int64 // delivery time
	rec  record
	data any
	to   int32
	drop bool
}

// ent is the in-queue representation: 32 pointer-free bytes, so queue
// operations move small entries with no write barriers and the garbage
// collector never scans the queue. A delivery's record lives in the
// queue's arena and its payload, if any, in the queue's data table, both
// referenced by index.
type ent struct {
	t    int64
	seq  uint64
	proc int32
	idx  int32 // evDeliver: the message's arena slot
	data int32 // evDeliver: 1 + the payload's slot in queue.data; 0 for none
	kind uint8
	drop bool
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
// seq-ordered; heap migrations insert by seq). Every heap entry has t > now.
// The heap holds entries that lay at least wheelSize ahead when they were
// scheduled, but an in-place clock advance (canAdvance, which never passes
// the heap top) moves now without migrating any, so heap entries may lie
// inside the horizon and the heap top may precede every wheel entry.
// nextAfterNow therefore takes the earlier of the first non-empty bucket and
// the heap top, and popNext migrates every heap entry within the new clock's
// horizon before it pops, so each lands in the bucket of its own time rather
// than in the bucket that stands for a wheel turn later.
type queue struct {
	now      int64
	deadline int64 // bound for in-place clock advances (window end - 1)
	seq      uint64
	count    int // unconsumed wheel entries across all buckets
	heads    [wheelSize]int32
	wheel    [wheelSize][]ent
	heap     []ent      // overflow: events past the wheel horizon
	arena    []record   // every queued message, from injection to reception
	free     int32      // 1 + the first free arena slot; 0 when none is free
	data     []any      // payloads of messages in flight, moved to inData at delivery
	dataFree []int32    // free slots of data
	rec      *ShardStat // flight-recorder hook; nil when the recorder is off

	// The run's high-water marks that reset's trim rule reads: each wheel
	// bucket's most entries at a drain, and the heap's most entries.
	peaks    [wheelSize]int32
	heapPeak int
}

// newRecord reserves an arena slot, recycling freed ones.
func (q *queue) newRecord() int32 {
	if q.free != 0 {
		i := q.free - 1
		q.free = q.arena[i].from
		return i
	}
	n := len(q.arena)
	if n == cap(q.arena) {
		q.arena = recordSpares.grow(q.arena)
	}
	q.arena = q.arena[:n+1]
	return int32(n)
}

// freeRecord recycles a message's arena slot, chaining it into the free
// list through its own from field.
func (q *queue) freeRecord(i int32) {
	q.arena[i].from = q.free
	q.free = i + 1
}

// putData parks a payload in flight and returns its data reference for the
// delivery's entry: 0 for nil, else 1 + its slot.
func (q *queue) putData(d any) int32 {
	if d == nil {
		return 0
	}
	if n := len(q.dataFree); n > 0 {
		i := q.dataFree[n-1]
		q.dataFree = q.dataFree[:n-1]
		q.data[i] = d
		return i + 1
	}
	q.data = anySpares.push(q.data, d)
	return int32(len(q.data))
}

// takeData returns the payload a delivery's data reference (non-zero)
// names and frees its slot.
func (q *queue) takeData(ref int32) any {
	d := q.data[ref-1]
	q.data[ref-1] = nil
	q.dataFree = int32Spares.push(q.dataFree, ref-1)
	return d
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
	// Only the growth leaves insert: handing every event's entry to a
	// helper made sim-large's P=256 dispatch about 8% slower.
	s := int(e.t) & wheelMask
	if b := q.wheel[s]; len(b) == cap(b) {
		q.wheel[s] = grownBucket(b)
	}
	q.wheel[s] = append(q.wheel[s], e)
	q.count++
}

// bucketMin is the capacity of a wheel bucket's first allocation. A wheel
// that seat trims regrows all of its buckets in the next large run, and
// doubling each from one entry made jobs-cold's median latency about 5%
// longer than starting at 16 entries does.
const bucketMin = 16

// grownBucket returns the entries of full bucket b in a buffer with room
// for more, taken through the spare pool: bucketMin entries for an empty
// bucket, twice b's capacity otherwise.
func grownBucket(b []ent) []ent {
	if cap(b) == 0 {
		return entSpares.get(bucketMin)
	}
	return entSpares.grow(b)
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
	if b := q.wheel[s]; len(b) == cap(b) {
		q.wheel[s] = grownBucket(b)
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

// scheduleAt queues a payload-free event (wake, fail, sample) at time t.
// This is the hot scheduling path — parks and wakes — and never touches the
// arena.
func (q *queue) scheduleAt(t int64, kind uint8, proc int32) {
	if t < q.now {
		panic(fmt.Sprintf("flat: scheduling event at %d before current time %d", t, q.now))
	}
	q.seq++
	q.insert(ent{t: t, seq: q.seq, proc: proc, idx: -1, kind: kind})
}

// deliverAt queues the delivery of a message to proc at time t, parks its
// payload, and returns the message's fresh arena record, which the caller
// fills in place.
func (q *queue) deliverAt(t int64, proc int32, data any, drop bool) *record {
	if t < q.now {
		panic(fmt.Sprintf("flat: scheduling event at %d before current time %d", t, q.now))
	}
	q.seq++
	i := q.newRecord()
	q.insert(ent{t: t, seq: q.seq, proc: proc, idx: i, data: q.putData(data), kind: evDeliver, drop: drop})
	return &q.arena[i]
}

// pushHeap inserts e into the 4-ary overflow heap (sift-up with a hole).
func (q *queue) pushHeap(e ent) {
	h := entSpares.push(q.heap, e)
	q.heapPeak = max(q.heapPeak, len(h))
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
		q.peaks[s] = max(q.peaks[s], q.heads[s])
		q.wheel[s] = q.wheel[s][:0]
		q.heads[s] = 0
	}
}

// nextAfterNow finds the earliest event time strictly after now: the earlier
// of the first non-empty wheel bucket ahead (every wheel entry is within the
// horizon, so the scan is bounded by the gap to the next event) and the heap
// top, which an in-place advance can leave inside the horizon (see queue).
func (q *queue) nextAfterNow() (int64, bool) {
	t, ok := int64(0), false
	if q.count > 0 {
		for d := int64(1); d < wheelSize; d++ {
			if s := int(q.now+d) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
				t, ok = q.now+d, true
				break
			}
		}
	}
	if len(q.heap) > 0 && (!ok || q.heap[0].t < t) {
		return q.heap[0].t, true
	}
	return t, ok
}

// popNext fills out with the next event in (time, seq) order, advancing the
// clock, as long as its time is strictly below limit; a limit of
// math.MaxInt64 bounds nothing, so an event at the last cycle still runs.
// Events at the current instant always run (the window barrier only bounds
// clock advances). A delivery's record stays in the arena, where the
// dispatcher reads it via out.idx.
func (q *queue) popNext(limit int64, out *ent) bool {
	if s := int(q.now) & wheelMask; q.heads[s] < int32(len(q.wheel[s])) {
		q.popBucket(s, out)
		return true
	}
	t, ok := q.nextAfterNow()
	if !ok || t >= limit && limit != math.MaxInt64 {
		return false
	}
	q.now = t
	for len(q.heap) > 0 && q.heap[0].t-t < wheelSize {
		q.migrate(q.popHeap())
	}
	q.popBucket(int(t)&wheelMask, out)
	return true
}

// reset empties the queue and rewinds its clock and sequence counter. The
// wheel, the heap, the arena and the payload table keep their capacity for
// reuse unless the run just ended used under a quarter of it (trims). The
// wheel is judged as one buffer: its capacity is its buckets' total, and
// its peak the total of each bucket's longest drain (or its length now, if
// it never drained; for a bucket the run used, at least the bucketMin
// entries of its first allocation), so a wheel that an earlier run grew,
// or spread over more buckets, is dropped whole, while a repeated job whose
// events shift between buckets keeps every one.
// The heap's peak is recorded at each push; the arena's and the payload
// table's are their high-water lengths.
func (q *queue) reset() {
	q.now, q.deadline, q.seq = 0, 0, 0
	c, peak := 0, 0
	for s := range q.wheel {
		c += cap(q.wheel[s])
		if p := max(int(q.peaks[s]), len(q.wheel[s])); p > 0 {
			peak += max(p, bucketMin)
		}
	}
	drop := trims(c, peak)
	for s := range q.wheel {
		if drop {
			entSpares.put(q.wheel[s])
			q.wheel[s] = nil
		} else {
			q.wheel[s] = q.wheel[s][:0]
		}
		q.heads[s] = 0
		q.peaks[s] = 0
	}
	q.count = 0
	q.heap = trimmed(&entSpares, q.heap, q.heapPeak)
	q.heapPeak = 0
	q.arena = trimmed(&recordSpares, q.arena, len(q.arena))
	q.free = 0
	clear(q.data)
	q.dataFree = trimmed(&int32Spares, q.dataFree, len(q.data))
	q.data = trimmed(&anySpares, q.data, len(q.data))
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

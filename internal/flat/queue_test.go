package flat

import (
	"math"
	"testing"
)

// TestQueuePendingQuiescence pins the queue-level invariant the deadlock
// detector depends on (the flat-core analogue of kernel.Quiescent /
// pendingEvents): pending counts both the same-instant FIFO and the heap,
// and reaches zero exactly when both drain.
func TestQueuePendingQuiescence(t *testing.T) {
	var q queue
	var e ent
	if q.pending() != 0 {
		t.Fatalf("fresh queue pending = %d", q.pending())
	}
	q.scheduleAt(0, evWake, 0) // same-instant: FIFO
	q.scheduleAt(5, evWake, 1) // future: heap
	q.scheduleAt(0, evWake, 2) // FIFO again
	if got := q.pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	if _, ok := q.nextTime(); !ok {
		t.Fatal("nextTime reported empty")
	}
	for i := 3; i > 0; i-- {
		if q.pending() != i {
			t.Fatalf("pending = %d, want %d", q.pending(), i)
		}
		if !q.popNext(math.MaxInt64, &e) {
			t.Fatalf("popNext drained early at %d remaining", i)
		}
	}
	if q.pending() != 0 {
		t.Fatalf("drained queue pending = %d", q.pending())
	}
	if q.popNext(math.MaxInt64, &e) {
		t.Fatal("popNext produced an event from an empty queue")
	}
	if q.now != 5 {
		t.Fatalf("queue time %d after draining, want 5", q.now)
	}
}

// TestQueueOrderAndElision pins the merge rule ((time, seq) order with the
// FIFO fast path) and the in-place clock-advance condition used to elide
// park wake-ups.
func TestQueueOrderAndElision(t *testing.T) {
	var q queue
	var e ent
	q.deadline = math.MaxInt64
	q.scheduleAt(4, evWake, 2)
	q.scheduleAt(0, evWake, 0)
	q.scheduleAt(2, evWake, 1)

	// FIFO is non-empty at t=0: the clock cannot advance in place.
	if q.canAdvance(1) {
		t.Error("canAdvance with same-instant work pending")
	}
	q.popNext(math.MaxInt64, &e)
	if e.proc != 0 || q.now != 0 {
		t.Fatalf("first event proc %d at %d, want proc 0 at 0", e.proc, q.now)
	}
	// FIFO drained, heap top at 2: advancing to 1 is safe, to 3 is not.
	if !q.canAdvance(1) {
		t.Error("cannot advance to 1 with heap top at 2")
	}
	if q.canAdvance(3) {
		t.Error("advanced past heap top at 2")
	}
	q.popNext(math.MaxInt64, &e)
	if e.proc != 1 || q.now != 2 {
		t.Fatalf("second event proc %d at %d, want proc 1 at 2", e.proc, q.now)
	}
	// The window limit bounds the pop: an event at 4 is invisible to a
	// window ending at 4.
	if q.popNext(4, &e) {
		t.Error("popNext crossed the window end")
	}
	if !q.popNext(5, &e) || e.proc != 2 {
		t.Error("popNext missed the event inside the widened window")
	}
	// Past the deadline the clock may not advance in place either.
	q.deadline = 10
	if q.canAdvance(11) {
		t.Error("advanced past the shard deadline")
	}
}

// TestQueueDeliverArenaRecycles pins the arena round-trip: delivery records
// and their payloads survive the heap, and their slots recycle instead of
// growing.
func TestQueueDeliverArenaRecycles(t *testing.T) {
	var q queue
	var e ent
	for round := 0; round < 8; round++ {
		base := q.now
		for i := 0; i < 4; i++ {
			q.deliverAt(base+int64(1+i), int32(i), round, false).set(int32(i), 7, base, int64(10+i), false)
		}
		for i := 0; i < 4; i++ {
			if !q.popNext(math.MaxInt64, &e) {
				t.Fatal("queue drained early")
			}
			rec := &q.arena[e.idx]
			if e.kind != evDeliver || rec.from != e.proc || rec.t != int64(10+e.proc) || rec.tag != 7 {
				t.Fatalf("record scrambled: %+v (record %+v)", e, *rec)
			}
			if e.data == 0 {
				t.Fatal("payload lost")
			}
			if d := q.takeData(e.data); d != round {
				t.Fatalf("payload data %v, want %v", d, round)
			}
			q.freeRecord(e.idx)
		}
	}
	if len(q.arena) > 4 || len(q.data) > 4 {
		t.Errorf("arena grew to %d records and the payload table to %d slots for 4 concurrent deliveries",
			len(q.arena), len(q.data))
	}
}

// BenchmarkQueueScheduleDrain measures the raw event-kernel cycle the flat
// core is built on: schedule into the heap, pop in order.
func BenchmarkQueueScheduleDrain(b *testing.B) {
	const batch = 1024
	var q queue
	var e ent
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for i := 0; i < batch; i++ {
			// A deterministic scatter of future times.
			q.scheduleAt(q.now+int64(1+(i*7)%64), evWake, int32(i))
		}
		for q.popNext(math.MaxInt64, &e) {
		}
	}
}

// BenchmarkQueueFIFOFastPath measures the same-instant append/pop fast path
// taken by handler-driven wake chains.
func BenchmarkQueueFIFOFastPath(b *testing.B) {
	var q queue
	var e ent
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for i := 0; i < 64; i++ {
			q.scheduleAt(q.now, evWake, int32(i))
		}
		for q.popNext(math.MaxInt64, &e) {
		}
		q.now++
	}
}

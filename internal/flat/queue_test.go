package flat

import (
	"math"
	"testing"
)

// TestQueuePendingQuiescence pins the queue-level invariant the deadlock
// detector depends on (the flat-core analogue of kernel.Quiescent /
// pendingEvents): pending counts both the timing wheel's buckets and the
// overflow heap, and reaches zero exactly when both drain.
func TestQueuePendingQuiescence(t *testing.T) {
	var q queue
	var e ent
	if q.pending() != 0 {
		t.Fatalf("fresh queue pending = %d", q.pending())
	}
	q.scheduleAt(0, evWake, 0)   // the current instant's bucket
	q.scheduleAt(5, evWake, 1)   // a later bucket
	q.scheduleAt(0, evWake, 2)   // the current instant's bucket again
	q.scheduleAt(200, evWake, 3) // past the wheel's horizon: the heap
	if got := q.pending(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	if _, ok := q.nextTime(); !ok {
		t.Fatal("nextTime reported empty")
	}
	for i := 4; i > 0; i-- {
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
	if q.now != 200 {
		t.Fatalf("queue time %d after draining, want 200", q.now)
	}
}

// TestQueueOrderAndElision pins the dispatch order ((time, seq) across the
// wheel's buckets) and the in-place clock-advance condition used to elide
// park wake-ups.
func TestQueueOrderAndElision(t *testing.T) {
	var q queue
	var e ent
	q.deadline = math.MaxInt64
	q.scheduleAt(4, evWake, 2)
	q.scheduleAt(0, evWake, 0)
	q.scheduleAt(2, evWake, 1)

	// The bucket of t=0 is non-empty: the clock cannot advance in place.
	if q.canAdvance(1) {
		t.Error("canAdvance with same-instant work pending")
	}
	q.popNext(math.MaxInt64, &e)
	if e.proc != 0 || q.now != 0 {
		t.Fatalf("first event proc %d at %d, want proc 0 at 0", e.proc, q.now)
	}
	// The bucket of t=0 drained and the next event is at 2: advancing to 1
	// is safe, to 3 is not.
	if !q.canAdvance(1) {
		t.Error("cannot advance to 1 with the next event at 2")
	}
	if q.canAdvance(3) {
		t.Error("advanced past the next event at 2")
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

// TestQueueHeapTopInsideHorizon pins the queue's answer to an in-place
// advance that brings a heap entry inside the wheel's horizon: a wheel entry
// queued after it at a later time must not be popped first, and the heap
// entry must fire at its own time, not a wheel turn later.
func TestQueueHeapTopInsideHorizon(t *testing.T) {
	var q queue
	var e ent
	q.deadline = math.MaxInt64
	q.scheduleAt(150, evWake, 1) // past the horizon: heap
	if !q.canAdvance(129) {
		t.Fatal("cannot advance to 129 with heap top at 150")
	}
	q.now = 129
	q.scheduleAt(160, evWake, 2) // inside the horizon: wheel
	if next, ok := q.nextTime(); !ok || next != 150 {
		t.Fatalf("nextTime = %d, %v; want the heap top 150", next, ok)
	}
	for _, want := range []struct {
		proc int32
		t    int64
	}{{1, 150}, {2, 160}} {
		if !q.popNext(math.MaxInt64, &e) || e.proc != want.proc || q.now != want.t {
			t.Fatalf("popped proc %d at %d, want proc %d at %d", e.proc, q.now, want.proc, want.t)
		}
	}
	if q.pending() != 0 {
		t.Fatalf("pending = %d after both events", q.pending())
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
// core is built on: schedule a batch of events 1 to 64 cycles ahead, all
// inside the timing wheel's horizon, then pop them in (time, seq) order.
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

// BenchmarkQueueFIFOFastPath measures events at the current instant, which
// handler-driven wake chains schedule: appends to and pops from the current
// instant's wheel bucket, which keeps them in scheduling order.
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

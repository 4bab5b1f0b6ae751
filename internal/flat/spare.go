package flat

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// spares recycles the run buffers of one element type across every machine
// in the process. seat hands it each buffer the trim rule drops, and while
// pooling is on a growth site takes a spare before it allocates and hands
// back the buffer it outgrew. So a pooled machine that runs a large program
// after a small one regrows its buffers from what earlier runs let go, not
// from fresh memory.
//
// The spares sit outside the machine pool's byte budget and StorageBytes,
// and the garbage collector empties the pool: a sync.Pool drops an item at
// the second collection after its put at the latest (the runtime forces one
// every two minutes in an idle process).
//
// Every buffer grows by doubling, so capacities are powers of two, and
// class k holds spares of capacity 2^k (put files any other capacity under
// the largest power of two it covers). A growth site takes a spare only from
// the class that plain doubling would allocate, so a buffer regrown from
// spares has exactly the capacity a fresh one would have, and StorageBytes
// does not depend on what the pool held. A spare is stored as a pointer to
// its first element, which boxes into the pool's interface without
// allocating.
type spares[T any] struct {
	class [64]sync.Pool
}

// The spares of each buffer element type.
var (
	opSpares     spares[op]     // proc.ops
	anySpares    spares[any]    // proc.opData, proc.inData, queue.data
	int32Spares  spares[int32]  // proc.inbox, queue.dataFree
	recordSpares spares[record] // queue.arena
	entSpares    spares[ent]    // wheel buckets, the overflow heap
)

// pooling reports that a seat has trimmed a buffer since the last
// collection. Only then do growth sites use the pools: a process that runs
// only repeated jobs, which trim nothing, never touches them, and allocates
// exactly what it would without them (a sync.Pool allocates a per-processor
// array on its first use after each collection).
var pooling atomic.Bool

// sweeper is the object whose finalizer turns pooling off at the first
// collection after a trim turned it on. Its 16 bytes keep it out of the tiny
// allocator, which may batch smaller objects so that their finalizers never
// run.
type sweeper [16]byte

func sweep(*sweeper) { pooling.Store(false) }

// get returns an empty buffer of capacity 2^k, the smallest power of two
// that holds n elements: a spare of that class while pooling, or a new one.
func (s *spares[T]) get(n int) []T {
	k := bits.Len(uint(n - 1))
	if pooling.Load() {
		if p, ok := s.class[k].Get().(*T); ok {
			return unsafe.Slice(p, 1<<k)[:0]
		}
	}
	return make([]T, 0, 1<<k)
}

// put hands buf, which a trim dropped, to the pool under the largest class
// its capacity covers, and turns pooling on until the next collection. The
// caller must have cleared every element that holds a pointer.
func (s *spares[T]) put(buf []T) {
	if c := cap(buf); c > 0 {
		s.class[bits.Len(uint(c))-1].Put(unsafe.SliceData(buf))
		if pooling.CompareAndSwap(false, true) {
			runtime.SetFinalizer(new(sweeper), sweep)
		}
	}
}

// push appends v to buf, growing a full buf through the pool.
func (s *spares[T]) push(buf []T, v T) []T {
	if len(buf) == cap(buf) {
		buf = s.grow(buf)
	}
	return append(buf, v)
}

// grow returns buf's elements in a buffer of twice its capacity. While
// pooling, buf goes to the pool, cleared, for a later growth of another
// buffer to take; otherwise to the collector.
func (s *spares[T]) grow(buf []T) []T {
	nb := s.get(max(2*cap(buf), 1))[:len(buf)]
	copy(nb, buf)
	if c := cap(buf); c > 0 && pooling.Load() {
		clear(buf)
		s.class[bits.Len(uint(c))-1].Put(unsafe.SliceData(buf))
	}
	return nb
}

// trims reports whether seat drops a buffer of capacity c whose last run
// used at most peak entries (see trimSlack).
func trims(c, peak int) bool { return c > trimFloor && c > trimSlack*peak }

// trimmed returns buf emptied, or nil when trims drops it, handing the
// dropped buffer to the pool. The caller must have cleared every element
// that holds a pointer.
func trimmed[T any](s *spares[T], buf []T, peak int) []T {
	if trims(cap(buf), peak) {
		s.put(buf)
		return nil
	}
	return buf[:0]
}

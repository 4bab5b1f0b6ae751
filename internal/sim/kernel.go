package sim

import (
	"fmt"
	"math/rand"
	"sync"
)

// Runner is an event body that can be scheduled without allocating a
// closure: the kernel stores the interface value (a pointer, so no boxing
// allocation) and invokes RunEvent at the scheduled time. Processes and
// pooled event records implement it; ad-hoc events use the func() forms.
type Runner interface {
	RunEvent()
}

// event is a scheduled callback. Events with equal time run in the order
// they were scheduled (seq breaks ties), which keeps the simulation
// deterministic. Exactly one of fn and r is set.
type event struct {
	t   Time
	seq uint64
	fn  func()
	r   Runner
}

// eventLess orders events by (time, sequence).
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// kernelStorage is the reusable backing store for a kernel's event queues.
// Simulation sweeps build thousands of short-lived kernels; pooling the
// slices means a fresh kernel starts with already-grown arrays instead of
// re-paying the append growth path every run.
type kernelStorage struct {
	heap []event
	fifo []event
}

var storagePool = sync.Pool{
	New: func() any {
		return &kernelStorage{
			heap: make([]event, 0, 64),
			fifo: make([]event, 0, 64),
		}
	},
}

// Kernel is a discrete-event simulation engine. The zero value is not ready
// for use; construct with NewKernel.
//
// The event queue is split into two structures:
//
//   - a hand-rolled 4-ary min-heap (keyed on (time, seq)) for events
//     scheduled in the future, with no interface conversions anywhere on
//     the push/pop path, and
//   - a FIFO fast path for events scheduled at the current instant
//     (wake-ups, yields, signal notifications), which are extremely common
//     in process-based simulations and need no heap discipline at all.
//
// The FIFO invariant: every queued FIFO event has t == now, and the clock
// only advances once the FIFO is empty. Because seq increases globally,
// merging the two queues at dispatch needs only a seq comparison when the
// heap's top shares the current timestamp.
type Kernel struct {
	now      Time
	events   []event // 4-ary min-heap of future events
	fifo     []event // events at t == now, in scheduling order
	fifoHead int
	storage  *kernelStorage
	seq      uint64
	rng      *rand.Rand
	procs    []*Process // all spawned processes, for deadlock reporting
	stopped  bool
	aborting bool // a deadlock is unwinding the blocked processes (abort)
	deadline Time // active RunUntil deadline, bounding in-place clock advances
}

// NewKernel returns a kernel at time zero whose random source is seeded with
// seed. All randomness used by simulations built on the kernel should come
// from Rand so that runs are reproducible.
func NewKernel(seed int64) *Kernel {
	st := storagePool.Get().(*kernelStorage)
	return &Kernel{
		rng:      rand.New(rand.NewSource(seed)),
		events:   st.heap[:0],
		fifo:     st.fifo[:0],
		storage:  st,
		deadline: Infinity,
	}
}

// release returns the queue storage to the pool once the queues are empty.
// The kernel remains usable afterwards (the slices simply start over), but
// the common case — one run per kernel — hands its grown arrays to the next
// simulation.
func (k *Kernel) release() {
	st := k.storage
	if st == nil {
		return
	}
	k.storage = nil
	st.heap = k.events[:0]
	st.fifo = k.fifo[:0]
	k.events = nil
	k.fifo = nil
	k.fifoHead = 0
	storagePool.Put(st)
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// pushHeap inserts e into the 4-ary heap (sift-up with a hole, no swaps).
func (k *Kernel) pushHeap(e event) {
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.events = h
}

// popHeap removes and returns the minimum event.
func (k *Kernel) popHeap() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the closure reference
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
				if eventLess(&h[j], &h[best]) {
					best = j
				}
			}
			if !eventLess(&h[best], &last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	k.events = h
	return top
}

// schedule queues an event at absolute time t. Events at the current
// instant take the FIFO fast path; future events go through the heap.
func (k *Kernel) schedule(t Time, fn func(), r Runner) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before current time %d", t, k.now))
	}
	k.seq++
	e := event{t: t, seq: k.seq, fn: fn, r: r}
	if t == k.now {
		k.fifo = append(k.fifo, e)
		return
	}
	k.pushHeap(e)
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error that panics, since it would corrupt causality.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, fn, nil) }

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.schedule(k.now+d, fn, nil)
}

// AtRun schedules r.RunEvent at absolute time t without allocating: the
// closure-free counterpart of At.
func (k *Kernel) AtRun(t Time, r Runner) { k.schedule(t, nil, r) }

// AfterRun schedules r.RunEvent d cycles from now without allocating.
func (k *Kernel) AfterRun(d Time, r Runner) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.schedule(k.now+d, nil, r)
}

// pendingEvents reports the number of queued events.
func (k *Kernel) pendingEvents() int {
	return len(k.events) + len(k.fifo) - k.fifoHead
}

// Quiescent reports whether no further events are queued. Every live,
// non-blocked process has a wake event scheduled, so a recurring event
// (e.g. a metrics sampler) that observes Quiescent from inside its own
// RunEvent knows it is the only thing keeping the simulation alive:
// rescheduling itself would spin forever and mask deadlock detection.
func (k *Kernel) Quiescent() bool { return k.pendingEvents() == 0 }

// Stop makes Run return after the current event completes. Pending events
// remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the queue is empty or Stop is
// called. It returns an error if, at exhaustion, some spawned process is
// still blocked: that is a deadlock in the simulated program.
func (k *Kernel) Run() error {
	return k.RunUntil(Infinity)
}

// RunUntil executes events with time <= deadline. The clock is left at the
// last executed event (or deadline if nothing ran beyond it).
func (k *Kernel) RunUntil(deadline Time) error {
	k.stopped = false
	k.deadline = deadline
	for !k.stopped {
		var e event
		if k.fifoHead < len(k.fifo) {
			f := &k.fifo[k.fifoHead]
			// Heap events that share the current timestamp were scheduled
			// earlier only if their seq is smaller.
			if len(k.events) == 0 || k.events[0].t > k.now || k.events[0].seq > f.seq {
				e = *f
				*f = event{}
				k.fifoHead++
				if k.fifoHead == len(k.fifo) {
					k.fifo = k.fifo[:0]
					k.fifoHead = 0
				}
			} else {
				e = k.popHeap()
			}
		} else if len(k.events) > 0 {
			if k.events[0].t > deadline {
				k.now = deadline
				return nil
			}
			e = k.popHeap()
			k.now = e.t
		} else {
			break
		}
		if e.r != nil {
			e.r.RunEvent()
		} else {
			e.fn()
		}
	}
	if k.stopped {
		return nil
	}
	var blocked []string
	for _, p := range k.procs {
		if !p.done && p.blocked {
			blocked = append(blocked, p.name)
		}
	}
	k.release()
	if len(blocked) > 0 {
		k.abort()
		return &DeadlockError{Time: k.now, Blocked: blocked}
	}
	return nil
}

// abort unwinds every blocked process after a deadlock. Nothing can wake
// them any more, and each one's goroutine would otherwise stay parked on
// its handoff channel for the life of the program. Each is resumed in turn
// with the aborting flag set, so its park panics with processAbort, the
// Spawn wrapper recovers that, and the goroutine exits through the usual
// final handoff.
func (k *Kernel) abort() {
	k.aborting = true
	for _, p := range k.procs {
		if !p.done && p.blocked {
			p.wake()
		}
	}
}

// DeadlockError reports that the event queue drained while simulated
// processes were still waiting to be woken.
type DeadlockError struct {
	Time Time
	// Blocked names every blocked process; Error prints only the first
	// maxDeadlockNames of them.
	Blocked []string
}

// maxDeadlockNames bounds the process names a DeadlockError message lists,
// so a deadlock of a million processors does not produce a message of
// megabytes.
const maxDeadlockNames = 16

func (e *DeadlockError) Error() string {
	if n := len(e.Blocked); n > maxDeadlockNames {
		return fmt.Sprintf("sim: deadlock at time %d: %d process(es) blocked forever: %v and %d more",
			e.Time, n, e.Blocked[:maxDeadlockNames], n-maxDeadlockNames)
	}
	return fmt.Sprintf("sim: deadlock at time %d: %d process(es) blocked forever: %v", e.Time, len(e.Blocked), e.Blocked)
}

package logp

import (
	"fmt"
	"math"

	"github.com/logp-model/logp/internal/core"
)

// The engine seam. A Program is an algorithm written in reactive
// (continuation) style: instead of a blocking body per processor, it exposes
// a Start handler and a Message handler, and inside a handler it *records*
// machine operations (Send, Compute, Wait, WaitUntil, Done) against the Node
// it was handed. Handlers never block; the operations are charged by the
// engine after the handler returns, in recording order, and the processor
// then waits for its next message (or finishes, after Done).
//
// The point of the restriction is that a Program carries no goroutine stack:
// it can run on the goroutine machine (each processor replays its recorded
// operations through the blocking Proc primitives) or on a flat,
// goroutine-free event core (internal/flat) that steps per-processor structs
// directly — and, because both engines charge the operations through the
// same cost rules in the same order, the two runs are cycle-identical.
// There is no engine registry: a caller picks an engine by calling it,
// RunProgram here or flat.New / flat.Run in internal/flat.

// Node is the per-processor handle a Program's handlers receive. Operation
// methods record work to be charged after the handler returns; accessors
// reflect the state at handler entry. A Node is only valid inside the
// handler invocation it was passed to.
type Node interface {
	// ID is the processor number in [0, P).
	ID() int
	// P is the machine's processor count.
	P() int
	// Params returns the machine's LogP parameters.
	Params() core.Params
	// Now is the processor's local time at handler entry.
	Now() int64
	// Send records a one-word message send to processor to.
	Send(to, tag int, data any)
	// Compute records cycles of local work.
	Compute(cycles int64)
	// Wait records an idle wait of the given number of cycles.
	Wait(cycles int64)
	// WaitUntil records an idle wait until an absolute time.
	WaitUntil(t int64)
	// Done marks the processor finished: after the recorded operations are
	// charged, the processor halts instead of waiting for the next message.
	Done()
}

// Program is a reactive algorithm: Start runs once on every processor at
// time zero, Message runs on the destination processor for every received
// message. Handlers must confine mutable state to the processor they run on
// (e.g. per-processor slice slots): a sharded engine may run handlers of
// different processors concurrently.
type Program interface {
	Start(n Node)
	Message(n Node, m Message)
}

// progOp is one recorded Node operation.
type progOp struct {
	kind uint8
	a, b int64
	data any
}

const (
	opSend uint8 = iota
	opCompute
	opWait
	opWaitUntil
)

// gNode adapts a goroutine-machine Proc to the Node interface: handlers
// record operations, the driver replays them through the blocking Proc
// primitives. The ops slice is reused across handler invocations, so the
// steady-state flow does not allocate.
type gNode struct {
	p    *Proc
	ops  []progOp
	done bool
}

func (n *gNode) ID() int             { return n.p.ID() }
func (n *gNode) P() int              { return n.p.P() }
func (n *gNode) Params() core.Params { return n.p.Params() }
func (n *gNode) Now() int64          { return n.p.Now() }
func (n *gNode) Done()               { n.done = true }

func (n *gNode) Send(to, tag int, data any) {
	n.ops = append(n.ops, progOp{kind: opSend, a: int64(to), b: int64(tag), data: data})
}
func (n *gNode) Compute(cycles int64) { n.ops = append(n.ops, progOp{kind: opCompute, a: cycles}) }
func (n *gNode) Wait(cycles int64)    { n.ops = append(n.ops, progOp{kind: opWait, a: cycles}) }
func (n *gNode) WaitUntil(t int64)    { n.ops = append(n.ops, progOp{kind: opWaitUntil, a: t}) }

// replay charges the recorded operations in order.
func (n *gNode) replay() {
	for i := 0; i < len(n.ops); i++ {
		op := &n.ops[i]
		switch op.kind {
		case opSend:
			n.p.Send(int(op.a), int(op.b), op.data)
		case opCompute:
			n.p.Compute(op.a)
		case opWait:
			n.p.Wait(op.a)
		case opWaitUntil:
			n.p.WaitUntil(op.a)
		}
		op.data = nil
	}
	n.ops = n.ops[:0]
}

// RunProgram executes a Program on the goroutine machine: the reference
// driver the flat engine is pinned against. Each processor body runs Start,
// replays the recorded operations, then loops receiving a message, running
// the Message handler and replaying, until the handler calls Done.
func RunProgram(cfg Config, prog Program) (Result, error) {
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(func(p *Proc) {
		n := &gNode{p: p}
		prog.Start(n)
		n.replay()
		for !n.done {
			msg := p.Recv()
			prog.Message(n, msg)
			n.replay()
		}
	})
}

// AsDup returns a copy of m marked as a network-made duplicate. It exists
// for engines implemented outside this package (internal/flat), which must
// reproduce the machine's duplicate-delivery bookkeeping; algorithm code has
// no use for it.
func (m Message) AsDup() Message { m.dup = true; return m }

// Stretched returns base + x in whole cycles, truncating x as int64(x)
// does: the length of a compute interval after a stretch added x >= 0 to
// base (base 0 when the stretch scales the whole interval — a topology
// rate, processor skew or slowdown factor — and the unjittered length for
// compute jitter). ok is false when that length does not fit in an int64 or
// a compute of it begun at cycle now would end past the int64 cycle count.
// Both engines stretch through it and fail the run with a
// StretchOverflowError when it refuses, so they fail on the same compute.
func Stretched(base int64, x float64, now int64) (cycles int64, ok bool) {
	if !(x < 1<<63) {
		return 0, false
	}
	c := int64(x)
	if c > math.MaxInt64-now-base {
		return 0, false
	}
	return base + c, true
}

// StretchOverflowError is the error of a run in which a stretched compute
// interval would end past the int64 cycle count (see Stretched). The
// processor halts there as a fail-stopped one does, the rest of the run
// drains, and Run returns this error in place of a Result.
type StretchOverflowError struct {
	Proc int   // the processor whose compute overflowed
	At   int64 // the cycle at which that compute began
}

func (e *StretchOverflowError) Error() string {
	return fmt.Sprintf("logp: proc %d: compute at cycle %d stretches past the int64 cycle count", e.Proc, e.At)
}

// ClockOverflowError is the error of a run in which an operation would end
// past the int64 cycle count: a compute or wait of the length the program
// asked for, unstretched; a send whose overhead, or whose flight (the later
// copy's, for a duplicated message), would; a reception whose overhead
// would; or a send or reception whose gap wait would (see GapBound). It
// fails the run as a StretchOverflowError does.
type ClockOverflowError struct {
	Proc   int    // the processor whose operation overflowed
	Op     string // "compute", "wait", "send" or "receive"
	Cycles int64  // the length that overflowed: the operation's, a send's flight, or a gap wait
	At     int64  // the cycle at which that length began: a flight's at injection
}

func (e *ClockOverflowError) Error() string {
	return fmt.Sprintf("logp: proc %d: %s of %d cycles at cycle %d ends past the int64 cycle count",
		e.Proc, e.Op, e.Cycles, e.At)
}

// GapBound returns the later of the gap bounds a+x and b+y that a send or
// reception sets for the processor's next one. Each is a cycle plus a
// length whose exact sum lies in [0, 2^64), so one that passes the int64
// cycle count wraps negative and, read unsigned, is still the later. A
// negative bound is therefore past the clock: the next operation it gates
// fails with GapOverflow, and a processor that performs none finishes
// normally. Both engines keep their gap bounds through it.
func GapBound(a, x, b, y int64) int64 {
	return int64(max(uint64(a+x), uint64(b+y)))
}

// GapOverflow is the error of proc's send or reception (op), reached at
// cycle now, whose gap bound is past the int64 cycle count: its wait for
// that bound is the length that overflows. The wait fits an int64, because
// the operation that set the bound began by now.
func GapOverflow(proc int, op string, bound, now int64) *ClockOverflowError {
	return &ClockOverflowError{Proc: proc, Op: op, Cycles: int64(uint64(bound) - uint64(now)), At: now}
}

// FaultRuntime exposes the per-run fault machinery to engines implemented
// outside this package. It wraps the same seeded state the goroutine machine
// uses, so an external engine making the identical sequence of calls draws
// the identical fates.
type FaultRuntime struct{ fs *faultState }

// NewFaultRuntime builds the runtime for one run. The plan must already have
// been validated against the machine's P.
func NewFaultRuntime(plan *FaultPlan, P int) *FaultRuntime {
	return &FaultRuntime{fs: newFaultState(plan, P)}
}

// Plan returns the plan the runtime was built from.
func (f *FaultRuntime) Plan() *FaultPlan { return f.fs.plan }

// MessageFate draws the fate of one message on the from→to link; see
// faultState.messageFate for the draw-order contract.
func (f *FaultRuntime) MessageFate(from, to int, lat int64) (newLat int64, drop, dup bool, dupLat int64) {
	return f.fs.messageFate(from, to, lat)
}

// SlowFactor returns the compute stretch for proc at local time t.
func (f *FaultRuntime) SlowFactor(proc int, t int64) float64 { return f.fs.slowFactor(proc, t) }

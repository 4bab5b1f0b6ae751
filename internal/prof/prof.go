// Package prof is the causal profiler for simulated LogP machine runs: it
// records a run as a dependence DAG of operations (compute segments,
// send/receive overhead slots, message flights, gap and capacity waits) and
// answers the questions the paper answers by hand for its broadcast,
// summation and FFT studies:
//
//   - where did the makespan go? CriticalPath extracts the longest weighted
//     chain of spans ending at the last event, and Attribution charges each
//     cycle of it to compute, overhead o, gap g, latency L, or a capacity
//     stall — the model-parameter accounting of Section 3;
//   - what would a different machine do? Replay re-costs the recorded DAG
//     under altered (L, o, g, capacity, coprocessor) without re-running the
//     program, so a parameter sweep costs one simulation plus cheap replays;
//   - what does the run look like? WriteChromeTrace exports the spans and
//     message arrows as Chrome trace_event JSON for chrome://tracing.
//
// Recording is wired into internal/logp behind a nil-checked hook
// (logp.Config.Profiler), so the simulator's zero-allocation hot paths are
// untouched when profiling is off.
package prof

import (
	"github.com/logp-model/logp/internal/core"
)

// OpKind classifies one recorded machine operation.
type OpKind uint8

const (
	// OpCompute is a Compute call; Arg holds the charged cycles (after
	// processor skew and compute jitter, so replay needs no random state).
	OpCompute OpKind = iota
	// OpSend is a small-message Send; Arg holds the actual network latency
	// drawn for the message.
	OpSend
	// OpSendBulk is a SendBulk train of Words words; Arg is the latency.
	OpSendBulk
	// OpRecv is a Recv or RecvTag; AnyTag distinguishes them.
	OpRecv
	// OpBarrier is a hardware Barrier arrival.
	OpBarrier
	// OpWait is a Wait; Arg holds the idled cycles.
	OpWait
	// OpWaitUntil is a WaitUntil; Arg holds the absolute target time.
	OpWaitUntil
	// OpDup is a network-made duplicate (fault injection) of the send
	// recorded immediately before it; Arg holds the duplicate's latency. It
	// consumes no processor time and no capacity slot on replay.
	OpDup
)

// Op is one recorded operation of one processor. Ops are recorded in
// per-processor program order; together with the machine configuration they
// determine the run completely (the simulator is deterministic), which is
// what makes replay under altered parameters possible.
type Op struct {
	Kind    OpKind
	AnyTag  bool  // OpRecv: plain Recv (matches any tag) rather than RecvTag
	Dropped bool  // OpSend/OpSendBulk: the fault layer lost this message
	To      int32 // OpSend/OpSendBulk: destination processor
	Tag     int32 // send tag, or RecvTag filter
	Words   int32 // OpSendBulk: words in the train (1 for OpSend)
	Arg     int64 // cycles, latency, or absolute time, per Kind
}

// RunInfo is the machine configuration the recording was made under: the
// subset of logp.Config that affects costs. Replay defaults to these values
// so a what-if sweep only overrides what it varies.
type RunInfo struct {
	Params          core.Params
	Coprocessor     bool
	DisableCapacity bool
	BarrierCost     int64
}

// Recorder accumulates the operation log of one machine run. Pass it to the
// machine via logp.Config.Profiler; after the run it can be analyzed and
// replayed any number of times. A Recorder is reset by Begin, so it can be
// reused across sequential runs (the analysis always reflects the latest).
// It is not safe for concurrent use: like the machine itself, it assumes the
// single-threaded simulation kernel.
type Recorder struct {
	info RunInfo
	ops  [][]Op
	sent int // total messages recorded
	// fault bookkeeping: pendingRecv tracks a Recv/RecvTag that has been
	// recorded but not yet completed (so FailStop can pop a receive the dead
	// processor never finished); failed marks fail-stopped processors, which
	// replay uses to discard their late arrivals as the machine does.
	pendingRecv []bool
	failed      []bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin resets the recorder for a run on the given machine configuration.
// The machine calls it when it is built; tests may call it directly to
// construct synthetic recordings.
func (r *Recorder) Begin(info RunInfo) {
	r.info = info
	r.sent = 0
	if cap(r.ops) >= info.Params.P {
		r.ops = r.ops[:info.Params.P]
		for i := range r.ops {
			r.ops[i] = r.ops[i][:0]
		}
	} else {
		r.ops = make([][]Op, info.Params.P)
	}
	r.pendingRecv = make([]bool, info.Params.P)
	r.failed = make([]bool, info.Params.P)
}

// Info returns the recorded machine configuration.
func (r *Recorder) Info() RunInfo { return r.info }

// Ops returns processor proc's recorded operations in program order. The
// slice aliases the recorder's storage; treat it as read-only.
func (r *Recorder) Ops(proc int) []Op { return r.ops[proc] }

// Messages returns the number of recorded message transmissions.
func (r *Recorder) Messages() int { return r.sent }

// Compute records a Compute of the given charged cycles.
func (r *Recorder) Compute(proc int, cycles int64) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpCompute, Arg: cycles})
}

// Send records a small-message send with the actual latency drawn.
func (r *Recorder) Send(proc, to, tag int, lat int64) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpSend, To: int32(to), Tag: int32(tag), Words: 1, Arg: lat})
	r.sent++
}

// SendBulk records a bulk send of words words with the actual latency drawn.
func (r *Recorder) SendBulk(proc, to, tag, words int, lat int64) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpSendBulk, To: int32(to), Tag: int32(tag), Words: int32(words), Arg: lat})
	r.sent++
}

// Recv records a reception that matches any tag.
func (r *Recorder) Recv(proc int) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpRecv, AnyTag: true})
	r.pendingRecv[proc] = true
}

// RecvTag records a reception filtered to one tag.
func (r *Recorder) RecvTag(proc, tag int) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpRecv, Tag: int32(tag)})
	r.pendingRecv[proc] = true
}

// RecvDone records that the last recorded reception completed (the machine
// calls it once the message is consumed), so a later FailStop knows whether
// the trailing receive is still open.
func (r *Recorder) RecvDone(proc int) { r.pendingRecv[proc] = false }

// DropLast marks the just-recorded send of proc as lost by the fault layer:
// replay puts the message in flight (the sender paid its costs) but discards
// it at arrival instead of delivering it.
func (r *Recorder) DropLast(proc int) {
	ops := r.ops[proc]
	ops[len(ops)-1].Dropped = true
}

// Dup records a network-made duplicate (fault injection) of the send
// recorded immediately before it, with the duplicate's own latency. Replay
// re-delivers the previous message at the duplicate latency, exempt from
// capacity.
func (r *Recorder) Dup(proc, to, tag, words int, lat int64) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpDup, To: int32(to), Tag: int32(tag), Words: int32(words), Arg: lat})
}

// FailStop records that proc fail-stopped at absolute time t. If the
// processor died inside a receive (recorded at entry but never completed),
// that trailing OpRecv is popped, so replay does not wait for a message the
// dead processor never consumed; an OpWaitUntil to the halt time takes its
// place, so replay finishes the victim exactly when the machine did.
func (r *Recorder) FailStop(proc int, t int64) {
	if r.pendingRecv[proc] {
		r.ops[proc] = r.ops[proc][:len(r.ops[proc])-1]
		r.pendingRecv[proc] = false
	}
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpWaitUntil, Arg: t})
	r.failed[proc] = true
}

// Failed reports whether proc fail-stopped during the recorded run.
func (r *Recorder) Failed(proc int) bool { return r.failed[proc] }

// Barrier records an arrival at the hardware barrier.
func (r *Recorder) Barrier(proc int) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpBarrier})
}

// Wait records an idle wait of the given cycles.
func (r *Recorder) Wait(proc int, cycles int64) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpWait, Arg: cycles})
}

// WaitUntil records an idle wait until the given absolute time. Absolute
// times do not rescale under replay with altered parameters; see the replay
// soundness notes in DESIGN.md.
func (r *Recorder) WaitUntil(proc int, t int64) {
	r.ops[proc] = append(r.ops[proc], Op{Kind: OpWaitUntil, Arg: t})
}

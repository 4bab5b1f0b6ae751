// Package flat is the goroutine-free execution engine for the LogP machine:
// per-processor state lives in plain structs in one flat array, and a typed
// event kernel steps those structs directly — no goroutine per processor, no
// channel handoff, no park/unpark. Programs are written against the reactive
// logp.Program interface and run here or on the goroutine machine
// interchangeably.
//
// # Cycle identity
//
// The engine is pinned cycle-identical to the goroutine machine
// (logp.RunProgram): both charge the same cost rules at the same points, make
// scheduling calls in the same order (so same-instant ties break
// identically), elide clock advances under the same conditions, and draw from
// identically-seeded random streams at the same operations. Cross-engine
// equivalence tests assert identical Results, traces, metrics and profiles.
//
// # Sharding
//
// With more than one shard, processors are partitioned into contiguous
// blocks, each with its own event queue, and shards execute windows of
// events concurrently. The LogP model itself provides the conservative
// lookahead: a message initiated at time t occupies the sender for o cycles
// and the network for L more, so no cross-shard event lands sooner than
// t + o + L of its own link. Each window therefore spans [M, M + min(o+L)),
// the minimum taken over every link in the machine (just o+L on a flat
// machine), where M is the earliest pending event machine-wide; within it
// every shard's execution
// depends only on its own pre-window state, and cross-shard deliveries are
// merged at the window barrier in fixed shard order. The lookahead is
// anchored at send initiation, not injection: a send that parks for its
// o-cycle overhead buffers its cross-shard delivery at park time
// (bufferParkedSend), because by the time the wake fires — possibly in a
// later window — only L of the lookahead remains. The result is
// bit-identical for any GOMAXPROCS setting.
//
// The capacity constraint — the paper's ceil(L/g) in-flight bound — couples
// every sender to every receiver through the machine-wide semaphores, so a
// machine with it on always runs the sequential kernel, whatever shard count
// it is asked for (see ShardCount). Sharded runs also exclude the
// single-shard-only observers (trace, profiler, latency and compute jitter)
// and allow fault plans with fail-stops only; see New.
package flat

import (
	"fmt"
	"math"
	"math/rand"
	"time"
	"unsafe"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/sim"
	"github.com/logp-model/logp/internal/topo"
	"github.com/logp-model/logp/internal/trace"
)

// Continuation codes: where a parked processor resumes when its wake event
// fires. Each corresponds to one park point of the goroutine Proc.
const (
	rStart         uint8 = iota // initial wake: run the Start handler
	rComputeDone                // Compute's busy stretch elapsed
	rWaitDone                   // Wait's idle stretch elapsed
	rWaitUntilDone              // WaitUntil's idle stretch elapsed
	rSendPaid                   // Send's gap wait + o overhead elapsed
	rCapOut                     // woken from the out-capacity queue
	rCapIn                      // woken from the in-capacity queue
	rRecvWake                   // woken from the inbox arrival wait
	rRecvPaid                   // Recv's gap wait + o overhead elapsed
)

// Recorded Node operation kinds, stored in op.k. A send stores there its
// payload's index in proc.opData plus one, or 0 for a nil payload, so every
// other kind is negative.
const (
	oCompute int32 = -1 - iota
	oWait
	oWaitUntil
	oBadSend // a send to a destination outside [0, P), which panics when executed
)

// op is one recorded Node operation (the flat twin of the goroutine
// driver's record-then-replay buffer entry): 16 pointer-free bytes, against
// 40 for a record that boxes the payload. A send's non-nil payload waits in
// the processor's opData table.
type op struct {
	a  int64 // send: the tag; compute, wait: cycles; wait-until: the time; oBadSend: the destination
	to int32 // send: the destination
	k  int32 // the kind; a send's payload reference
}

// proc is one processor/memory module: the flat-array counterpart of
// logp.Proc, with the goroutine stack replaced by the resume code and the
// per-operation context fields below.
type proc struct {
	id        int32
	shard     int32
	resume    uint8
	failed    bool // fail-stop triggered; halts at the next operation boundary
	done      bool // Done() recorded: finish once the operation buffer drains
	retired   bool // processor has finished (or fail-stopped) and left the run
	waiting   bool // parked on the inbox arrival signal
	blocked   bool // parked with no scheduled wake (inbox or capacity queue)
	sentEarly bool // sharded: the parked send's delivery is already in an outbox

	m *Machine

	nextSend int64
	nextRecv int64

	stats logp.ProcStats

	// inbox is a head-indexed queue, like logp.Proc's, of the arena slots
	// (in the processor's shard) of the messages delivered and not yet
	// received, in arrival order: deliveries append, receptions advance
	// inboxHead, storage is reused once drained. inData is the same kind of
	// queue for the payloads of the messages that carry one.
	inbox      []int32
	inboxHead  int
	inData     []any
	inDataHead int

	// ops is the recorded-operation buffer, reused across handlers; opData
	// holds the payloads of its sends that carry one.
	ops    []op
	opHead int
	opData []any

	// Continuation context for the operation in flight.
	sendStart  int64 // Send: time the op began (idle-trace bound)
	initiation int64 // Send: gap-respecting initiation time
	stallStart int64 // Send: when the capacity acquires began
	waitStart  int64 // Compute/Wait/inbox wait: segment start
	pend       int64 // Compute: stretched cycles being charged
	recvArrive int64 // Recv: message arrival / reception begin
	recvFrom   int64 // Recv: gap-respecting reception start
	recvPay    int64 // Recv: overhead cycles being charged
	cur        int32 // Recv: the arena slot of the message being received

	// The run's high-water lengths of the four buffers above, which seat
	// compares with their capacities to drop storage an earlier, larger run
	// grew.
	inboxPeak, inDataPeak, opsPeak, opDataPeak int
}

func (p *proc) pending() int { return len(p.inbox) - p.inboxHead }

// popInbox removes the earliest arrival and returns its arena slot.
func (p *proc) popInbox() int32 {
	i := p.inbox[p.inboxHead]
	p.inboxHead++
	if p.inboxHead == len(p.inbox) {
		p.inbox = p.inbox[:0]
		p.inboxHead = 0
	}
	return i
}

// popData removes the earliest queued payload.
func (p *proc) popData() any {
	d := p.inData[p.inDataHead]
	p.inData[p.inDataHead] = nil
	p.inDataHead++
	if p.inDataHead == len(p.inData) {
		p.inData = p.inData[:0]
		p.inDataHead = 0
	}
	return d
}

// inboxShrinkCap bounds the backing array a compaction keeps: above it, a
// backlog that fits in a quarter of the capacity moves to a right-sized
// array instead of compacting in place, so a processor's footprint follows
// its steady-state backlog rather than its historical burst peak.
const inboxShrinkCap = 4096

// pushInbox appends an arrival's arena slot, compacting consumed entries
// once they dominate the backlog so a streaming receiver reuses storage
// instead of growing the slice for the whole run. Invisible to programs:
// only the live tail moves. Pathologically over-grown backing arrays (a
// one-off burst followed by a long streaming phase) are released at
// compaction (inboxShrinkCap).
func (p *proc) pushInbox(i int32) {
	if p.inboxHead > 16 && p.inboxHead*2 >= len(p.inbox) {
		p.inbox = compacted(&int32Spares, p.inbox, p.inboxHead)
		p.inboxHead = 0
	}
	p.inbox = int32Spares.push(p.inbox, i)
	p.inboxPeak = max(p.inboxPeak, len(p.inbox))
}

// pushData queues the payload of an arrival, compacting like pushInbox.
func (p *proc) pushData(d any) {
	if p.inDataHead > 16 && p.inDataHead*2 >= len(p.inData) {
		p.inData = compacted(&anySpares, p.inData, p.inDataHead)
		p.inDataHead = 0
	}
	p.inData = anySpares.push(p.inData, d)
	p.inDataPeak = max(p.inDataPeak, len(p.inData))
}

// compacted moves the live tail buf[head:] of a head-indexed queue to the
// front and returns it, clearing the vacated slots so no consumed payload
// stays reachable. Above inboxShrinkCap a backlog that fits in a quarter of
// the capacity moves to a right-sized array instead, and the old one goes
// to the spare pool, cleared, as a trimmed buffer does.
func compacted[T any](s *spares[T], buf []T, head int) []T {
	live := len(buf) - head
	if c := cap(buf); c > inboxShrinkCap && live*4 < c {
		nb := s.get(max(2*live, 64))[:live]
		copy(nb, buf[head:])
		clear(buf)
		s.put(buf)
		return nb
	}
	n := copy(buf, buf[head:])
	clear(buf[n:])
	return buf[:n]
}

func (p *proc) resetOps() {
	p.opsPeak = max(p.opsPeak, len(p.ops))
	p.ops = p.ops[:0]
	p.opHead = 0
	if len(p.opData) > 0 {
		p.opDataPeak = max(p.opDataPeak, len(p.opData))
		clear(p.opData)
		p.opData = p.opData[:0]
	}
}

// takeData returns the payload of the send o and drops the op's reference
// to it, so the op table does not pin it once the message carries it.
func (p *proc) takeData(o *op) any {
	if o.k == 0 {
		return nil
	}
	d := p.opData[o.k-1]
	p.opData[o.k-1] = nil
	return d
}

// trimSlack and trimFloor decide which run buffers seat keeps: a
// processor's inbox, op list and payload tables, and a shard's wheel
// buckets, overflow heap, message arena and payload table. One holding more
// than trimFloor entries and over trimSlack times what the last run used was
// grown by an earlier, larger run, so it goes to the spare pool and is
// regrown on demand. Repeating a job keeps every buffer (growth at most
// doubles a buffer past its length), while a pooled machine that once ran a
// large program does not hold that program's storage through every later
// job.
const (
	trimSlack = 4
	trimFloor = 64
)

// The logp.Node interface: handlers record operations against the proc.

// ID is the processor number in [0, P).
func (p *proc) ID() int { return int(p.id) }

// P is the machine's processor count.
func (p *proc) P() int { return p.m.cfg.P }

// Params returns the machine's LogP parameters.
func (p *proc) Params() core.Params { return p.m.cfg.Params }

// Now is the processor's local time at handler entry.
func (p *proc) Now() int64 { return p.m.sh[p.shard].now }

// Send records a one-word message send.
func (p *proc) Send(to, tag int, data any) {
	if to < 0 || to >= p.m.cfg.P {
		p.ops = opSpares.push(p.ops, op{a: int64(to), k: oBadSend})
		return
	}
	o := op{a: int64(tag), to: int32(to)}
	if data != nil {
		p.opData = anySpares.push(p.opData, data)
		o.k = int32(len(p.opData))
	}
	p.ops = opSpares.push(p.ops, o)
}

// Compute records cycles of local work.
func (p *proc) Compute(cycles int64) { p.ops = opSpares.push(p.ops, op{a: cycles, k: oCompute}) }

// Wait records an idle wait.
func (p *proc) Wait(cycles int64) { p.ops = opSpares.push(p.ops, op{a: cycles, k: oWait}) }

// WaitUntil records an idle wait until an absolute time.
func (p *proc) WaitUntil(t int64) { p.ops = opSpares.push(p.ops, op{a: t, k: oWaitUntil}) }

// Done marks the processor finished once its recorded operations complete.
func (p *proc) Done() { p.done = true }

// semaphore mirrors sim.Semaphore with proc IDs in place of process
// pointers: FIFO-queued acquirers, woken one per release, re-checking (and
// re-queueing at the back) on wake exactly as the condition loop in
// sim.Semaphore.Acquire does.
type semaphore struct {
	capacity int
	used     int
	waiters  []int32
	head     int
}

// shard is one partition of the machine: a block of processors, their event
// queue, and (in sharded mode) the per-destination outboxes and shard-local
// metrics scratch.
type shard struct {
	queue
	idx     int32
	lo, hi  int // procs [lo, hi)
	live    int
	out     [][]post           // cross-shard deliveries, one buffer per destination shard
	flight  *metrics.Histogram // shard-local flight-cycle observations, merged at the end
	dropped int                // deliveries lost to fail-stopped destinations
	err     error              // the shard's first clock overflow (logp.StretchOverflowError or ClockOverflowError)
}

// Machine is a flat LogP machine ready to run one Program; Reset seats
// another config and program on the same storage.
type Machine struct {
	cfg     logp.Config
	topol   topo.Model // nil unless cfg.Topology: per-link cost model
	prog    logp.Program
	shards  int
	horizon int64 // conservative cross-shard lookahead: min(o+L) over all links
	perSh   int   // processors per shard (last shard may be short)

	procs []proc
	sh    []shard

	rng *rand.Rand // mirrors the sim kernel's seeded source

	// Single-shard-only machinery, mirroring the goroutine machine.
	outCap, inCap []semaphore
	inTransitFrom []int32 // nil in sharded runs (settling crosses shards)
	inTransitTo   []int32
	maxOut, maxIn int
	tr            *trace.Log
	rec           *prof.Recorder
	faults        *logp.FaultRuntime
	duplicated    int

	met        *metrics.Registry
	skew       []float64
	lastBusy   []int64
	lastSample int64
	every      int64
	nextSample int64 // sharded runs: next coordinator sample time

	fr *flightRecorder // nil unless EnableFlightRecorder was called

	ran bool
}

// New builds a flat machine for prog. Config semantics are identical to
// logp.New. The sequential engine, which supports every Config and is
// cycle-identical to the goroutine machine, runs when ShardCount(cfg,
// shards) is 1: for shards < 2, and for any shard count with the capacity
// constraint on. Otherwise New builds the windowed parallel engine, which
// excludes trace and profiler collection, latency and compute jitter, and
// fault plans beyond pure fail-stops, and requires o+L >= 1 on every link
// (the lookahead window); ProcSkew is allowed (the skews are drawn up
// front). Sharded runs report Result.MaxInTransitFrom/To and the sample
// in-flight series as zero: settling a message's in-transit accounting at
// arrival would cross shards.
//
// New validates cfg before allocating anything, lays out P processors over
// ShardCount(cfg, shards) shards, and seats cfg and prog on that storage
// through the same path as Reset.
func New(cfg logp.Config, prog logp.Program, shards int) (*Machine, error) {
	if err := validate(cfg, shards); err != nil {
		return nil, err
	}
	n := ShardCount(cfg, shards)
	m := &Machine{
		shards: n,
		perSh:  (cfg.P + n - 1) / n,
		procs:  make([]proc, cfg.P),
		sh:     make([]shard, n),
	}
	for s := range m.sh {
		sh := &m.sh[s]
		sh.idx = int32(s)
		sh.lo = s * m.perSh
		sh.hi = sh.lo + m.perSh
		if sh.hi > cfg.P {
			sh.hi = cfg.P
		}
	}
	for i := range m.procs {
		p := &m.procs[i]
		p.id = int32(i)
		p.shard = int32(i / m.perSh)
		p.m = m
	}
	m.seat(cfg, prog)
	return m, nil
}

// ShardCount reports how many event-kernel shards New builds for cfg when
// asked for shards. With the capacity constraint on it is 1: the ceil(L/g)
// semaphores couple every sender to every receiver, and a windowed kernel
// that replayed them at each barrier never beat the sequential one (DESIGN
// §9). Otherwise it is the request clamped to [1, cfg.P], less the
// trailing shards the contiguous partition leaves empty. Machines with equal
// P and ShardCount share one storage layout, so either can Reset to any
// config the other could run.
func ShardCount(cfg logp.Config, shards int) int {
	p := cfg.P
	if !cfg.DisableCapacity || shards < 1 {
		shards = 1
	}
	if shards > p {
		shards = p
	}
	per := (p + shards - 1) / shards
	return (p + per - 1) / per
}

// Reset re-seats the machine with a new config and program, reusing its
// storage: each processor's inbox and operation buffers, and each shard's
// wheel buckets, overflow heap, message arena, payload table and outboxes.
// Everything else is re-seated from cfg —
// topology, capacity mode, parameters, seed, jitter, faults and observers —
// and every message payload the last run left behind is cleared, so the
// machine pins none of the previous program's data. After Reset, Run
// returns exactly what New(cfg, prog, shards).Run() would for the shard
// count the machine was built with.
//
// The processor count and the shard layout are fixed at construction. Reset
// validates cfg exactly as New does at the machine's shard count, and it
// returns an error if cfg.P differs from the machine's P or if cfg turns the
// capacity constraint on for a machine with more than one shard; on error
// the machine is left as it was. A flight recorder, if enabled, stays
// enabled with its counters zeroed.
func (m *Machine) Reset(cfg logp.Config, prog logp.Program) error {
	if err := validate(cfg, m.shards); err != nil {
		return err
	}
	if cfg.P != len(m.procs) {
		return fmt.Errorf("flat: reset to P=%d on a machine built for P=%d", cfg.P, len(m.procs))
	}
	if ShardCount(cfg, m.shards) != m.shards {
		return fmt.Errorf("flat: reset of a %d-shard machine to a capacity-on config, which runs on one shard", m.shards)
	}
	m.seat(cfg, prog)
	return nil
}

// validate checks cfg for a machine of the given (unclamped) shard count:
// the checks New runs before it allocates, in New's order.
func validate(cfg logp.Config, shards int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return ValidateShards(cfg, shards)
}

// ValidateShards checks the preconditions of the windowed parallel kernel
// for cfg at the given (unclamped) shard count; it accepts every config
// that runs on one shard (see ShardCount). The sharded kernel excludes
// trace and profiler collection, latency and compute jitter, and fault
// plans beyond pure fail-stops, and needs o+L >= 1 on every link.
func ValidateShards(cfg logp.Config, shards int) error {
	if ShardCount(cfg, shards) > 1 {
		if cfg.CollectTrace || cfg.Profiler != nil {
			return fmt.Errorf("flat: sharded execution excludes trace and profiler (single-shard observers)")
		}
		if cfg.Faults != nil && !failStopOnly(cfg.Faults) {
			return fmt.Errorf("flat: sharded execution allows fail-stop faults only (drop/dup/jitter/slowdown draws are ordered by a single queue)")
		}
		if cfg.LatencyJitter != 0 || cfg.ComputeJitter != 0 {
			return fmt.Errorf("flat: sharded execution requires zero latency/compute jitter (random draws are ordered by a single queue)")
		}
		if lookahead(cfg) < 1 {
			return fmt.Errorf("flat: sharded execution requires min(o+L) >= 1 over all links for a conservative lookahead window")
		}
	}
	return nil
}

// lookahead reports the machine-wide minimum the sharded windows rest on:
// min over links of o+L, which without a topology is the global o+L. The
// minimum over link *classes* is what soundness needs — a cross-shard
// message over some link (i, j) takes at least o(i,j)+L(i,j) cycles from
// initiation to arrival, so a window of that many cycles still cannot be
// outrun by any message, just as in the uniform argument (see the package
// comment and runSharded).
func lookahead(cfg logp.Config) int64 {
	if cfg.Topology != nil {
		return cfg.Topology.MinOL()
	}
	return cfg.O + cfg.L
}

// seat installs a validated cfg and prog on the machine's storage and
// returns every piece of run state to that of a just-built machine: the one
// path behind New, Reset and a re-Run. Buffers keep their capacity; stale
// message payloads are cleared. The rng is reseeded and the skews drawn in
// construction order, so a re-seated run replays the exact random sequence
// of a fresh machine.
func (m *Machine) seat(cfg logp.Config, prog logp.Program) {
	m.cfg, m.topol, m.prog = cfg, cfg.Topology, prog
	m.horizon = lookahead(cfg)
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		m.rng.Seed(cfg.Seed)
	}
	m.skew = keepIf(cfg.ProcSkew > 0, m.skew, cfg.P)
	for i := range m.skew {
		m.skew[i] = 1 + cfg.ProcSkew*m.rng.Float64()
	}
	m.tr = nil
	if cfg.CollectTrace {
		m.tr = &trace.Log{} // a previous Result retains the old log
	}
	m.faults = nil
	if cfg.Faults != nil {
		m.faults = logp.NewFaultRuntime(cfg.Faults, cfg.P)
	}
	m.rec = cfg.Profiler
	if m.rec != nil {
		m.rec.Begin(prof.RunInfo{
			Params:          cfg.Params,
			Coprocessor:     cfg.Coprocessor,
			DisableCapacity: cfg.DisableCapacity,
			BarrierCost:     cfg.BarrierCost,
		})
	}

	capUnits := 0
	if !cfg.DisableCapacity {
		capUnits = cfg.Params.Capacity()
	}
	m.outCap = keepIf(capUnits > 0, m.outCap, cfg.P)
	m.inCap = keepIf(capUnits > 0, m.inCap, cfg.P)
	for i := range m.outCap {
		m.outCap[i] = semaphore{capacity: capUnits, waiters: m.outCap[i].waiters[:0]}
		m.inCap[i] = semaphore{capacity: capUnits, waiters: m.inCap[i].waiters[:0]}
	}
	// Sequential runs settle in-transit counts at delivery. Sharded runs
	// leave them untracked: settling a message's accounting at arrival
	// would cross shards mid-window.
	m.inTransitFrom = keepIf(m.shards == 1, m.inTransitFrom, cfg.P)
	m.inTransitTo = keepIf(m.shards == 1, m.inTransitTo, cfg.P)
	clear(m.inTransitFrom)
	clear(m.inTransitTo)
	m.maxOut, m.maxIn = 0, 0
	m.duplicated = 0

	m.met = cfg.Metrics
	if m.met != nil {
		m.met.Begin(cfg.P, capUnits, cfg.MetricsEvery)
		if m.lastBusy == nil {
			m.lastBusy = make([]int64, cfg.P)
		}
		clear(m.lastBusy)
		m.lastSample = 0
		m.every = m.met.Every()
		m.nextSample = m.every
	}
	m.resetRecorder()

	for s := range m.sh {
		sh := &m.sh[s]
		sh.queue.reset()
		sh.deadline = math.MaxInt64
		sh.live = 0
		for d := range sh.out {
			clear(sh.out[d])
			sh.out[d] = sh.out[d][:0]
		}
		sh.out = keepIf(m.shards > 1, sh.out, m.shards)
		sh.flight = nil
		if m.shards > 1 && m.met != nil {
			sh.flight = metrics.NewHistogram(m.met.FlightCycles.Bounds()...)
		}
		sh.dropped = 0
		sh.err = nil
	}
	for i := range m.procs {
		p := &m.procs[i]
		clear(p.inData)
		p.resetOps()
		*p = proc{
			id:     p.id,
			shard:  p.shard,
			m:      m,
			inbox:  trimmed(&int32Spares, p.inbox, p.inboxPeak),
			inData: trimmed(&anySpares, p.inData, p.inDataPeak),
			ops:    trimmed(&opSpares, p.ops, p.opsPeak),
			opData: trimmed(&anySpares, p.opData, p.opDataPeak),
		}
	}
	m.ran = false
}

// keepIf returns buf, allocated at length n if it is nil, when want holds,
// and nil otherwise: the nil-means-off convention of the optional
// per-processor arrays, keeping their storage while the mode stays on.
func keepIf[T any](want bool, buf []T, n int) []T {
	if !want {
		return nil
	}
	if buf == nil {
		buf = make([]T, n)
	}
	return buf
}

func (m *Machine) shardOf(proc int) int32 { return int32(proc / m.perSh) }

// link resolves the (L, o, g) governing a message from from to to — the
// mirror of logp.Machine.link. Pure and allocation-free; safe to call from
// concurrently executing shards (the model is immutable).
func (m *Machine) link(from, to int) (l, o, g int64) {
	if m.topol == nil {
		return m.cfg.L, m.cfg.O, m.cfg.G
	}
	lk := m.topol.Link(from, to)
	return lk.L, lk.O, lk.G
}

// failStopOnly reports whether a fault plan injects fail-stops and nothing
// else: no link faults (drop/dup/jitter) and no slowdown windows. Such a plan
// is admissible under sharding — each kill is an event on its victim's own
// shard and consumes no random draws, so there is no cross-shard draw
// ordering to preserve.
func failStopOnly(p *logp.FaultPlan) bool {
	return p.Default == (logp.LinkFault{}) && len(p.Links) == 0 && len(p.Slowdowns) == 0
}

// Config returns the machine configuration.
func (m *Machine) Config() logp.Config { return m.cfg }

// StorageBytes reports the bytes of storage the machine keeps between runs
// for reuse: the capacity of its processor and shard arrays and of every
// per-processor and per-shard buffer a run grows. It excludes what the
// config and program own (the program's own state, the metrics registry,
// trace, profiler and topology), which Reset replaces.
func (m *Machine) StorageBytes() int64 {
	n := int64(cap(m.procs))*int64(unsafe.Sizeof(proc{})) +
		int64(cap(m.sh))*int64(unsafe.Sizeof(shard{})) +
		int64(cap(m.outCap)+cap(m.inCap))*int64(unsafe.Sizeof(semaphore{})) +
		int64(cap(m.inTransitFrom)+cap(m.inTransitTo))*4 +
		int64(cap(m.skew)+cap(m.lastBusy))*8
	for i := range m.procs {
		p := &m.procs[i]
		n += int64(cap(p.inbox))*4 +
			int64(cap(p.ops))*int64(unsafe.Sizeof(op{})) +
			int64(cap(p.inData)+cap(p.opData))*int64(unsafe.Sizeof(any(nil)))
	}
	for i := range m.outCap {
		n += int64(cap(m.outCap[i].waiters)+cap(m.inCap[i].waiters)) * 4
	}
	for s := range m.sh {
		sh := &m.sh[s]
		for b := range sh.wheel {
			n += int64(cap(sh.wheel[b])) * int64(unsafe.Sizeof(ent{}))
		}
		n += int64(cap(sh.heap))*int64(unsafe.Sizeof(ent{})) +
			int64(cap(sh.arena))*int64(unsafe.Sizeof(record{})) +
			int64(cap(sh.dataFree))*4 +
			int64(cap(sh.data))*int64(unsafe.Sizeof(any(nil))) +
			int64(cap(sh.out))*int64(unsafe.Sizeof([]post(nil)))
		for d := range sh.out {
			n += int64(cap(sh.out[d])) * int64(unsafe.Sizeof(post{}))
		}
	}
	return n
}

// Run executes the Program to completion and reports the run. A Machine may
// be Run repeatedly: each run restarts from cycle zero with the same seed and
// produces an identical Result, reusing the machine's internal storage so
// steady-state benchmarking pays no per-run construction cost. A re-run
// resets the configured metrics registry and profiler and replaces the trace,
// so retain (or copy) a previous run's observations before re-running. A
// compute stretched past the int64 cycle count fails the run with a
// *logp.StretchOverflowError, and any other operation that passes it (see
// logp.ClockOverflowError) with a *logp.ClockOverflowError, as on the
// goroutine machine.
func (m *Machine) Run() (logp.Result, error) {
	if m.ran {
		m.seat(m.cfg, m.prog)
	}
	m.ran = true
	// Initial schedule, mirroring logp.Machine.Run: fail-stop events first
	// (at equal times the kill fires before the victim does any work), then
	// the metrics sampler, then the processor start events in order.
	if m.faults != nil {
		for _, fs := range m.faults.Plan().FailStops {
			// The kill is an event on the victim's own shard: it touches only
			// that processor's state, so it is window-safe under sharding.
			q := &m.sh[m.shardOf(fs.Proc)].queue
			q.scheduleAt(fs.At, evFail, int32(fs.Proc))
		}
	}
	if m.met != nil && m.shards == 1 {
		q0 := &m.sh[0].queue
		q0.scheduleAt(q0.now+m.every, evSample, 0)
	}
	for s := range m.sh {
		m.sh[s].live = m.sh[s].hi - m.sh[s].lo
	}
	for i := range m.procs {
		p := &m.procs[i]
		sh := &m.sh[p.shard]
		p.resume = rStart
		sh.scheduleAt(sh.now, evWake, p.id)
	}

	var err error
	if m.shards == 1 {
		err = m.runSingle()
	} else {
		err = m.runSharded()
	}
	for s := range m.sh {
		if m.sh[s].err != nil {
			err = m.sh[s].err // outranks the deadlock the halt may cause
			break
		}
	}
	if err != nil {
		return logp.Result{}, err
	}

	res := logp.Result{
		Procs:            make([]logp.ProcStats, m.cfg.P),
		Trace:            m.tr,
		MaxInTransitFrom: m.maxOut,
		MaxInTransitTo:   m.maxIn,
		Duplicated:       m.duplicated,
	}
	for s := range m.sh {
		res.Dropped += m.sh[s].dropped
	}
	for i := range m.procs {
		pr := &m.procs[i]
		pr.stats.Proc = i
		res.Procs[i] = pr.stats
		if pr.stats.Finish > res.Time {
			res.Time = pr.stats.Finish
		}
		res.Messages += pr.stats.MsgsReceived
		if pr.failed {
			res.Failed = append(res.Failed, i)
		}
		if n := pr.pending(); n > 0 {
			res.Undelivered += n
			if m.faults == nil {
				return res, fmt.Errorf("logp: proc %d finished with %d undelivered messages", i, n)
			}
		}
	}
	if m.met != nil {
		for s := range m.sh {
			if m.sh[s].flight != nil {
				m.met.FlightCycles.Merge(m.sh[s].flight)
			}
		}
		if res.Time > m.lastSample || len(m.met.Samples) == 0 {
			m.takeSample(res.Time)
		}
		m.met.SetSimTime(res.Time)
	}
	return res, nil
}

// runSingle drains the lone queue to exhaustion: the sequential engine.
// With the flight recorder on, the whole drain is one busy span (the
// sequential engine has no windows and no barrier).
func (m *Machine) runSingle() error {
	sh := &m.sh[0]
	var e ent
	if sh.rec != nil {
		t0 := time.Now()
		for sh.popNext(math.MaxInt64, &e) {
			m.dispatch(sh, &e)
		}
		sh.rec.BusyNs += time.Since(t0).Nanoseconds()
		return m.checkDeadlock()
	}
	for sh.popNext(math.MaxInt64, &e) {
		m.dispatch(sh, &e)
	}
	return m.checkDeadlock()
}

// checkDeadlock mirrors the kernel's end-of-run check: the queues drained
// while some processor was still parked with no scheduled wake.
func (m *Machine) checkDeadlock() error {
	var blocked []string
	for i := range m.procs {
		p := &m.procs[i]
		if !p.retired && p.blocked {
			blocked = append(blocked, fmt.Sprintf("proc%d", i))
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	var t int64
	for s := range m.sh {
		if m.sh[s].now > t {
			t = m.sh[s].now
		}
	}
	return &sim.DeadlockError{Time: sim.Time(t), Blocked: blocked}
}

// dispatch executes one event on its shard.
func (m *Machine) dispatch(sh *shard, e *ent) {
	if sh.rec != nil {
		sh.rec.Events++
	}
	switch e.kind {
	case evWake:
		m.resumeProc(sh, &m.procs[e.proc])
	case evDeliver:
		m.deliver(sh, e)
	case evFail:
		m.kill(&m.procs[e.proc])
	case evSample:
		m.sample(sh)
	}
}

// resumeProc continues a processor at its recorded continuation.
func (m *Machine) resumeProc(sh *shard, p *proc) {
	if p.retired {
		return
	}
	switch p.resume {
	case rStart:
		m.prog.Start(p)
		m.step(sh, p)
	case rComputeDone:
		p.stats.Compute += p.pend
		m.record(p, trace.Compute, p.waitStart, sh.now)
		if m.rec != nil {
			m.rec.Compute(int(p.id), p.pend)
		}
		p.opHead++
		m.step(sh, p)
	case rWaitDone, rWaitUntilDone:
		m.record(p, trace.Idle, p.waitStart, sh.now)
		p.opHead++
		m.step(sh, p)
	case rSendPaid:
		if m.sendAfterOverhead(sh, p) {
			p.opHead++
			m.step(sh, p)
		}
	case rCapOut:
		if m.sendAcquireOut(sh, p) {
			p.opHead++
			m.step(sh, p)
		}
	case rCapIn:
		if m.sendAcquireIn(sh, p) {
			p.opHead++
			m.step(sh, p)
		}
	case rRecvWake:
		// Mirror of the wait loop in logp.Proc.Recv: record the idle
		// segment, halt if fail-stopped, re-wait if the wake was for a
		// message someone else consumed (impossible here, but the loop shape
		// is kept), else pay for the reception.
		m.record(p, trace.Idle, p.waitStart, sh.now)
		if p.failed {
			m.failProc(sh, p)
			return
		}
		if p.pending() == 0 {
			p.waitStart = sh.now
			p.waiting, p.blocked = true, true
			p.resume = rRecvWake
			return
		}
		if m.beginRecvPay(sh, p) {
			m.recvComplete(sh, p)
		}
	case rRecvPaid:
		m.recvComplete(sh, p)
	}
}

// step drives the processor forward: execute recorded operations until one
// parks, then (once the buffer drains) finish if Done was recorded, or
// receive the next message — paying reception costs and running the Message
// handler inline when possible.
func (m *Machine) step(sh *shard, p *proc) {
	for {
		for p.opHead < len(p.ops) {
			if !m.execOp(sh, p) {
				return
			}
			p.opHead++
		}
		p.resetOps()
		if p.done {
			m.finish(sh, p)
			return
		}
		// The driver's p.Recv(): fail check, Recv hook, wait for arrival.
		if p.failed {
			m.failProc(sh, p)
			return
		}
		if m.rec != nil {
			m.rec.Recv(int(p.id))
		}
		if p.pending() == 0 {
			p.waitStart = sh.now
			p.waiting, p.blocked = true, true
			p.resume = rRecvWake
			return
		}
		if !m.beginRecvPay(sh, p) {
			return
		}
		m.finishRecvBook(sh, p)
		m.runMessage(sh, p)
	}
}

// parkUntil advances the clock to t in place when the queue allows it
// (returning true to continue inline), else schedules a wake at t with the
// given continuation and returns false.
func (m *Machine) parkUntil(sh *shard, p *proc, t int64, cont uint8) bool {
	if sh.canAdvance(t) {
		sh.now = t
		return true
	}
	p.resume = cont
	sh.scheduleAt(t, evWake, p.id)
	return false
}

// execOp charges the operation at the op cursor. It returns false if the
// processor parked (or halted); the caller advances the cursor on true.
func (m *Machine) execOp(sh *shard, p *proc) bool {
	o := &p.ops[p.opHead]
	switch o.k {
	case oCompute:
		cycles := o.a
		if cycles < 0 {
			panic(fmt.Sprintf("logp: negative compute %d", cycles))
		}
		if p.failed {
			m.failProc(sh, p)
			return false
		}
		if cycles == 0 {
			return true
		}
		// Every stretch goes through logp.Stretched, as in logp.Proc.Compute.
		var ok bool
		if m.topol != nil {
			if r := m.topol.Rate(int(p.id)); r != 1 {
				if cycles, ok = logp.Stretched(0, float64(cycles)*r, sh.now); !ok {
					return m.overflow(sh, p, &logp.StretchOverflowError{Proc: int(p.id), At: sh.now})
				}
			}
		}
		if m.skew != nil {
			if cycles, ok = logp.Stretched(0, float64(cycles)*m.skew[p.id], sh.now); !ok {
				return m.overflow(sh, p, &logp.StretchOverflowError{Proc: int(p.id), At: sh.now})
			}
		}
		if j := m.cfg.ComputeJitter; j > 0 {
			if cycles, ok = logp.Stretched(cycles, float64(cycles)*j*m.rng.Float64(), sh.now); !ok {
				return m.overflow(sh, p, &logp.StretchOverflowError{Proc: int(p.id), At: sh.now})
			}
		}
		if m.faults != nil {
			if f := m.faults.SlowFactor(int(p.id), sh.now); f > 1 {
				if cycles, ok = logp.Stretched(0, float64(cycles)*f, sh.now); !ok {
					return m.overflow(sh, p, &logp.StretchOverflowError{Proc: int(p.id), At: sh.now})
				}
			}
		}
		if cycles > math.MaxInt64-sh.now {
			return m.overflow(sh, p, &logp.ClockOverflowError{Proc: int(p.id), Op: "compute", Cycles: cycles, At: sh.now})
		}
		p.pend = cycles
		p.waitStart = sh.now
		if t := sh.now + cycles; t > sh.now {
			if !m.parkUntil(sh, p, t, rComputeDone) {
				return false
			}
		}
		p.stats.Compute += cycles
		m.record(p, trace.Compute, p.waitStart, sh.now)
		if m.rec != nil {
			m.rec.Compute(int(p.id), cycles)
		}
		return true
	case oWait:
		if p.failed {
			m.failProc(sh, p)
			return false
		}
		if o.a <= 0 {
			return true
		}
		if o.a > math.MaxInt64-sh.now {
			return m.overflow(sh, p, &logp.ClockOverflowError{Proc: int(p.id), Op: "wait", Cycles: o.a, At: sh.now})
		}
		if m.rec != nil {
			m.rec.Wait(int(p.id), o.a)
		}
		p.waitStart = sh.now
		if !m.parkUntil(sh, p, sh.now+o.a, rWaitDone) {
			return false
		}
		m.record(p, trace.Idle, p.waitStart, sh.now)
		return true
	case oWaitUntil:
		if p.failed {
			m.failProc(sh, p)
			return false
		}
		if m.rec != nil {
			m.rec.WaitUntil(int(p.id), o.a)
		}
		if o.a <= sh.now {
			return true
		}
		p.waitStart = sh.now
		if !m.parkUntil(sh, p, o.a, rWaitUntilDone) {
			return false
		}
		m.record(p, trace.Idle, p.waitStart, sh.now)
		return true
	case oBadSend:
		panic(fmt.Sprintf("logp: proc %d sending to %d out of range", p.id, o.a))
	default:
		return m.execSend(sh, p, o)
	}
}

// overflow ends p's part in the run on an operation that would end past
// the int64 cycle count: p halts as a fail-stopped processor does, the
// rest of the run drains, and Run returns the shard's first such error. It
// returns false, execOp's halt.
func (m *Machine) overflow(sh *shard, p *proc, err error) bool {
	if sh.err == nil {
		sh.err = err
	}
	m.kill(p)
	m.failProc(sh, p)
	return false
}

// execSend begins a send: the gap wait and the o-cycle overhead share one
// park, exactly as in logp.Proc.Send.
func (m *Machine) execSend(sh *shard, p *proc, o *op) bool {
	to := int(o.to)
	if to == int(p.id) {
		panic(fmt.Sprintf("logp: proc %d sending to itself", p.id))
	}
	if p.failed {
		m.failProc(sh, p)
		return false
	}
	start := sh.now
	if p.nextSend < 0 {
		return m.overflow(sh, p, logp.GapOverflow(int(p.id), "send", p.nextSend, start))
	}
	p.sendStart = start
	initiation := start
	if p.nextSend > initiation {
		initiation = p.nextSend
	}
	p.initiation = initiation
	_, lkO, _ := m.link(int(p.id), to)
	if lkO > math.MaxInt64-initiation {
		return m.overflow(sh, p, &logp.ClockOverflowError{Proc: int(p.id), Op: "send", Cycles: lkO, At: initiation})
	}
	if t := initiation + lkO; t > sh.now {
		if !m.parkUntil(sh, p, t, rSendPaid) {
			m.bufferParkedSend(sh, p, o)
			return false
		}
	}
	return m.sendAfterOverhead(sh, p)
}

// bufferParkedSend emits a parked send's cross-shard delivery into the
// outbox at park time, while the full o+L lookahead still lies ahead. The
// rSendPaid wake may fire in a later window, where only L cycles separate
// it from the delivery — less than the window span, so injecting there
// could land the message behind the destination shard's clock. At park
// time the whole flight is already determined (sharded runs have no
// capacity stalls, jitter or faults): the wake fires at initiation+o and
// the message lands exactly L later. Shard-local destinations keep the
// wake-time injection — scheduling into the shard's own queue never
// outruns its own clock.
func (m *Machine) bufferParkedSend(sh *shard, p *proc, o *op) {
	if sh.out == nil {
		return
	}
	to := o.to
	ds := m.shardOf(int(to))
	if ds == sh.idx {
		return
	}
	// The flight is the link's own o+L, which is at least the machine-wide
	// minOL the window spans — so the buffered delivery still lands at or
	// after the window end. A flight that would land past the int64 cycle
	// count is left to the wake, where sendInject fails the run.
	lkL, lkO, _ := m.link(int(p.id), int(to))
	if lkL > math.MaxInt64-(p.initiation+lkO) {
		return
	}
	sh.outbox(ds, p.initiation+lkO+lkL, to, p.takeData(o), false).set(p.id, int(o.a), p.initiation, lkL, false)
	p.sentEarly = true
}

// sendAfterOverhead continues a send once the overhead is paid: statistics,
// hooks, then the capacity acquires (or straight to injection).
func (m *Machine) sendAfterOverhead(sh *shard, p *proc) bool {
	o := &p.ops[p.opHead]
	to := int(o.to)
	_, lkO, _ := m.link(int(p.id), to)
	p.stats.SendOverhead += lkO
	p.stats.MsgsSent++
	if p.initiation > p.sendStart {
		m.record(p, trace.Idle, p.sendStart, p.initiation)
	}
	m.record(p, trace.SendOverhead, p.initiation, sh.now)
	if m.met != nil {
		m.met.OnSend(int(p.id), to)
	}
	if m.outCap != nil {
		p.stallStart = sh.now
		return m.sendAcquireOut(sh, p)
	}
	return m.sendInject(sh, p)
}

// sendAcquireOut waits for an out-capacity unit (re-entered on every wake,
// re-queueing at the back on a failed re-check, like sim.Semaphore.Acquire).
func (m *Machine) sendAcquireOut(sh *shard, p *proc) bool {
	s := &m.outCap[p.id]
	if s.used >= s.capacity {
		m.semWait(s, p, rCapOut)
		return false
	}
	s.used++
	return m.sendAcquireIn(sh, p)
}

// sendAcquireIn waits for the destination's in-capacity unit, then settles
// the stall accounting and injects.
func (m *Machine) sendAcquireIn(sh *shard, p *proc) bool {
	to := int(p.ops[p.opHead].to)
	s := &m.inCap[to]
	if s.used >= s.capacity {
		m.semWait(s, p, rCapIn)
		return false
	}
	s.used++
	if d := sh.now - p.stallStart; d > 0 {
		p.stats.Stall += d
		m.record(p, trace.Stall, p.stallStart, sh.now)
		if m.met != nil {
			m.met.OnStall(int(p.id), d)
		}
	}
	return m.sendInject(sh, p)
}

// sendInject injects the message into the network: in-transit accounting,
// gap bookkeeping, the latency draw, the fault fate, and the delivery event.
// It returns false, halting p, if the message would arrive past the int64
// cycle count, as logp.Proc.Send does.
func (m *Machine) sendInject(sh *shard, p *proc) bool {
	o := &p.ops[p.opHead]
	to := int(o.to)
	tag := int(o.a)
	if m.inTransitFrom != nil {
		m.inTransitFrom[p.id]++
		m.inTransitTo[to]++
		if u := int(m.inTransitFrom[p.id]); u > m.maxOut {
			m.maxOut = u
		}
		if u := int(m.inTransitTo[to]); u > m.maxIn {
			m.maxIn = u
		}
	}
	lkL, lkO, lkG := m.link(int(p.id), to)
	injection := sh.now
	p.nextSend = logp.GapBound(p.initiation, max(lkO, lkG), injection, lkG-lkO)
	if p.sentEarly {
		// The delivery was buffered at park time (bufferParkedSend); only
		// the gap bookkeeping above remains to be done at the wake.
		p.sentEarly = false
		return true
	}
	lat := lkL
	if m.cfg.LatencyJitter > 0 {
		lat -= m.rng.Int63n(m.cfg.LatencyJitter + 1)
	}
	var drop, dup bool
	var dupLat int64
	if m.faults != nil {
		lat, drop, dup, dupLat = m.faults.MessageFate(int(p.id), to, lat)
	}
	// The later copy's flight: a duplicate always lands after the original,
	// and dupLat is 0 without one.
	if f := max(lat, dupLat); f > math.MaxInt64-injection {
		return m.overflow(sh, p, &logp.ClockOverflowError{Proc: int(p.id), Op: "send", Cycles: f, At: injection})
	}
	if m.rec != nil {
		m.rec.Send(int(p.id), to, tag, lat)
		if drop {
			m.rec.DropLast(int(p.id))
		}
	}
	data := p.takeData(o)
	m.route(sh, injection+lat, int32(to), data, drop).set(p.id, tag, p.initiation, lat, false)
	if dup {
		if m.rec != nil {
			m.rec.Dup(int(p.id), to, tag, 1, dupLat)
		}
		m.route(sh, injection+dupLat, int32(to), data, false).set(p.id, tag, p.initiation, dupLat, true)
	}
	return true
}

// route queues the delivery of a message to to at time t and returns the
// record the caller writes the message into: a fresh arena record of the
// local queue when the destination is shard-local, else the record of a new
// entry in the outbox to its shard, merged at the next window barrier.
func (m *Machine) route(sh *shard, t int64, to int32, data any, drop bool) *record {
	if ds := m.shardOf(int(to)); ds != sh.idx {
		return sh.outbox(ds, t, to, data, drop)
	}
	return sh.deliverAt(t, to, data, drop)
}

// outbox appends a delivery to the outbox for shard ds and returns its
// record for the caller to fill.
func (sh *shard) outbox(ds int32, t int64, to int32, data any, drop bool) *record {
	b := append(sh.out[ds], post{t: t, to: to, data: data, drop: drop})
	sh.out[ds] = b
	return &b[len(b)-1].rec
}

// deliver completes a message flight: the mirror of logp's delivery event.
// The record stays in its arena slot, which the receiver's inbox now names,
// until reception; a payload moves to the receiver's inData queue. A
// dropped message's slot is freed here.
func (m *Machine) deliver(sh *shard, e *ent) {
	r := &sh.arena[e.idx]
	to := int(e.proc)
	if !r.dup {
		m.settle(int(r.from), to)
	}
	dst := &m.procs[e.proc]
	if e.drop || dst.failed {
		sh.dropped++
		if m.met != nil {
			m.met.OnDrop(to)
		}
		if e.data != 0 {
			sh.takeData(e.data)
		}
		sh.freeRecord(e.idx)
		return
	}
	flight := r.t
	r.t = sh.now
	if e.data != 0 {
		dst.pushData(sh.takeData(e.data))
		r.hasData = true
	}
	dst.pushInbox(e.idx)
	if r.dup {
		m.duplicated++
		if m.met != nil {
			m.met.OnDup(to)
		}
	} else if m.met != nil {
		// OnDeliver splits under sharding: the per-processor counter is
		// owned by the destination shard, but the flight histogram is
		// shared, so sharded runs observe into shard scratch instead.
		if sh.flight != nil {
			m.met.Procs[to].Delivered.Inc()
			sh.flight.Observe(flight)
		} else {
			m.met.OnDeliver(to, flight)
		}
	}
	if dst.waiting {
		dst.waiting, dst.blocked = false, false
		sh.scheduleAt(sh.now, evWake, dst.id)
	}
}

// settle ends the in-transit accounting of a message from from to to and
// frees its capacity slots (both exist only in single-shard runs).
func (m *Machine) settle(from, to int) {
	if m.inTransitFrom != nil {
		m.inTransitFrom[from]--
		m.inTransitTo[to]--
	}
	if m.outCap != nil {
		m.semRelease(&m.outCap[from])
		m.semRelease(&m.inCap[to])
	}
}

// semWait queues the processor on the semaphore (mirror of Signal.Wait +
// Process.Block).
func (m *Machine) semWait(s *semaphore, p *proc, cont uint8) {
	if s.head == len(s.waiters) {
		s.waiters = s.waiters[:0]
		s.head = 0
	}
	s.waiters = append(s.waiters, p.id)
	p.blocked = true
	p.resume = cont
}

// semRelease frees one unit and wakes the longest-stalled acquirer (mirror
// of sim.Semaphore.Release: Notify → Unblock → a wake at the current time).
func (m *Machine) semRelease(s *semaphore) {
	if s.used == 0 {
		panic("flat: semaphore release without acquire")
	}
	s.used--
	if s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.head++
		p := &m.procs[w]
		p.blocked = false
		sh := &m.sh[p.shard]
		sh.scheduleAt(sh.now, evWake, p.id)
	}
}

// beginRecvPay pops the earliest message and starts paying the reception
// costs (gap wait + overhead in one park). True means the cost completed
// inline; false means the processor parked with resume = rRecvPaid, or
// halted because the overhead would end past the int64 cycle count.
func (m *Machine) beginRecvPay(sh *shard, p *proc) bool {
	p.cur = p.popInbox()
	arrived := sh.now
	if p.nextRecv < 0 {
		return m.overflow(sh, p, logp.GapOverflow(int(p.id), "receive", p.nextRecv, arrived))
	}
	p.recvArrive = arrived
	start := arrived
	if p.nextRecv > start {
		start = p.nextRecv
	}
	p.recvFrom = start
	// The reception costs the arriving link's o: logp.Proc.recvCost charges
	// o per word, or once with a coprocessor, and every message here is one
	// word.
	_, cost, _ := m.link(int(sh.arena[p.cur].from), int(p.id))
	if cost > math.MaxInt64-start {
		return m.overflow(sh, p, &logp.ClockOverflowError{Proc: int(p.id), Op: "receive", Cycles: cost, At: start})
	}
	p.recvPay = cost
	if t := start + cost; t > sh.now {
		if !m.parkUntil(sh, p, t, rRecvPaid) {
			return false
		}
	}
	return true
}

// finishRecvBook completes the reception bookkeeping (the tail of
// logp.Proc.finishRecv).
func (m *Machine) finishRecvBook(sh *shard, p *proc) {
	cost := p.recvPay
	start := p.recvFrom
	arrived := p.recvArrive
	p.stats.RecvOverhead += cost
	p.stats.MsgsReceived++
	if start > arrived {
		m.record(p, trace.Idle, arrived, start)
	}
	m.record(p, trace.RecvOverhead, start, sh.now)
	r := &sh.arena[p.cur]
	_, lkO, lkG := m.link(int(r.from), int(p.id))
	p.nextRecv = logp.GapBound(start, max(lkO, lkG), start, cost)
	if m.rec != nil {
		m.rec.RecvDone(int(p.id))
	}
	if m.met != nil {
		m.met.OnRecv(int(p.id))
	}
}

// recvComplete finishes a parked reception: bookkeeping, the Message
// handler, then onward stepping.
func (m *Machine) recvComplete(sh *shard, p *proc) {
	m.finishRecvBook(sh, p)
	m.runMessage(sh, p)
	m.step(sh, p)
}

// runMessage runs the Message handler on the message being received, built
// from its record, which it frees, and its payload, which the processor
// keeps no reference to.
func (m *Machine) runMessage(sh *shard, p *proc) {
	r := &sh.arena[p.cur]
	var data any
	if r.hasData {
		data = p.popData()
	}
	msg := r.message(p.id, data)
	sh.freeRecord(p.cur)
	m.prog.Message(p, msg)
}

// finish retires a processor that recorded Done.
func (m *Machine) finish(sh *shard, p *proc) {
	p.retired = true
	sh.live--
	p.stats.Finish = sh.now
}

// failProc halts a fail-stopped processor at an operation boundary: the
// mirror of the procFailure unwind in logp.Machine.Run.
func (m *Machine) failProc(sh *shard, p *proc) {
	p.retired = true
	p.blocked = false
	sh.live--
	p.stats.Finish = sh.now
	if m.rec != nil {
		m.rec.FailStop(int(p.id), p.stats.Finish)
	}
	p.resetOps()
}

// kill marks a processor fail-stopped and wakes a blocked receiver (the
// mirror of logp.Machine.kill).
func (m *Machine) kill(p *proc) {
	if p.failed {
		return
	}
	p.failed = true
	if p.waiting {
		p.waiting, p.blocked = false, false
		sh := &m.sh[p.shard]
		sh.scheduleAt(sh.now, evWake, p.id)
	}
}

// sample is the recurring metrics sampler (single-shard runs): the mirror
// of logp's sampleEvent.RunEvent, including the quiescence check that keeps
// deadlock detection alive.
func (m *Machine) sample(sh *shard) {
	if sh.live == 0 {
		return
	}
	m.takeSample(sh.now)
	if sh.pending() == 0 {
		return
	}
	sh.scheduleAt(sh.now+m.every, evSample, 0)
}

// takeSample appends one time-series point stamped now (the mirror of
// logp.Machine.takeSample; in-flight gauges read zero in sharded runs).
func (m *Machine) takeSample(now int64) {
	n := m.cfg.P
	s := metrics.Sample{
		Time:         now,
		Delivered:    m.met.DeliveredTotal(),
		InFlightFrom: make([]int32, n),
		InFlightTo:   make([]int32, n),
		InboxDepth:   make([]int32, n),
		StallCycles:  make([]int64, n),
		Utilization:  make([]float64, n),
	}
	interval := now - m.lastSample
	for i := range m.procs {
		pr := &m.procs[i]
		if m.inTransitFrom != nil {
			s.InFlightFrom[i] = m.inTransitFrom[i]
			s.InFlightTo[i] = m.inTransitTo[i]
		}
		s.InboxDepth[i] = int32(pr.pending())
		s.StallCycles[i] = pr.stats.Stall
		busy := pr.stats.Compute + pr.stats.SendOverhead + pr.stats.RecvOverhead + pr.stats.Stall
		if interval > 0 {
			u := float64(busy-m.lastBusy[i]) / float64(interval)
			if u > 1 {
				u = 1 // busy cycles granted mid-operation can overshoot the interval
			}
			s.Utilization[i] = u
		}
		m.lastBusy[i] = busy
	}
	m.lastSample = now
	m.met.AddSample(s)
}

// record appends a trace segment when tracing is on.
func (m *Machine) record(p *proc, kind trace.Kind, start, end int64) {
	if m.tr != nil {
		m.tr.Add(int(p.id), kind, start, end)
	}
}

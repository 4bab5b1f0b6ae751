// Package logp implements the LogP abstract machine as a deterministic
// discrete-event simulator: P asynchronous processors that communicate by
// point-to-point messages, with send/receive overhead o, gap g between
// consecutive transmissions or receptions at one processor, latency at most
// L, and the network capacity constraint of at most ceil(L/g) messages in
// transit from any processor or to any processor.
//
// Algorithm code is written as an ordinary Go function per processor using
// blocking Send/Recv/Compute primitives; the simulator charges model costs
// and reports per-processor activity, so the measured completion time of a
// run is the algorithm's LogP cost.
package logp

import (
	"fmt"
	"math"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/sim"
	"github.com/logp-model/logp/internal/topo"
	"github.com/logp-model/logp/internal/trace"
)

// Config describes the machine to simulate.
type Config struct {
	core.Params

	// Topology, when non-nil, replaces the single global (L, o, g) with a
	// per-link cost model (see internal/topo): a message from i to j pays
	// the overhead, gap spacing and latency of link (i, j), and Compute
	// stretches by the model's per-processor rate. Params remains the base
	// tier — topo's constructors treat it as the cluster link — and the
	// capacity ceiling stays the global ceil(L/g) of Params (the NIC buffer
	// depth is a property of the endpoint, not of any one link).
	// Topology.P() must equal P. nil, and topo.Flat(Params), are both
	// cycle-identical to the pre-topology machine. LatencyJitter must not
	// exceed the model's minimum link L.
	Topology topo.Model

	// LatencyJitter makes message latency uniform in [L-LatencyJitter, L]
	// instead of exactly L. The model defines L as an upper bound and
	// algorithms must be correct under any latency; jitter also produces
	// the asynchronous drift the paper observes on the real CM-5 (Fig. 8).
	LatencyJitter int64

	// ComputeJitter stretches each Compute call by a uniform factor in
	// [1, 1+ComputeJitter], modeling cache misses and other local timing
	// noise ("processors execute asynchronously due to cache effects,
	// network collisions, etc.", Section 4.1.4).
	ComputeJitter float64

	// ProcSkew gives each processor a fixed systematic speed factor drawn
	// uniformly from [1, 1+ProcSkew] (deterministic in Seed), modeling
	// persistent per-node differences (cache conflicts depend on data
	// addresses). This is what makes processors "gradually drift out of
	// sync during the remap phase" in Figure 8.
	ProcSkew float64

	// Seed drives all randomness (jitter). Runs with equal Config and
	// program are bit-reproducible.
	Seed int64

	// DisableCapacity removes the ceil(L/g) capacity constraint, for
	// ablation: this reopens the infinite-bandwidth loophole the model
	// exists to close.
	DisableCapacity bool

	// Coprocessor equips every node with a network DMA device for bulk
	// transfers (Section 5.4): SendBulk pays the setup overhead o once and
	// streams at the gap while the processor computes, and receiving a
	// train costs o once. Without it, bulk transfers engage the processor
	// o per word on both ends.
	Coprocessor bool

	// CollectTrace records per-processor activity segments (costly for
	// long runs; used for Figure 3/4 style Gantt output).
	CollectTrace bool

	// Profiler, when non-nil, records the run as a causal operation DAG
	// for critical-path analysis, what-if re-costing and Chrome-trace
	// export (see internal/prof). Every hook sits behind a nil check, so
	// the simulator's zero-allocation hot paths are untouched when
	// profiling is off.
	Profiler *prof.Recorder

	// BarrierCost is the completion cost of the hardware barrier
	// (Section 5.5); Proc.Barrier releases all processors BarrierCost
	// cycles after the last arrival. The CM-5 implementation of Section
	// 4.1.4 uses such a barrier to resynchronize the remap phase.
	BarrierCost int64

	// Faults, when non-nil, injects seeded link and processor faults into
	// the run: message drop/duplication/extra latency, transient compute
	// slowdowns and fail-stop processor deaths. See FaultPlan (faults.go)
	// for the exact semantics and determinism contract. Every fault check
	// sits behind a nil test, so the fault-free hot paths are untouched.
	Faults *FaultPlan

	// Metrics, when non-nil, attaches the live telemetry registry of
	// internal/metrics: per-processor and per-link counters, flight-time
	// and stall histograms, and a sim-time sampler that snapshots in-flight
	// counts against the ceil(L/g) ceiling, inbox depths and utilization
	// every MetricsEvery cycles. Every hook sits behind a nil check (the
	// same pattern as Profiler), so the metrics-off hot path stays
	// allocation-free per message.
	Metrics *metrics.Registry

	// MetricsEvery is the sampling interval of the metrics time series in
	// simulated cycles; <= 0 takes metrics.DefaultEvery. Ignored without
	// Metrics.
	MetricsEvery int64
}

// Validate checks everything every engine requires of a config: the LogP
// parameters, latency jitter within [0, L] and within the topology's
// minimum link L, a topology for P processors, finite non-negative compute
// jitter and processor skew, a fault plan valid for P, and every flight a
// message can draw within int64.
func (cfg Config) Validate() error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.LatencyJitter < 0 || cfg.LatencyJitter > cfg.L {
		return fmt.Errorf("logp: latency jitter %d outside [0, L=%d]", cfg.LatencyJitter, cfg.L)
	}
	if cfg.LatencyJitter == math.MaxInt64 {
		return fmt.Errorf("logp: latency jitter %d: the draw from [0, jitter] needs jitter+1 within int64", cfg.LatencyJitter)
	}
	maxL := cfg.L
	if cfg.Topology != nil {
		if cfg.Topology.P() != cfg.P {
			return fmt.Errorf("logp: topology describes P=%d, machine has P=%d", cfg.Topology.P(), cfg.P)
		}
		if minL := cfg.Topology.MinL(); cfg.LatencyJitter > minL {
			return fmt.Errorf("logp: latency jitter %d exceeds the minimum link L=%d", cfg.LatencyJitter, minL)
		}
		maxL = cfg.Topology.MaxL()
	}
	if !(cfg.ComputeJitter >= 0 && cfg.ComputeJitter <= math.MaxFloat64) {
		return fmt.Errorf("logp: compute jitter %v not a finite value >= 0", cfg.ComputeJitter)
	}
	if !(cfg.ProcSkew >= 0 && cfg.ProcSkew <= math.MaxFloat64) {
		return fmt.Errorf("logp: processor skew %v not a finite value >= 0", cfg.ProcSkew)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.P); err != nil {
			return err
		}
		return cfg.Faults.validateFlights(maxL)
	}
	return nil
}

// ProcStats aggregates one processor's activity over a run.
type ProcStats struct {
	Proc         int
	Compute      int64 // cycles of local work
	SendOverhead int64 // cycles paying o on sends
	RecvOverhead int64 // cycles paying o on receives
	Stall        int64 // cycles stalled on the capacity constraint
	Finish       int64 // local completion time
	MsgsSent     int
	MsgsReceived int
}

// Idle is the time the processor spent waiting (gap spacing, message waits
// and end-of-program skew) out of the given horizon.
func (s ProcStats) Idle(horizon int64) int64 {
	busy := s.Compute + s.SendOverhead + s.RecvOverhead + s.Stall
	if horizon < s.Finish {
		horizon = s.Finish
	}
	return horizon - busy
}

// Result summarizes a machine run.
type Result struct {
	// Time is the completion time of the slowest processor, the "maximum
	// time ... used by any processor" metric of Section 3.
	Time int64
	// Procs holds per-processor statistics.
	Procs []ProcStats
	// Messages is the total number of messages delivered.
	Messages int
	// MaxInTransitFrom / MaxInTransitTo are the largest observed in-transit
	// counts; both are bounded by the capacity constraint when enabled.
	MaxInTransitFrom int
	MaxInTransitTo   int
	// Trace is the activity log (nil unless Config.CollectTrace).
	Trace *trace.Log
	// Dropped counts messages the fault layer lost in flight (including
	// messages addressed to an already-dead processor); Duplicated counts
	// network-made extra copies delivered. Both are zero without faults.
	Dropped    int
	Duplicated int
	// Failed lists fail-stopped processors in processor order.
	Failed []int
	// Undelivered counts messages still queued at processor inboxes when
	// the run ended. Without a FaultPlan this is always zero (a leftover
	// message is reported as an error instead); under faults it is expected
	// residue — retransmissions and acks outliving their consumer.
	Undelivered int
}

// BusyFraction is the fraction of processor-cycles spent on computation, a
// measure of efficiency.
func (r Result) BusyFraction() float64 {
	if r.Time == 0 || len(r.Procs) == 0 {
		return 0
	}
	var busy int64
	for _, s := range r.Procs {
		busy += s.Compute
	}
	return float64(busy) / float64(r.Time*int64(len(r.Procs)))
}

// TotalStall sums capacity-stall cycles across processors.
func (r Result) TotalStall() int64 {
	var total int64
	for _, s := range r.Procs {
		total += s.Stall
	}
	return total
}

// Machine is a LogP machine ready to run one program.
type Machine struct {
	cfg    Config
	topol  topo.Model // nil unless Config.Topology: per-link cost model
	kernel *sim.Kernel
	procs  []*Proc
	// capacity semaphores, one pair per processor, nil if disabled
	outCap  []*sim.Semaphore
	inCap   []*sim.Semaphore
	barrier *sim.Barrier
	tr      *trace.Log
	rec     *prof.Recorder    // nil unless Config.Profiler
	met     *metrics.Registry // nil unless Config.Metrics
	faults  *faultState       // nil unless Config.Faults
	skew    []float64         // per-processor systematic speed factor
	// sampler state (metrics only): live processors gate rescheduling so
	// the recurring sample event cannot keep the kernel alive forever, and
	// the lastBusy/lastSample pair turns cumulative busy-cycle counts into
	// per-interval utilization.
	smp        sampleEvent
	live       int
	lastBusy   []int64
	lastSample int64
	// fault counters (see Result)
	dropped    int
	duplicated int
	// err is the run's first StretchOverflowError or ClockOverflowError,
	// which Run returns in place of a Result.
	err error
	// in-transit tracking (kept even when enforcement is disabled, so the
	// ablation can show the flood)
	inTransitFrom []int
	inTransitTo   []int
	maxOut        int
	maxIn         int
	// freeDeliveries recycles message-arrival event records: the kernel runs
	// strictly single-threaded, so a plain freelist (no locking) makes the
	// Send hot path allocation-free in steady state.
	freeDeliveries []*delivery
}

// delivery is a pooled message-arrival event. It implements sim.Runner so
// scheduling it does not allocate a closure, and it returns itself to the
// machine's freelist once the message is enqueued at the destination.
// drop marks a message the fault layer loses at arrival; dup marks a
// network-made duplicate copy, which is exempt from capacity accounting.
type delivery struct {
	m      *Machine
	msg    Message
	drop   bool
	dup    bool
	flight int64 // actual network latency drawn for this copy (metrics)
}

// RunEvent completes the message's flight: stamp the arrival, settle
// capacity, enqueue at the destination inbox, and wake a waiting receiver.
// Under faults, a dropped message — or any message addressed to a dead
// processor — is discarded here instead, and duplicate copies are enqueued
// without touching the capacity books.
func (d *delivery) RunEvent() {
	m := d.m
	msg := d.msg
	drop, dup, flight := d.drop, d.dup, d.flight
	d.msg = Message{}
	d.drop, d.dup = false, false
	m.freeDeliveries = append(m.freeDeliveries, d)
	msg.ArrivedAt = int64(m.kernel.Now())
	if !dup {
		m.settle(msg)
	}
	dst := m.procs[msg.To]
	if drop || dst.failed {
		m.dropped++
		if m.met != nil {
			m.met.OnDrop(msg.To)
		}
		return
	}
	dst.inbox = append(dst.inbox, msg)
	if dup {
		m.duplicated++
		if m.met != nil {
			m.met.OnDup(msg.To)
		}
	} else if m.met != nil {
		m.met.OnDeliver(msg.To, flight)
	}
	dst.inboxSig.Notify()
}

// sampleEvent is the recurring metrics sampler. It implements sim.Runner so
// each firing schedules without allocating, and it stops rescheduling once
// every processor has finished (m.live == 0) or the kernel is otherwise
// quiescent — in either case re-arming would keep the queue non-empty
// forever, so Run would never return (and never report a deadlock).
type sampleEvent struct{ m *Machine }

// RunEvent snapshots the machine and re-arms the sampler.
func (s *sampleEvent) RunEvent() {
	m := s.m
	if m.live == 0 {
		// All processors already finished; skip the sample so the series
		// never contains a point stamped past the run's final SimTime
		// (Machine.Run closes the series at the true finish time).
		return
	}
	m.takeSample(int64(m.kernel.Now()))
	if m.kernel.Quiescent() {
		// Live processors remain but nothing is scheduled to wake them:
		// the program is deadlocked. Let the queue drain so kernel.Run
		// returns its DeadlockError instead of sampling forever.
		return
	}
	m.kernel.AfterRun(sim.Time(m.met.Every()), s)
}

// takeSample appends one time-series point stamped now to the metrics
// registry: in-flight counts from/to each processor (to be read against the
// ceil(L/g) ceiling), inbox depths, cumulative capacity-stall cycles, total
// delivered messages, and per-interval utilization derived by differencing
// each processor's cumulative busy cycles since the previous sample.
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
	for i, pr := range m.procs {
		s.InFlightFrom[i] = int32(m.inTransitFrom[i])
		s.InFlightTo[i] = int32(m.inTransitTo[i])
		s.InboxDepth[i] = int32(pr.Pending())
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

// newDelivery takes an arrival record from the freelist, or allocates one.
func (m *Machine) newDelivery() *delivery {
	if n := len(m.freeDeliveries); n > 0 {
		d := m.freeDeliveries[n-1]
		m.freeDeliveries = m.freeDeliveries[:n-1]
		return d
	}
	return &delivery{m: m}
}

// New builds a machine. The config must pass Config.Validate.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		topol:         cfg.Topology,
		kernel:        sim.NewKernel(cfg.Seed),
		barrier:       sim.NewBarrier(cfg.P),
		inTransitFrom: make([]int, cfg.P),
		inTransitTo:   make([]int, cfg.P),
	}
	if cfg.ProcSkew > 0 {
		m.skew = make([]float64, cfg.P)
		for i := range m.skew {
			m.skew[i] = 1 + cfg.ProcSkew*m.kernel.Rand().Float64()
		}
	}
	if cfg.CollectTrace {
		m.tr = &trace.Log{}
	}
	if cfg.Faults != nil {
		m.faults = newFaultState(cfg.Faults, cfg.P)
	}
	if cfg.Profiler != nil {
		m.rec = cfg.Profiler
		m.rec.Begin(prof.RunInfo{
			Params:          cfg.Params,
			Coprocessor:     cfg.Coprocessor,
			DisableCapacity: cfg.DisableCapacity,
			BarrierCost:     cfg.BarrierCost,
		})
	}
	if !cfg.DisableCapacity {
		capUnits := cfg.Params.Capacity()
		m.outCap = make([]*sim.Semaphore, cfg.P)
		m.inCap = make([]*sim.Semaphore, cfg.P)
		for i := 0; i < cfg.P; i++ {
			m.outCap[i] = sim.NewSemaphore(capUnits)
			m.inCap[i] = sim.NewSemaphore(capUnits)
		}
	}
	if cfg.Metrics != nil {
		m.met = cfg.Metrics
		capUnits := 0
		if !cfg.DisableCapacity {
			capUnits = cfg.Params.Capacity()
		}
		m.met.Begin(cfg.P, capUnits, cfg.MetricsEvery)
		m.lastBusy = make([]int64, cfg.P)
		m.smp = sampleEvent{m: m}
	}
	return m, nil
}

// settle ends a message's in-transit accounting and frees its capacity
// slots, at its arrival at the destination module.
func (m *Machine) settle(msg Message) {
	m.inTransitFrom[msg.From]--
	m.inTransitTo[msg.To]--
	if m.outCap != nil {
		m.outCap[msg.From].Release()
		m.inCap[msg.To].Release()
	}
}

// link resolves the (L, o, g) governing a message from from to to: the
// global Params without a topology, the model's link with one. The nil
// branch keeps the pre-topology machine bit-exact, and the model call is a
// pure method on an immutable value, so the hot path stays allocation-free
// either way.
func (m *Machine) link(from, to int) (l, o, g int64) {
	if m.topol == nil {
		return m.cfg.L, m.cfg.O, m.cfg.G
	}
	lk := m.topol.Link(from, to)
	return lk.L, lk.O, lk.G
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Params returns the LogP parameters.
func (m *Machine) Params() core.Params { return m.cfg.Params }

// Run executes body on every processor (as processor p.ID) until all return,
// and reports the run. A Machine runs one program; build a fresh Machine per
// run. A compute stretched past the int64 cycle count fails the run with a
// *StretchOverflowError, and any other operation that passes it (see
// ClockOverflowError) with a *ClockOverflowError.
func (m *Machine) Run(body func(p *Proc)) (Result, error) {
	if m.procs != nil {
		return Result{}, fmt.Errorf("logp: machine already ran")
	}
	m.procs = make([]*Proc, m.cfg.P)
	// Fail-stop events are scheduled before the processors so that at equal
	// times the kill fires first and the victim dies before doing any work.
	if m.faults != nil {
		for _, fs := range m.faults.plan.FailStops {
			pr := &fs
			m.kernel.At(sim.Time(pr.At), func() { m.kill(pr.Proc) })
		}
	}
	if m.met != nil {
		m.live = m.cfg.P
		m.kernel.AfterRun(sim.Time(m.met.Every()), &m.smp)
	}
	for i := 0; i < m.cfg.P; i++ {
		pr := &Proc{id: i, m: m}
		pr.wake.p = pr
		m.procs[i] = pr
		m.kernel.Spawn(fmt.Sprintf("proc%d", i), func(ps *sim.Process) {
			pr.ps = ps
			defer func() {
				m.live--
				pr.stats.Finish = int64(ps.Now())
				if r := recover(); r != nil {
					if _, ok := r.(procFailure); ok && pr.failed {
						if m.rec != nil {
							m.rec.FailStop(pr.id, pr.stats.Finish)
						}
						return
					}
					panic(r)
				}
			}()
			body(pr)
		})
	}
	err := m.kernel.Run()
	if m.err != nil {
		return Result{}, m.err // outranks the deadlock the halt may cause
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Procs:            make([]ProcStats, m.cfg.P),
		Trace:            m.tr,
		MaxInTransitFrom: m.maxOut,
		MaxInTransitTo:   m.maxIn,
		Dropped:          m.dropped,
		Duplicated:       m.duplicated,
	}
	for i, pr := range m.procs {
		pr.stats.Proc = i
		res.Procs[i] = pr.stats
		if pr.stats.Finish > res.Time {
			res.Time = pr.stats.Finish
		}
		res.Messages += pr.stats.MsgsReceived
		if pr.failed {
			res.Failed = append(res.Failed, i)
		}
		if n := pr.Pending(); n > 0 {
			res.Undelivered += n
			if m.faults == nil {
				return res, fmt.Errorf("logp: proc %d finished with %d undelivered messages", i, n)
			}
		}
	}
	if m.met != nil {
		// Close the time series with a final point at the end of the run
		// (unless the sampler already fired at this instant). Stamped with
		// res.Time, not kernel.Now(): a last sampler firing after every
		// processor finished can leave the clock past the true finish time.
		if res.Time > m.lastSample || len(m.met.Samples) == 0 {
			m.takeSample(res.Time)
		}
		m.met.SetSimTime(res.Time)
	}
	return res, nil
}

// kill marks a processor fail-stopped and wakes it if it is blocked waiting
// for a message, so a dead receiver halts immediately instead of deadlocking
// the kernel. A processor blocked elsewhere (capacity stall, barrier) halts
// at its next operation boundary; a barrier that a dead processor never
// reaches deadlocks the survivors, which the kernel reports.
func (m *Machine) kill(proc int) {
	pr := m.procs[proc]
	if pr.failed {
		return
	}
	pr.failed = true
	pr.inboxSig.Broadcast()
}

// Run is a convenience wrapper: build a machine from cfg and run body.
func Run(cfg Config, body func(p *Proc)) (Result, error) {
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(body)
}

// Package logp_test holds the repository benchmark harness: one benchmark
// per table and figure of the paper (each executes the corresponding
// experiment generator and validates its qualitative checks), plus
// microbenchmarks of the simulation substrate itself.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Per-figure simulated results are reported via custom metrics where a
// single number is meaningful (the benchmark wall time measures the
// simulator, not the simulated machine).
package logp_test

import (
	"math/rand"
	"testing"

	"github.com/logp-model/logp/internal/algo/fft"
	"github.com/logp-model/logp/internal/algo/lu"
	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/experiments"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/network"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/service"
	"github.com/logp-model/logp/internal/sim"
)

// runExperiment executes one experiment per iteration and fails the
// benchmark if any of the figure's qualitative checks fail.
func runExperiment(b *testing.B, f func(experiments.Scale) experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep := f(1)
		for _, c := range rep.Failed() {
			b.Fatalf("%s: check %q failed: %s", rep.ID, c.Name, c.Detail)
		}
	}
}

func fixed(f func() experiments.Report) func(experiments.Scale) experiments.Report {
	return func(experiments.Scale) experiments.Report { return f() }
}

// --- One benchmark per table and figure (Deliverable d).

func BenchmarkFig2MicroprocessorTrends(b *testing.B) { runExperiment(b, fixed(experiments.Fig2)) }
func BenchmarkFig3OptimalBroadcast(b *testing.B)     { runExperiment(b, fixed(experiments.Fig3)) }
func BenchmarkFig4OptimalSummation(b *testing.B)     { runExperiment(b, fixed(experiments.Fig4)) }
func BenchmarkFig5HybridLayout(b *testing.B)         { runExperiment(b, fixed(experiments.Fig5)) }
func BenchmarkFig6FFTRemapSchedules(b *testing.B)    { runExperiment(b, experiments.Fig6) }
func BenchmarkFig7FFTComputeRates(b *testing.B)      { runExperiment(b, experiments.Fig7) }
func BenchmarkFig8CommunicationRates(b *testing.B)   { runExperiment(b, experiments.Fig8) }
func BenchmarkTableAvgDistance(b *testing.B) {
	runExperiment(b, fixed(experiments.TableAvgDistance))
}
func BenchmarkTable1UnloadedTime(b *testing.B)  { runExperiment(b, fixed(experiments.Table1)) }
func BenchmarkNetworkSaturation(b *testing.B)   { runExperiment(b, experiments.NetworkSaturation) }
func BenchmarkCapacitySaturation(b *testing.B)  { runExperiment(b, experiments.CapacitySaturation) }
func BenchmarkLULayouts(b *testing.B)           { runExperiment(b, experiments.LULayouts) }
func BenchmarkSortAlgorithms(b *testing.B)      { runExperiment(b, experiments.SortComparison) }
func BenchmarkConnectedComponents(b *testing.B) { runExperiment(b, experiments.CCStudy) }
func BenchmarkModelComparison(b *testing.B)     { runExperiment(b, fixed(experiments.ModelComparison)) }
func BenchmarkCapacityAblation(b *testing.B)    { runExperiment(b, fixed(experiments.CapacityAblation)) }
func BenchmarkBroadcastScheduleSweep(b *testing.B) {
	runExperiment(b, fixed(experiments.BroadcastSweep))
}
func BenchmarkMultithreadingLimits(b *testing.B) {
	runExperiment(b, fixed(experiments.Multithreading))
}
func BenchmarkLongMessages(b *testing.B)    { runExperiment(b, fixed(experiments.LongMessages)) }
func BenchmarkSurfaceToVolume(b *testing.B) { runExperiment(b, experiments.SurfaceToVolume) }

// --- Substrate microbenchmarks: how fast the simulators themselves run.

// BenchmarkKernelEventThroughput measures raw discrete-event dispatch: a
// self-rescheduling event chain of 100k events.
func BenchmarkKernelEventThroughput(b *testing.B) {
	const events = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < events {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkMachineMessageThroughput measures simulated messages per second
// through the full LogP cost machinery (gap, capacity, overhead). The
// goroutine machine runs once per construction, so each machine is built
// with the timer stopped and only the run itself is measured; payloads are
// nil so the loop doesn't time 16k payload boxings per iteration.
func BenchmarkMachineMessageThroughput(b *testing.B) {
	const msgs = 2000
	cfg := logp.Config{Params: core.Params{P: 8, L: 20, O: 2, G: 4}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := logp.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(func(p *logp.Proc) {
			next := (p.ID() + 1) % p.P()
			for m := 0; m < msgs; m++ {
				p.Send(next, 0, nil)
			}
			for m := 0; m < msgs; m++ {
				p.Recv()
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs*8*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// benchRing is the flat-engine counterpart of the workload above in
// reactive logp.Program form: every processor streams msgs messages to its
// ring successor and finishes after msgs receptions. Start re-initialises
// the per-processor count, so the program re-runs on a reused machine.
type benchRing struct {
	msgs int
	got  []int
}

func (r *benchRing) Start(n logp.Node) {
	me := n.ID()
	r.got[me] = 0
	next := (me + 1) % n.P()
	for i := 0; i < r.msgs; i++ {
		n.Send(next, 0, nil)
	}
}

func (r *benchRing) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	r.got[me]++
	if r.got[me] == r.msgs {
		n.Done()
	}
}

// BenchmarkFlatMachineMessageThroughput is the identical machine and
// workload on the goroutine-free flat engine: same LogP parameters, same
// capacity limit, same per-message cost charges (the engines are pinned
// cycle-identical by the cross-engine tests in internal/flat). The machine
// is built once and re-Run, so iterations measure steady-state messaging.
func BenchmarkFlatMachineMessageThroughput(b *testing.B) {
	const msgs, procs = 2000, 8
	cfg := logp.Config{Params: core.Params{P: procs, L: 20, O: 2, G: 4}}
	m, err := flat.New(cfg, &benchRing{msgs: msgs, got: make([]int, procs)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Messages != msgs*procs {
			b.Fatalf("delivered %d messages, want %d", res.Messages, msgs*procs)
		}
	}
	b.ReportMetric(float64(msgs*procs*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkFlatShardedMessageThroughput runs the ring flood on the windowed
// parallel core: P=256 processors over 8 shards with the o+L conservative
// lookahead (capacity off — capacity semaphores couple shards).
func BenchmarkFlatShardedMessageThroughput(b *testing.B) {
	const msgs, procs, shards = 200, 256, 8
	cfg := logp.Config{
		Params:          core.Params{P: procs, L: 20, O: 2, G: 4},
		DisableCapacity: true,
	}
	m, err := flat.New(cfg, &benchRing{msgs: msgs, got: make([]int, procs)}, shards)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Messages != msgs*procs {
			b.Fatalf("delivered %d messages, want %d", res.Messages, msgs*procs)
		}
	}
	b.ReportMetric(float64(msgs*procs*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkFlatBroadcastP100k pins the scale target: the optimal broadcast
// tree over 10^5 processors on the flat engine, one full machine run per
// iteration (construction included — at this P the run itself dominates).
func BenchmarkFlatBroadcastP100k(b *testing.B) {
	const procs = 100_000
	params := core.Params{P: procs, L: 8, O: 2, G: 3}
	sched, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := logp.Config{Params: params, DisableCapacity: true}
	m, err := flat.New(cfg, progs.NewBroadcast(sched, 1, "datum"), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Messages != procs-1 {
			b.Fatalf("delivered %d messages, want %d", res.Messages, procs-1)
		}
	}
	b.ReportMetric(float64((procs-1)*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkHeapPushPop measures the typed 4-ary event heap in isolation: a
// reverse-time burst of schedules followed by a full drain. Steady-state
// push/pop must not allocate (the backing slice is pooled and reused).
func BenchmarkHeapPushPop(b *testing.B) {
	const events = 10_000
	b.ReportAllocs()
	n := 0
	count := func() { n++ }
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		for j := events; j > 0; j-- { // reverse order: worst-case sift-up
			k.At(sim.Time(j), count)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if n != events*b.N {
		b.Fatalf("ran %d events, want %d", n, events*b.N)
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkContextSwitch measures the kernel<->process handoff: two
// processes alternating via Yield, which always forces a real park (the
// in-place clock advance cannot elide it). Each Yield is one round trip —
// two goroutine switches — and must not allocate.
func BenchmarkContextSwitch(b *testing.B) {
	const yields = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		for p := 0; p < 2; p++ {
			k.Spawn("spinner", func(p *sim.Process) {
				for j := 0; j < yields; j++ {
					p.Yield()
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*yields*b.N)/b.Elapsed().Seconds(), "switches/s")
}

// BenchmarkProcessWait measures the elided-park fast path: a lone process
// advancing its clock. No events, no parks, no allocations.
func BenchmarkProcessWait(b *testing.B) {
	const waits = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		k.Spawn("clock", func(p *sim.Process) {
			for j := 0; j < waits; j++ {
				p.Wait(3)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(waits*b.N)/b.Elapsed().Seconds(), "waits/s")
}

// BenchmarkOptimalBroadcastConstruction measures the schedule builder at a
// thousand processors.
func BenchmarkOptimalBroadcastConstruction(b *testing.B) {
	p := core.Params{P: 1024, L: 200, O: 66, G: 132}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimalBroadcast(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialFFT measures the local FFT kernel (the per-processor
// work of the parallel phases).
func BenchmarkSequentialFFT(b *testing.B) {
	x := make([]complex128, 1<<14)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(x) * 16))
	for i := 0; i < b.N; i++ {
		buf := append([]complex128(nil), x...)
		if err := fft.Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelFFTSimulation measures a full simulated hybrid FFT run.
func BenchmarkParallelFFTSimulation(b *testing.B) {
	x := make([]complex128, 1<<12)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cfg := fft.Config{N: len(x), Machine: fft.CM5Machine(16), Cost: fft.CM5Cost(), Schedule: fft.StaggeredSchedule}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fft.Run(cfg, append([]complex128(nil), x...)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialLU measures the dense factorization kernel.
func BenchmarkSequentialLU(b *testing.B) {
	a := lu.Random(128, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lu.Factor(a.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketSimulator measures the packet-level network simulator.
func BenchmarkPacketSimulator(b *testing.B) {
	top := network.Mesh2D(8, 8, true)
	cfg := network.LoadConfig{RouterDelay: 2, Load: 0.2, Pattern: network.UniformTraffic, Horizon: 2000, Warmup: 400, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := network.RunLoad(top, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveBarrier measures the message-based dissemination
// barrier on 64 simulated processors.
func BenchmarkCollectiveBarrier(b *testing.B) {
	cfg := logp.Config{Params: core.Params{P: 64, L: 20, O: 2, G: 4}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := logp.Run(cfg, func(p *logp.Proc) {
			for r := 0; r < 4; r++ {
				collective.Barrier(p, 100+r*10)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlapFFT(b *testing.B) { runExperiment(b, fixed(experiments.OverlapFFT)) }

func BenchmarkPatternGaps(b *testing.B)    { runExperiment(b, experiments.PatternGaps) }
func BenchmarkParameterSpace(b *testing.B) { runExperiment(b, fixed(experiments.ParameterSpace)) }

func BenchmarkPRAMEmulation(b *testing.B) { runExperiment(b, fixed(experiments.PRAMEmulation)) }
func BenchmarkRobustness(b *testing.B)    { runExperiment(b, fixed(experiments.Robustness)) }

func BenchmarkBSPComparison(b *testing.B) { runExperiment(b, experiments.BSPComparison) }

func BenchmarkActiveMessages(b *testing.B) { runExperiment(b, fixed(experiments.ActiveMessages)) }

// --- Profiler hook overhead (the recorder must be free when off).

// ringExchange is the message-throughput workload: every processor streams
// msgs messages to its ring successor, then drains its own msgs receptions.
// Payloads are nil so the recorder-off steady state allocates nothing per
// message (boxing a non-pointer payload into the Message's any field is the
// caller's allocation, not the machine's).
func ringExchange(msgs int) func(p *logp.Proc) {
	return func(p *logp.Proc) {
		next := (p.ID() + 1) % p.P()
		for m := 0; m < msgs; m++ {
			p.Send(next, 0, nil)
		}
		for m := 0; m < msgs; m++ {
			p.Recv()
		}
	}
}

func benchSendRecv(b *testing.B, rec *prof.Recorder) {
	const msgs = 2000
	cfg := logp.Config{Params: core.Params{P: 8, L: 20, O: 2, G: 4}, Profiler: rec}
	body := ringExchange(msgs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := logp.Run(cfg, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs*8*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkSendRecvRecorderOff measures Send/Recv with profiling off: the
// nil-checked hooks must leave the zero-allocation hot path untouched.
func BenchmarkSendRecvRecorderOff(b *testing.B) { benchSendRecv(b, nil) }

// BenchmarkSendRecvRecorderOn measures the same workload with the causal
// profiler recording every operation (the recorder is reused, so its op
// storage reaches a steady state too).
func BenchmarkSendRecvRecorderOn(b *testing.B) { benchSendRecv(b, prof.NewRecorder()) }

// --- Metrics hook overhead (the registry must be free when off).

func benchSendRecvMetrics(b *testing.B, reg *metrics.Registry) {
	const msgs = 2000
	cfg := logp.Config{Params: core.Params{P: 8, L: 20, O: 2, G: 4}, Metrics: reg}
	body := ringExchange(msgs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := logp.Run(cfg, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs*8*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkSendRecvMetricsOff measures Send/Recv with metrics off: the
// nil-checked hooks must leave the zero-allocation hot path untouched.
func BenchmarkSendRecvMetricsOff(b *testing.B) { benchSendRecvMetrics(b, nil) }

// BenchmarkSendRecvMetricsOn measures the same workload with the metrics
// registry attached and sampling at the default interval (the registry is
// reused across runs, so its sample storage reaches a steady state too).
func BenchmarkSendRecvMetricsOn(b *testing.B) { benchSendRecvMetrics(b, metrics.NewRegistry()) }

// --- Daemon response encoding.

// BenchmarkResponseEncode times Response.Encode, the encode stage of every
// daemon cache miss, on two fixed bodies: a P=64 all-to-all with its metrics
// block, and a P=64 broadcast without one.
func BenchmarkResponseEncode(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec service.JobSpec
	}{
		{"alltoall-P64-metrics", service.JobSpec{Program: "alltoall", Metrics: &service.MetricsSpec{Include: true},
			Machine: service.MachineSpec{P: 64, L: 12, O: 2, G: 4, LatencyJitter: 2}}},
		{"broadcast-P64", service.JobSpec{Program: "broadcast",
			Machine: service.MachineSpec{P: 64, L: 12, O: 2, G: 4, LatencyJitter: 2}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			resp, err := service.Run(bc.spec)
			if err != nil {
				b.Fatal(err)
			}
			var body []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if body, err = resp.Encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body))/1024, "body_kb")
		})
	}
}

// TestSendRecvZeroAllocPerMessage pins the zero-allocation claim: with the
// recorder disabled, the steady-state cost of a message is zero heap
// allocations. Per-run setup (machine, processes, freelist warm-up) is
// amortized out by differencing two message counts.
func TestSendRecvZeroAllocPerMessage(t *testing.T) {
	cfg := logp.Config{Params: core.Params{P: 4, L: 20, O: 2, G: 4}}
	run := func(msgs int) func() {
		body := ringExchange(msgs)
		return func() {
			if _, err := logp.Run(cfg, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	const small, large = 500, 2500
	base := testing.AllocsPerRun(10, run(small))
	grown := testing.AllocsPerRun(10, run(large))
	perMsg := (grown - base) / float64((large-small)*cfg.P)
	if perMsg > 0.01 {
		t.Errorf("steady-state messaging allocates %.4f allocs/message with the recorder off, want 0", perMsg)
	}
}

// TestMetricsOffZeroAllocPerMessage is the same differencing argument for the
// metrics subsystem: with Config.Metrics nil, the per-message cost of the
// counter and sampler hooks must be zero heap allocations.
func TestMetricsOffZeroAllocPerMessage(t *testing.T) {
	cfg := logp.Config{Params: core.Params{P: 4, L: 20, O: 2, G: 4}, Metrics: nil}
	run := func(msgs int) func() {
		body := ringExchange(msgs)
		return func() {
			if _, err := logp.Run(cfg, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	const small, large = 500, 2500
	base := testing.AllocsPerRun(10, run(small))
	grown := testing.AllocsPerRun(10, run(large))
	perMsg := (grown - base) / float64((large-small)*cfg.P)
	if perMsg > 0.01 {
		t.Errorf("steady-state messaging allocates %.4f allocs/message with metrics off, want 0", perMsg)
	}
}

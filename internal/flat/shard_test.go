package flat_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/sim"
)

// shardedConfig is a machine the sharded core accepts: capacity disabled, no
// jitter, no faults, no trace or profiler.
func shardedConfig(p int) logp.Config {
	return logp.Config{
		Params:          core.Params{P: p, L: 8, O: 2, G: 3},
		DisableCapacity: true,
	}
}

// clearTransit zeroes the in-transit high-water marks, which sharded runs do
// not track (documented in flat.New): the rest of the Result must agree.
func clearTransit(r logp.Result) logp.Result {
	r.MaxInTransitFrom, r.MaxInTransitTo = 0, 0
	return r
}

// TestShardedMatchesSequential pins the windowed core against the sequential
// flat core (and transitively the goroutine machine) on the ported
// benchmarks: identical times, stats, and message counts for every shard
// count that divides the run differently.
func TestShardedMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		p    int
		mk   func(p int) logp.Program
	}{
		{"broadcast", 32, func(p int) logp.Program {
			s, err := core.OptimalBroadcast(core.Params{P: p, L: 8, O: 2, G: 3}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return newBroadcast(s, 1, "datum")
		}},
		{"pingpong", 16, func(p int) logp.Program { return newPingPong(12) }},
		{"alltoall", 12, func(p int) logp.Program { return newAllToAll(p, 3, 1, 2, true) }},
		{"chain", 24, func(p int) logp.Program { return newChain(p, 0, 3, 6, func(i int) any { return i }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardedConfig(tc.p)
			seq, err := flat.Run(cfg, tc.mk(tc.p), 1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			gor, err := logp.RunProgram(cfg, tc.mk(tc.p))
			if err != nil {
				t.Fatalf("goroutine: %v", err)
			}
			if !reflect.DeepEqual(seq, gor) {
				t.Errorf("flat(1) vs goroutine differ:\n flat:      %+v\n goroutine: %+v", seq, gor)
			}
			want := clearTransit(seq)
			for _, shards := range []int{2, 3, 4, 8} {
				got, err := flat.Run(cfg, tc.mk(tc.p), shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(clearTransit(got), want) {
					t.Errorf("shards=%d differs from sequential:\n sharded:    %+v\n sequential: %+v",
						shards, clearTransit(got), want)
				}
			}
		})
	}
}

// TestShardedBitDeterminism: at a fixed shard count, the run — Result,
// Prometheus text, and the sample series — is bit-identical for every
// GOMAXPROCS setting. This is the determinism contract of the windowed core:
// OS-thread scheduling must not be observable.
func TestShardedBitDeterminism(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	p := 24
	s, err := core.OptimalBroadcast(core.Params{P: p, L: 8, O: 2, G: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (logp.Result, []byte, []metrics.Sample) {
		cfg := shardedConfig(p)
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		cfg.MetricsEvery = 16
		res, err := flat.Run(cfg, newBroadcast(s, 1, "datum"), 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), append([]metrics.Sample(nil), reg.Samples...)
	}

	runtime.GOMAXPROCS(1)
	res1, prom1, samp1 := run()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		res, prom, samp := run()
		if !reflect.DeepEqual(res, res1) {
			t.Errorf("GOMAXPROCS=%d: Result differs from GOMAXPROCS=1", procs)
		}
		if !bytes.Equal(prom, prom1) {
			t.Errorf("GOMAXPROCS=%d: Prometheus text differs from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(samp, samp1) {
			t.Errorf("GOMAXPROCS=%d: sample series differs from GOMAXPROCS=1", procs)
		}
	}
}

// parkAhead is the regression program for a send whose overhead park spans
// a window barrier: proc 0 idles, then sends to proc 1, so the o-cycle park
// of the send crosses the window boundary at o+L past the global minimum;
// proc 1 advances its own clock (WaitUntil / Wait / Compute, by mode)
// before receiving, so its shard runs ahead of the late delivery. Every
// other processor finishes immediately, padding the machine so partitions
// place sender and receiver on different shards.
type parkAhead struct {
	idle  int64 // proc 0: Wait before the send
	mode  int   // proc 1: 0 WaitUntil(ahead), 1 Wait(ahead), 2 Compute(ahead)
	ahead int64
}

func (pa *parkAhead) Start(n logp.Node) {
	switch n.ID() {
	case 0:
		n.Wait(pa.idle)
		n.Send(1, 7, "late")
		n.Done()
	case 1:
		switch pa.mode {
		case 0:
			n.WaitUntil(pa.ahead)
		case 1:
			n.Wait(pa.ahead)
		default:
			n.Compute(pa.ahead)
		}
	default:
		n.Done()
	}
}

func (pa *parkAhead) Message(n logp.Node, m logp.Message) { n.Done() }

// TestShardedSendParkSpansBarrier pins the lookahead soundness fix: a send
// that paid its overhead across a window barrier has only L (not o+L)
// cycles of lookahead left when its wake fires, so its cross-shard delivery
// must be buffered at park time, not at injection. Before the fix the
// sharded core scheduled the delivery in the destination shard's past and
// panicked ("scheduling event at t before current time"); the exact
// reproduction is P=2, o=3, L=1, g=4 with proc 0 Wait(3)+Send and proc 1
// WaitUntil(9).
func TestShardedSendParkSpansBarrier(t *testing.T) {
	cases := []struct {
		name   string
		p      int
		params core.Params
		prog   parkAhead
		shards []int
	}{
		{"waituntil-repro", 2, core.Params{P: 2, L: 1, O: 3, G: 4},
			parkAhead{idle: 3, mode: 0, ahead: 9}, []int{2}},
		{"wait-ahead", 2, core.Params{P: 2, L: 1, O: 3, G: 4},
			parkAhead{idle: 3, mode: 1, ahead: 9}, []int{2}},
		{"compute-ahead", 2, core.Params{P: 2, L: 1, O: 3, G: 4},
			parkAhead{idle: 3, mode: 2, ahead: 9}, []int{2}},
		{"zero-latency", 2, core.Params{P: 2, L: 0, O: 3, G: 4},
			parkAhead{idle: 3, mode: 0, ahead: 9}, []int{2}},
		{"wide-machine", 8, core.Params{P: 8, L: 1, O: 3, G: 4},
			parkAhead{idle: 3, mode: 0, ahead: 9}, []int{2, 3, 4, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := logp.Config{Params: tc.params, DisableCapacity: true}
			pa := tc.prog
			seq, err := flat.Run(cfg, &pa, 1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			gor, err := logp.RunProgram(cfg, &pa)
			if err != nil {
				t.Fatalf("goroutine: %v", err)
			}
			if !reflect.DeepEqual(seq, gor) {
				t.Errorf("flat(1) vs goroutine differ:\n flat:      %+v\n goroutine: %+v", seq, gor)
			}
			want := clearTransit(seq)
			for _, shards := range tc.shards {
				got, err := flat.Run(cfg, &pa, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(clearTransit(got), want) {
					t.Errorf("shards=%d differs from sequential:\n sharded:    %+v\n sequential: %+v",
						shards, clearTransit(got), want)
				}
			}
		})
	}
}

// TestShardedRejectsUnsupportedConfig: the windowed core refuses
// configurations whose cross-shard safety argument does not hold.
func TestShardedRejectsUnsupportedConfig(t *testing.T) {
	base := shardedConfig(8)
	cases := []struct {
		name   string
		mutate func(*logp.Config)
	}{
		{"trace", func(c *logp.Config) { c.CollectTrace = true }},
		{"latency-jitter", func(c *logp.Config) { c.LatencyJitter = 3 }},
		{"compute-jitter", func(c *logp.Config) { c.ComputeJitter = 0.5 }},
		{"drop-faults", func(c *logp.Config) { c.Faults = &logp.FaultPlan{Default: logp.LinkFault{Drop: 0.1}} }},
		{"dup-faults", func(c *logp.Config) { c.Faults = &logp.FaultPlan{Default: logp.LinkFault{Dup: 0.1}} }},
		{"jitter-faults", func(c *logp.Config) { c.Faults = &logp.FaultPlan{Default: logp.LinkFault{Jitter: 2}} }},
		{"slowdown-faults", func(c *logp.Config) {
			c.Faults = &logp.FaultPlan{Slowdowns: []logp.Slowdown{{Proc: 0, Start: 0, End: 10, Factor: 2}}}
		}},
		{"zero-lookahead-nocap", func(c *logp.Config) { c.Params.L, c.Params.O, c.Params.G = 0, 0, 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := flat.Run(cfg, newPingPong(2), 2); err == nil {
				t.Errorf("sharded run accepted unsupported config %q", tc.name)
			}
		})
	}
	// Capacity mode is accepted at any shard count (it runs the sequential
	// kernel; see TestCapShardedMatchesSequential), and fail-stop-only fault
	// plans are supported under sharding (a kill is a victim-shard event).
	accepts := []struct {
		name   string
		mutate func(*logp.Config)
	}{
		{"capacity", func(c *logp.Config) { c.DisableCapacity = false }},
		{"capacity-zero-lookahead", func(c *logp.Config) {
			c.DisableCapacity = false
			c.Params.L, c.Params.O, c.Params.G = 0, 0, 1
		}},
		{"fail-stop-faults", func(c *logp.Config) {
			c.Faults = &logp.FaultPlan{FailStops: []logp.FailStop{{Proc: 3, At: 1000}}}
		}},
	}
	for _, tc := range accepts {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := flat.Run(cfg, newPingPong(2), 2); err != nil {
				t.Errorf("sharded run rejected supported config %q: %v", tc.name, err)
			}
		})
	}
	// The rejected configs are fine on one shard.
	cfg := base
	cfg.CollectTrace = true
	if _, err := flat.Run(cfg, newPingPong(2), 1); err != nil {
		t.Errorf("sequential flat rejected supported config: %v", err)
	}
}

// runCapacity runs mk under cfg with metrics sampled every 8 cycles and the
// flight recorder on, asking for the given shard count, and returns what
// the one-shard rule compares: the Result, the error text, the Prometheus
// text, the sample series and the number of shards the machine has.
func runCapacity(t *testing.T, cfg logp.Config, mk func() logp.Program, shards int) (logp.Result, string, []byte, []metrics.Sample, int) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Metrics, cfg.MetricsEvery = reg, 8
	m, err := flat.New(cfg, mk(), shards)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	m.EnableFlightRecorder()
	res, err := m.Run()
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return res, errText, buf.Bytes(), reg.Samples, len(m.ShardStats())
}

// checkOneShard pins the one-shard rule on a capacity-on case: asked for 2,
// 3, 4 or 8 shards, flat.New builds the sequential kernel — one ShardStats
// row — and the run equals the shards=1 run in Result, error text,
// Prometheus bytes and sample series (exact in-flight gauges included).
func checkOneShard(t *testing.T, tc capCase) {
	t.Helper()
	want, wantErr, wantProm, wantSamples, _ := runCapacity(t, tc.cfg, tc.mk, 1)
	for _, shards := range []int{2, 3, 4, 8} {
		res, errText, prom, samples, rows := runCapacity(t, tc.cfg, tc.mk, shards)
		if rows != 1 {
			t.Errorf("shards=%d: %d ShardStats rows, want 1", shards, rows)
		}
		if errText != wantErr || !reflect.DeepEqual(res, want) {
			t.Errorf("shards=%d differs from shards=1:\n got:  %+v %q\n want: %+v %q", shards, res, errText, want, wantErr)
		}
		if !bytes.Equal(prom, wantProm) {
			t.Errorf("shards=%d: Prometheus text differs from shards=1", shards)
		}
		if !reflect.DeepEqual(samples, wantSamples) {
			t.Errorf("shards=%d: sample series differs from shards=1", shards)
		}
	}
}

// TestCapShardedMatchesSequential: with the capacity constraint on, a
// sharded request runs the sequential kernel on the capacity corners (see
// capacityCorners), errors included.
func TestCapShardedMatchesSequential(t *testing.T) {
	for _, tc := range capacityCorners(t) {
		t.Run(tc.name, func(t *testing.T) { checkOneShard(t, tc) })
	}
}

// TestCapShardedStallSpansBarrier applies the one-shard rule to stalls that
// outlast several L-cycle spans (see capacityStalls).
func TestCapShardedStallSpansBarrier(t *testing.T) {
	for _, tc := range capacityStalls() {
		t.Run(tc.name, func(t *testing.T) { checkOneShard(t, tc) })
	}
}

// TestCapShardedFailStopHoldingCapacity applies the one-shard rule to
// fail-stops of processors that hold reserved capacity (see
// capacityFailStops).
func TestCapShardedFailStopHoldingCapacity(t *testing.T) {
	for _, tc := range capacityFailStops() {
		t.Run(tc.name, func(t *testing.T) { checkOneShard(t, tc) })
	}
}

// TestCapShardedPrometheusMatchesSequential: with the capacity constraint on
// and no flight recorder, a sharded request renders the whole counter and
// histogram surface — sends, receptions, deliveries, stall events and
// cycles, the stall and flight histograms, the traffic matrix — as
// byte-identical Prometheus text to shards=1, and samples the same series.
// The unstaggered all-to-all (every processor walks the destinations in the
// same order) stalls on capacity, so the stall families carry data; the
// staggered one does not stall at these parameters.
func TestCapShardedPrometheusMatchesSequential(t *testing.T) {
	params := core.Params{P: 12, L: 8, O: 2, G: 3}
	run := func(shards int) ([]byte, []metrics.Sample, int64) {
		reg := metrics.NewRegistry()
		cfg := logp.Config{Params: params, Metrics: reg, MetricsEvery: 8}
		if _, err := flat.Run(cfg, newAllToAll(12, 3, 1, 2, false), shards); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var stalls int64
		for i := range reg.Procs {
			stalls += reg.Procs[i].StallEvents.Value()
		}
		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), reg.Samples, stalls
	}
	promSeq, sampSeq, stalls := run(1)
	if stalls == 0 {
		t.Fatal("the all-to-all never stalled on capacity; the comparison would not cover the stall families")
	}
	for _, shards := range []int{2, 3, 4, 6} {
		prom, samp, _ := run(shards)
		if !bytes.Equal(prom, promSeq) {
			t.Errorf("shards=%d Prometheus text differs from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s", shards, promSeq, shards, prom)
		}
		if !reflect.DeepEqual(samp, sampSeq) {
			t.Errorf("shards=%d sample series differs from shards=1", shards)
		}
	}
}

// TestFlatMetricsDeadlockStillDetected is the flat-core mirror of the
// goroutine regression test: an attached metrics sampler must not keep the
// event queue non-quiescent forever and mask a deadlock.
func TestFlatMetricsDeadlockStillDetected(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := logp.Config{
			Params:          core.Params{P: 2, L: 8, O: 2, G: 3},
			DisableCapacity: true,
			Metrics:         metrics.NewRegistry(),
			MetricsEvery:    4,
		}
		// Proc 1 expects a message nobody sends.
		_, err := flat.Run(cfg, newRingExpect(0, []int{0, 1}), shards)
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("shards=%d: want DeadlockError, got %v", shards, err)
		}
		if len(dl.Blocked) != 1 || dl.Blocked[0] != "proc1" {
			t.Errorf("shards=%d: blocked = %v, want [proc1]", shards, dl.Blocked)
		}
	}
}

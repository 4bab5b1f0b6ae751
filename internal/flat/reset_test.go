package flat_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/prof"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/topo"
)

// The machine-reuse contract behind the daemon's shape-keyed pool: a
// machine that ran under one config and is then Reset to another produces
// exactly what a fresh flat.New with the second config produces — Result,
// trace, profile, metrics and the program's own output — for every registry
// program.

// resetCfg is one step of a Reset chain: a config without observers, plus
// which fresh observers to attach to each machine that runs it.
type resetCfg struct {
	name                 string
	cfg                  logp.Config
	trace, prof, metrics bool
}

// outcome is everything one run produces that Reset must reproduce.
type outcome struct {
	res     logp.Result
	err     string
	ops     [][]prof.Op
	prom    []byte
	samples []metrics.Sample
	output  map[string]float64
}

// attach returns the step's config with fresh observers.
func (c resetCfg) attach() (logp.Config, *prof.Recorder, *metrics.Registry) {
	cfg := c.cfg
	cfg.CollectTrace = c.trace
	var rec *prof.Recorder
	var reg *metrics.Registry
	if c.prof {
		rec = prof.NewRecorder()
		cfg.Profiler = rec
	}
	if c.metrics {
		reg = metrics.NewRegistry()
		cfg.Metrics, cfg.MetricsEvery = reg, 16
	}
	return cfg, rec, reg
}

// runStep seats step c on m (or builds a fresh machine when m is nil) with a
// fresh instance of program name, runs it and collects the outcome. It
// returns the machine it ran.
func runStep(t *testing.T, m *flat.Machine, name string, c resetCfg, shards int) (*flat.Machine, outcome) {
	t.Helper()
	cfg, rec, reg := c.attach()
	inst, err := progs.Build(name, cfg.Params, progs.Args{})
	if err != nil {
		t.Fatalf("%s/%s: build: %v", name, c.name, err)
	}
	if m == nil {
		m, err = flat.New(cfg, inst.Prog, shards)
	} else {
		err = m.Reset(cfg, inst.Prog)
	}
	if err != nil {
		t.Fatalf("%s/%s: seat: %v", name, c.name, err)
	}
	var out outcome
	out.res, err = m.Run()
	if err != nil {
		out.err = err.Error()
	} else {
		out.output = inst.Output()
	}
	if rec != nil {
		for p := 0; p < cfg.P; p++ {
			out.ops = append(out.ops, append([]prof.Op(nil), rec.Ops(p)...))
		}
	}
	if reg != nil {
		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		out.prom, out.samples = buf.Bytes(), reg.Samples
	}
	return m, out
}

// checkResetChain runs every registry program through the chain on one
// reused machine — built for the first step, then Reset to each later step
// and finally back to the first — and compares each reused run with a fresh
// machine built for that step.
func checkResetChain(t *testing.T, shards int, chain []resetCfg) {
	for _, name := range progs.Names() {
		m, _ := runStep(t, nil, name, chain[0], shards)
		for i := 1; i <= len(chain); i++ {
			c := chain[i%len(chain)]
			_, want := runStep(t, nil, name, c, shards)
			_, got := runStep(t, m, name, c, shards)
			if !reflect.DeepEqual(want.res, got.res) || want.err != got.err {
				t.Errorf("%s: reset %s -> %s: Result differs:\n fresh: %+v %q\n reset: %+v %q",
					name, chain[i-1].name, c.name, want.res, want.err, got.res, got.err)
			}
			if !reflect.DeepEqual(want.output, got.output) {
				t.Errorf("%s: reset -> %s: output %v, fresh %v", name, c.name, got.output, want.output)
			}
			if !reflect.DeepEqual(want.ops, got.ops) {
				t.Errorf("%s: reset -> %s: profile differs", name, c.name)
			}
			if !bytes.Equal(want.prom, got.prom) || !reflect.DeepEqual(want.samples, got.samples) {
				t.Errorf("%s: reset -> %s: metrics differ:\n fresh:\n%s\n reset:\n%s", name, c.name, want.prom, got.prom)
			}
		}
	}
}

// TestResetMatchesNew walks the sequential kernel through every config
// class it supports. The chain includes the transitions capacity on → off,
// flat → two-tier and metrics → none.
func TestResetMatchesNew(t *testing.T) {
	base := core.Params{P: 8, L: 12, O: 2, G: 4}
	other := core.Params{P: 8, L: 20, O: 3, G: 5}
	checkResetChain(t, 1, []resetCfg{
		{name: "observed", cfg: logp.Config{Params: base}, trace: true, prof: true, metrics: true},
		{name: "nocap", cfg: logp.Config{Params: base, DisableCapacity: true}},
		{name: "two-tier", cfg: logp.Config{Params: base, Topology: twoTierModel(t, base)}, metrics: true},
		{name: "hold", cfg: logp.Config{Params: base, HoldCapacityUntilReceive: true}, trace: true},
		{name: "jitter-skew", cfg: logp.Config{Params: other, LatencyJitter: 4, ComputeJitter: 0.3,
			ProcSkew: 0.2, Seed: 7}, prof: true},
		{name: "faults", cfg: logp.Config{Params: base, Seed: 3, Faults: &logp.FaultPlan{
			Seed:      11,
			Default:   logp.LinkFault{Drop: 0.05, Dup: 0.1, Jitter: 3},
			FailStops: []logp.FailStop{{Proc: 5, At: 40}},
		}}, trace: true, metrics: true},
		{name: "plain", cfg: logp.Config{Params: base}},
	})
}

// TestResetMatchesNewSharded is the same contract on a 4-shard machine, over
// the configs the windowed kernel admits: capacity off, with metrics,
// two-tier links, skew and fail-stop plans.
func TestResetMatchesNewSharded(t *testing.T) {
	base := core.Params{P: 8, L: 12, O: 2, G: 4}
	other := core.Params{P: 8, L: 20, O: 3, G: 5}
	checkResetChain(t, 4, []resetCfg{
		{name: "metrics", cfg: logp.Config{Params: base, DisableCapacity: true}, metrics: true},
		{name: "plain", cfg: logp.Config{Params: base, DisableCapacity: true}},
		{name: "two-tier", cfg: logp.Config{Params: base, DisableCapacity: true,
			Topology: twoTierModel(t, base)}, metrics: true},
		{name: "skew", cfg: logp.Config{Params: other, DisableCapacity: true, ProcSkew: 0.3, Seed: 5}},
		{name: "fail-stop", cfg: logp.Config{Params: base, DisableCapacity: true, Faults: &logp.FaultPlan{
			FailStops: []logp.FailStop{{Proc: 6, At: 30}},
		}}, metrics: true},
	})
}

// TestResetRejects pins Reset's errors: a config for a different P, every
// invalid config with New's own error — including the restrictions that
// depend on the machine's shard count — and, on a 4-shard machine, the
// capacity constraint, which New would lay out on one shard. A rejected
// Reset leaves the machine as it was.
func TestResetRejects(t *testing.T) {
	base := core.Params{P: 8, L: 12, O: 2, G: 4}
	prog := func() logp.Program { return newAllToAll(8, 2, 1, 3, true) }
	for _, shards := range []int{1, 4} {
		m, err := flat.New(logp.Config{Params: base, DisableCapacity: true}, prog(), shards)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}

		wide := base
		wide.P = 16
		if err := m.Reset(logp.Config{Params: wide}, newAllToAll(16, 2, 1, 3, true)); err == nil {
			t.Errorf("shards=%d: Reset to P=16 on a P=8 machine succeeded", shards)
		}

		tiers16, err := topo.TwoTier(wide, 4, topo.Link{L: 2, O: 1, G: 1})
		if err != nil {
			t.Fatal(err)
		}
		bad := []logp.Config{
			{Params: core.Params{P: 8, L: -1, O: 2, G: 4}},
			{Params: base, LatencyJitter: 13},
			{Params: base, ComputeJitter: -1},
			{Params: base, ProcSkew: -0.5},
			{Params: base, Topology: tiers16},
			{Params: base, Faults: &logp.FaultPlan{FailStops: []logp.FailStop{{Proc: 9}}}},
		}
		if shards > 1 {
			// Valid on one shard, rejected by the windowed kernel.
			bad = append(bad,
				logp.Config{Params: base, DisableCapacity: true, CollectTrace: true},
				logp.Config{Params: base, DisableCapacity: true, LatencyJitter: 2},
				logp.Config{Params: base, DisableCapacity: true,
					Faults: &logp.FaultPlan{Default: logp.LinkFault{Drop: 0.1}}},
				logp.Config{Params: core.Params{P: 8, L: 0, O: 0, G: 1}, DisableCapacity: true},
			)
			// Capacity on: New builds one shard for it, so a 4-shard
			// machine cannot take it.
			if err := m.Reset(logp.Config{Params: base}, prog()); err == nil {
				t.Errorf("shards=%d: Reset to capacity on succeeded", shards)
			}
		}
		for _, cfg := range bad {
			_, newErr := flat.New(cfg, prog(), shards)
			resetErr := m.Reset(cfg, prog())
			if newErr == nil || resetErr == nil || newErr.Error() != resetErr.Error() {
				t.Errorf("shards=%d: config %+v: New error %v, Reset error %v", shards, cfg, newErr, resetErr)
			}
		}

		got, err := m.Run()
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d: run after rejected Resets: %+v, %v; want %+v", shards, got, err, want)
		}
	}
}

// TestResetKeepsAndTrimsStorage pins the storage policy behind the pool:
// re-seating a machine for the same job reuses every buffer (a handful of
// allocations per run, none of them per message), while buffers an earlier,
// larger program grew are dropped once a run no longer needs them.
func TestResetKeepsAndTrimsStorage(t *testing.T) {
	params := core.Params{P: 8, L: 12, O: 2, G: 4}
	build := func(name string) logp.Program {
		inst, err := progs.Build(name, params, progs.Args{})
		if err != nil {
			t.Fatal(err)
		}
		return inst.Prog
	}
	seatRun := func(m *flat.Machine, prog logp.Program) {
		if err := m.Reset(logp.Config{Params: params, Seed: 3}, prog); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := flat.New(logp.Config{Params: params}, build("alltoall"), 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := build("alltoall")
	seatRun(m, prog)
	if allocs := testing.AllocsPerRun(20, func() { seatRun(m, prog) }); allocs > 5 {
		t.Errorf("Reset+Run of a repeated job allocates %.0f times, want at most 5", allocs)
	}

	seatRun(m, build("fftremap"))
	large := m.StorageBytes()
	seatRun(m, build("pingpong")) // still holds the remap's buffers
	seatRun(m, build("pingpong")) // drops them
	small, err := flat.New(logp.Config{Params: params}, build("pingpong"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Run(); err != nil {
		t.Fatal(err)
	}
	// The per-processor buffers go; the per-shard wheel buckets (a few KB
	// per shard) stay.
	if got := m.StorageBytes(); got*4 > large {
		t.Errorf("after small runs the machine keeps %d bytes (fresh small machine %d, after the remap %d)",
			got, small.StorageBytes(), large)
	}
}

// BenchmarkFlatReset compares the two ways the daemon can run a P=256
// staggered all-to-all with compute (its sim-large job): a fresh machine
// per run, and Reset of one machine, which reuses the buffers the previous
// run grew. Both build a fresh program instance per run, as the daemon does.
func BenchmarkFlatReset(b *testing.B) {
	const p = 256
	cfg := func(seed int64) logp.Config {
		return logp.Config{Params: core.Params{P: p, L: 12, O: 2, G: 4}, LatencyJitter: 4, Seed: seed}
	}
	prog := func() logp.Program { return newAllToAll(p, 1, 8, 1, true) }
	run := func(b *testing.B, m *flat.Machine) {
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Messages != p*(p-1) {
			b.Fatalf("delivered %d messages, want %d", res.Messages, p*(p-1))
		}
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := flat.New(cfg(int64(i)), prog(), 1)
			if err != nil {
				b.Fatal(err)
			}
			run(b, m)
		}
	})
	b.Run("reset", func(b *testing.B) {
		m, err := flat.New(cfg(0), prog(), 1)
		if err != nil {
			b.Fatal(err)
		}
		run(b, m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Reset(cfg(int64(i)), prog()); err != nil {
				b.Fatal(err)
			}
			run(b, m)
		}
	})
}

package flat_test

import (
	"reflect"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/topo"
)

// The tiered-machine contract: a topo.Flat topology is cycle-identical to no
// topology at all on both engines, tiered parameters keep the goroutine and
// flat engines pinned to each other (Results, traces, profiles, metrics),
// and the sharded kernel — whose lookahead window shrinks to the minimum
// o+L over all links — reproduces the sequential kernel bit-for-bit at any
// shard count.

// twoTierModel builds the suite's standard tiered machine over base: nodes
// of 4 processors with a (L=2, o=1, g=1) intra-node link.
func twoTierModel(t testing.TB, base core.Params) topo.Model {
	t.Helper()
	m, err := topo.TwoTier(base, 4, topo.Link{L: 2, O: 1, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlatTopologyCycleIdentical pins the backward-compatibility guarantee:
// Config.Topology = topo.Flat(params) and Config.Topology = nil are the same
// machine, cycle for cycle, on both engines, across the representative
// workloads of the equivalence suite (tree schedule, saturating all-to-all
// with capacity stalls, seeded jitter and skew).
func TestFlatTopologyCycleIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  logp.Config
		mk   func(p core.Params) logp.Program
	}{
		{
			name: "broadcast",
			cfg:  logp.Config{Params: core.Params{P: 8, L: 6, O: 2, G: 4}, CollectTrace: true},
			mk: func(p core.Params) logp.Program {
				s, err := core.OptimalBroadcast(p, 0)
				if err != nil {
					t.Fatal(err)
				}
				return newBroadcast(s, 7, "datum")
			},
		},
		{
			name: "alltoall-saturating",
			cfg:  logp.Config{Params: core.Params{P: 6, L: 18, O: 2, G: 3}, CollectTrace: true},
			mk:   func(p core.Params) logp.Program { return newAllToAll(p.P, 4, 1, 9, false) },
		},
		{
			name: "jitter-skew",
			cfg: logp.Config{Params: core.Params{P: 5, L: 20, O: 2, G: 4},
				LatencyJitter: 7, ComputeJitter: 0.3, ProcSkew: 0.2, Seed: 12345, CollectTrace: true},
			mk: func(p core.Params) logp.Program { return newAllToAll(p.P, 3, 2, 5, true) },
		},
	}
	for _, tc := range cases {
		flatCfg := tc.cfg
		flatCfg.Topology = topo.Flat(tc.cfg.Params)
		for _, eng := range []struct {
			name string
			run  func(cfg logp.Config) (logp.Result, error)
		}{
			{"goroutine", func(cfg logp.Config) (logp.Result, error) {
				return logp.RunProgram(cfg, tc.mk(cfg.Params))
			}},
			{"flat", func(cfg logp.Config) (logp.Result, error) {
				return flat.Run(cfg, tc.mk(cfg.Params), 1)
			}},
		} {
			bare, err1 := eng.run(tc.cfg)
			wrapped, err2 := eng.run(flatCfg)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: errors: nil-topology=%v flat-topology=%v", tc.name, eng.name, err1, err2)
			}
			if !reflect.DeepEqual(bare, wrapped) {
				t.Errorf("%s/%s: topo.Flat is not cycle-identical to nil:\n nil:  %+v\n flat: %+v",
					tc.name, eng.name, bare, wrapped)
			}
		}
	}
}

// TestEquivTieredBroadcast pins the engines to each other under a two-tier
// model on a tree schedule, with traces, profiles and metrics compared via
// the shared runBoth harness.
func TestEquivTieredBroadcast(t *testing.T) {
	p := core.Params{P: 8, L: 6, O: 2, G: 4}
	s, err := core.OptimalBroadcast(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: p, CollectTrace: true, Topology: twoTierModel(t, p)}
	runBoth(t, "tiered-broadcast", cfg, func() logp.Program { return newBroadcast(s, 7, "datum") }, true, true)
}

// TestEquivTieredAllToAll drives the capacity semaphores under tiered
// parameters: the saturating all-to-all must stall identically on both
// engines when the links it floods have per-link costs.
func TestEquivTieredAllToAll(t *testing.T) {
	p := core.Params{P: 8, L: 18, O: 2, G: 3}
	cfg := logp.Config{Params: p, CollectTrace: true, Topology: twoTierModel(t, p)}
	g, _ := runBoth(t, "tiered-alltoall", cfg, func() logp.Program { return newAllToAll(p.P, 4, 1, 9, false) }, true, true)
	if g.TotalStall() == 0 {
		t.Error("tiered all-to-all did not stall: capacity path not exercised under topology")
	}
}

// TestEquivThreeTier runs the all-to-all on a three-tier (node/rack/cluster)
// machine with per-processor compute-rate scaling layered on top.
func TestEquivThreeTier(t *testing.T) {
	p := core.Params{P: 8, L: 24, O: 3, G: 5}
	m, err := topo.ThreeTier(p, 2, 2, topo.Link{L: 2, O: 1, G: 1}, topo.Link{L: 8, O: 2, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, p.P)
	for i := range rates {
		rates[i] = 1 + float64(i%3)
	}
	m, err = topo.WithRates(m, rates)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: p, CollectTrace: true, Topology: m}
	runBoth(t, "three-tier-rated", cfg, func() logp.Program { return newAllToAll(p.P, 3, 2, 5, true) }, true, true)
}

// TestTieredShardedDeterminism pins the shrunken lookahead windows: under a
// two-tier model the sharded kernel (capacity off, min o+L window) must
// reproduce the sequential Result at every shard count. Sharded runs report
// the in-transit high-water marks as zero, so those fields are masked.
func TestTieredShardedDeterminism(t *testing.T) {
	p := core.Params{P: 32, L: 16, O: 2, G: 3}
	model := twoTierModel(t, p)
	s, err := core.OptimalBroadcast(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := logp.Config{Params: p, DisableCapacity: true, Topology: model}
	want, err := flat.Run(cfg, newBroadcast(s, 7, "datum"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want.MaxInTransitFrom, want.MaxInTransitTo = 0, 0
	for _, shards := range []int{2, 4, 8} {
		got, err := flat.Run(cfg, newBroadcast(s, 7, "datum"), shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d: sharded result diverges:\n seq:     %+v\n sharded: %+v", shards, want, got)
		}
	}
}

// TestTieredZeroAllocPerMessage extends the zero-alloc invariant to the
// tiered hot path: per-link lookups must not put allocations on the
// per-message path of either kernel.
func TestTieredZeroAllocPerMessage(t *testing.T) {
	const (
		p     = 8
		small = 500
		large = 2500
	)
	base := core.Params{P: p, L: 8, O: 2, G: 3}
	model := twoTierModel(t, base)
	measure := func(msgs int) float64 {
		return testing.AllocsPerRun(10, func() {
			cfg := logp.Config{Params: base, DisableCapacity: true, Topology: model}
			if _, err := flat.Run(cfg, ringFlood(msgs, p), 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocSmall := measure(small)
	allocLarge := measure(large)
	perMsg := (allocLarge - allocSmall) / float64((large-small)*p)
	if perMsg > 0.01 {
		t.Errorf("tiered flat path allocates %.4f allocs/message (small run %.0f, large run %.0f)",
			perMsg, allocSmall, allocLarge)
	}
}

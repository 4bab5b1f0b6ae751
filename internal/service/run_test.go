package service

import (
	"testing"

	"github.com/logp-model/logp/internal/topo"
)

// tieredBroadcastSpec is a two-tier broadcast spec: P=8 with 4-processor
// nodes whose intra-node links are cheaper in all of (L, o, g).
func tieredBroadcastSpec(engine string, shards int) JobSpec {
	return JobSpec{
		Program: "broadcast",
		Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4,
			Topology: &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}},
		Engine: engine,
		Shards: shards,
	}
}

// TestRunTieredSpec runs a tiered spec through the service path on both
// engines and the sharded kernel (which needs the capacity constraint off;
// the broadcast tree sends one message per link, so capacity never binds):
// all three must report the same simulated time, and the tiered machine must
// beat the flat one (uniformly cheaper intra-node links can only help).
func TestRunTieredSpec(t *testing.T) {
	g, err := Run(tieredBroadcastSpec("goroutine", 0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(tieredBroadcastSpec("flat", 0))
	if err != nil {
		t.Fatal(err)
	}
	shardedSpec := tieredBroadcastSpec("flat", 4)
	shardedSpec.Machine.NoCapacity = true
	s, err := Run(shardedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.Shards != 4 {
		t.Fatalf("sharded spec normalized to %d shards, want 4", s.Spec.Shards)
	}
	if g.Result.Time != f.Result.Time || g.Result.Time != s.Result.Time {
		t.Errorf("engines disagree under the tiered model: goroutine %d, flat %d, sharded %d",
			g.Result.Time, f.Result.Time, s.Result.Time)
	}
	if g.Result.Messages != f.Result.Messages || g.Result.Messages != s.Result.Messages {
		t.Errorf("message counts disagree: %d %d %d", g.Result.Messages, f.Result.Messages, s.Result.Messages)
	}

	flatSpec := tieredBroadcastSpec("goroutine", 0)
	flatSpec.Machine.Topology = nil
	flat, err := Run(flatSpec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Result.Time >= flat.Result.Time {
		t.Errorf("tiered broadcast %d should beat the flat machine's %d", g.Result.Time, flat.Result.Time)
	}
	if g.SpecHash == flat.SpecHash {
		t.Error("tiered and flat specs must not share a cache address")
	}
}

package service

import (
	"strings"
	"testing"

	"github.com/logp-model/logp/internal/topo"
)

// specBroadcast8 is the canonical small broadcast spec the tests share.
func specBroadcast8() JobSpec {
	return JobSpec{Program: "broadcast", Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4}}
}

// TestNormalizeCanonicalizes pins the normalization rules that make the hash
// a sound cache key: defaults resolve to fixed values, ignored fields zero,
// no-op blocks drop.
func TestNormalizeCanonicalizes(t *testing.T) {
	s := specBroadcast8()
	s.N = 17                // broadcast takes no size
	s.Work = 5              // only alltoall uses work
	s.Staggered = true      // ditto
	s.Shards = 1            // one shard is the sequential core
	s.Faults = &FaultSpec{} // injects nothing
	s.Metrics = &MetricsSpec{Include: false, Every: 100}
	if err := s.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	base := specBroadcast8()
	if err := base.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if s.Hash() != base.Hash() {
		t.Errorf("normalization did not canonicalize:\n%s\n%s", s.Canonical(), base.Canonical())
	}
	if s.Engine != "goroutine" || s.Seed != 1 || s.N != 0 || s.Work != 0 || s.Staggered ||
		s.Shards != 0 || s.Faults != nil || s.Metrics != nil {
		t.Errorf("unexpected normalized spec: %+v", s)
	}

	sized := JobSpec{Program: "sum", Machine: MachineSpec{P: 8, L: 5, O: 2, G: 4}}
	if err := sized.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if sized.N != 1000 {
		t.Errorf("sum default N = %d, want 1000", sized.N)
	}
}

// TestNormalizeAcceptsCapacitySharded pins the admissible sharded envelope:
// capacity on (the reserve/commit kernel) and fail-stop-only fault plans are
// both legal with shards > 1.
func TestNormalizeAcceptsCapacitySharded(t *testing.T) {
	s := specBroadcast8()
	s.Engine = "flat"
	s.Shards = 4
	s.Faults = &FaultSpec{Fails: []FailStopSpec{{Proc: 3, At: 10}}}
	if err := s.Normalize(Limits{}); err != nil {
		t.Fatalf("capacity-sharded spec with fail-stop rejected: %v", err)
	}
	if s.Machine.NoCapacity || s.Shards != 4 {
		t.Errorf("normalization mangled the spec: %+v", s)
	}
}

// TestNormalizeRejects covers the validation surface.
func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"unknown program", func(s *JobSpec) { s.Program = "nosuch" }, "unknown program"},
		{"bad machine", func(s *JobSpec) { s.Machine.P = 0 }, "at least one processor"},
		{"unknown engine", func(s *JobSpec) { s.Engine = "warp" }, "unknown engine"},
		{"shards on goroutine", func(s *JobSpec) { s.Shards = 4 }, "flat engine only"},
		{"negative n", func(s *JobSpec) { s.Program = "sum"; s.N = -1 }, "negative problem size"},
		{"over P limit", func(s *JobSpec) { s.Machine.P = 3_000_000 }, "exceeds the limit"},
		{"bad drop", func(s *JobSpec) { s.Faults = &FaultSpec{Drop: 1.5} }, "outside [0,1]"},
		{"fail-stop out of range", func(s *JobSpec) {
			s.Faults = &FaultSpec{Fails: []FailStopSpec{{Proc: 99, At: 0}}}
		}, "outside machine"},
		{"sharded with link faults", func(s *JobSpec) {
			s.Engine = "flat"
			s.Shards = 4
			s.Machine.NoCapacity = true
			s.Faults = &FaultSpec{Drop: 0.1}
		}, "fail-stop faults only"},
		{"bad jitter", func(s *JobSpec) { s.Machine.LatencyJitter = 99 }, "latency jitter"},
		{"bad topology", func(s *JobSpec) {
			s.Machine.Topology = &topo.Spec{ProcsPerNode: 99, Node: topo.Link{L: 2, O: 1, G: 1}}
		}, "procs_per_node"},
		{"jitter over node latency", func(s *JobSpec) {
			s.Machine.LatencyJitter = 4
			s.Machine.Topology = &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}
		}, "minimum link latency"},
	}
	for _, tc := range cases {
		s := specBroadcast8()
		tc.mut(&s)
		err := s.Normalize(Limits{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecHashGolden pins the canonical encoding and content hash of
// representative specs. If this test fails, the spec format changed and
// every deployed cache key (and any stored BENCH/replay artifact keyed by
// hash) silently diverges — change the format deliberately or not at all.
func TestSpecHashGolden(t *testing.T) {
	golden := []struct {
		name string
		spec JobSpec
		hash string
	}{
		{
			name: "broadcast-default",
			spec: specBroadcast8(),
			hash: "27274fbbb9d904652e8a888c66e6a72e5120e0fcfa4865118e587aae34915bf1",
		},
		{
			name: "sum-flat",
			spec: JobSpec{Program: "sum", N: 79, Machine: MachineSpec{P: 8, L: 5, O: 2, G: 4}, Engine: "flat"},
			hash: "7dc4ef0c624540acaaf4a73c37e37562896182e8a34ce007a9e2c0f9593d48c2",
		},
		{
			name: "alltoall-sharded",
			spec: JobSpec{Program: "alltoall", N: 2, Work: 3, Staggered: true,
				Machine: MachineSpec{P: 64, L: 8, O: 2, G: 4, NoCapacity: true}, Engine: "flat", Shards: 4},
			hash: "db3bbb80f0e9f347ea1fd6738eca6324e1c1dcfc9e1605cab7be6faec780f781",
		},
		{
			name: "chaos-metrics",
			spec: JobSpec{Program: "pingpong", N: 5, Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}, Seed: 7,
				Faults:  &FaultSpec{Seed: 3, Drop: 0.1, Fails: []FailStopSpec{{Proc: 2, At: 100}}},
				Metrics: &MetricsSpec{Include: true, Every: 50}},
			hash: "8f137332e8e4ae9e26aecd4a4f69031528ebb90d2eb96aa86bc9cfbb1c43b8ad",
		},
		{
			// The Topology block is appended with omitempty precisely so the
			// four flat hashes above survive its introduction; this entry pins
			// the tiered encoding itself.
			name: "broadcast-two-tier",
			spec: JobSpec{Program: "broadcast",
				Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4,
					Topology: &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}}},
			hash: "2212efff485fbc6892c1a027543661cf738cd3fa66637cf2493aa0c4917274cc",
		},
	}
	for _, g := range golden {
		spec := g.spec
		if err := spec.Normalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := spec.Hash(); got != g.hash {
			t.Errorf("%s: hash %s, want %s\ncanonical: %s", g.name, got, g.hash, spec.Canonical())
		}
	}
}

// TestHashDistinguishes checks that every knob that changes the observable
// result also changes the hash.
func TestHashDistinguishes(t *testing.T) {
	base := specBroadcast8()
	if err := base.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"program", func(s *JobSpec) { s.Program = "sum" }},
		{"P", func(s *JobSpec) { s.Machine.P = 9 }},
		{"L", func(s *JobSpec) { s.Machine.L = 7 }},
		{"o", func(s *JobSpec) { s.Machine.O = 3 }},
		{"g", func(s *JobSpec) { s.Machine.G = 5 }},
		{"capacity", func(s *JobSpec) { s.Machine.NoCapacity = true }},
		{"engine", func(s *JobSpec) { s.Engine = "flat" }},
		{"seed", func(s *JobSpec) { s.Seed = 2 }},
		{"faults", func(s *JobSpec) { s.Faults = &FaultSpec{Drop: 0.5} }},
		{"metrics", func(s *JobSpec) { s.Metrics = &MetricsSpec{Include: true} }},
		{"procs", func(s *JobSpec) { s.IncludeProcs = true }},
		{"topology", func(s *JobSpec) {
			s.Machine.Topology = &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}
		}},
		{"topology node link", func(s *JobSpec) {
			s.Machine.Topology = &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 3, O: 1, G: 1}}
		}},
	}
	for _, m := range muts {
		s := specBroadcast8()
		m.mut(&s)
		if err := s.Normalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if s.Hash() == base.Hash() {
			t.Errorf("changing %s did not change the hash", m.name)
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"math"
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
	s.Engine = "goroutine"  // the engine is not part of the simulation
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
	if s.Engine != "" || s.Seed != 1 || s.N != 0 || s.Work != 0 || s.Staggered ||
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

// TestNormalizeAcceptsCapacitySharded pins the one-shard rule at the spec
// level. A capacity-on flat spec asking for 4 shards runs the sequential
// kernel (flat.ShardCount), so it normalizes to shards 0, hashes like the
// shards-0 spec and gets a byte-identical body; the sharded preconditions do
// not apply to it, so jitter and a fail-stop plan are accepted. A
// capacity-off spec hashes by the shard count its machine builds: P=10 asked
// for 6 shards lays out 5 shards of 2 processors.
func TestNormalizeAcceptsCapacitySharded(t *testing.T) {
	seq := JobSpec{Program: "alltoall", Engine: "flat", Staggered: true, Work: 3,
		Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4, LatencyJitter: 2, ComputeJitter: 0.2},
		Faults:  &FaultSpec{Fails: []FailStopSpec{{Proc: 3, At: 5000}}},
		Metrics: &MetricsSpec{Include: true, Every: 8}}
	sharded := seq
	sharded.Shards = 4
	if err := sharded.Normalize(Limits{}); err != nil {
		t.Fatalf("capacity-on spec with shards, jitter and a fail-stop rejected: %v", err)
	}
	if err := seq.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if sharded.Shards != 0 || sharded.Machine.NoCapacity {
		t.Errorf("capacity-on spec normalized to shards %d: %+v", sharded.Shards, sharded)
	}
	if sharded.Hash() != seq.Hash() {
		t.Errorf("capacity-on shards-4 spec hashes apart from shards 0:\n%s\n%s", sharded.Canonical(), seq.Canonical())
	}
	if !bytes.Equal(runBody(t, sharded), runBody(t, seq)) {
		t.Error("capacity-on shards-4 body differs from the shards-0 body")
	}

	wide := JobSpec{Program: "broadcast", Engine: "flat", Shards: 6,
		Machine: MachineSpec{P: 10, L: 6, O: 2, G: 4, NoCapacity: true}}
	five := wide
	five.Shards = 5
	for _, s := range []*JobSpec{&wide, &five} {
		if err := s.Normalize(Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if wide.Shards != 5 || wide.Hash() != five.Hash() {
		t.Errorf("P=10 shards 6 normalized to shards %d, want 5 with the shards-5 hash", wide.Shards)
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
		{"shards on goroutine", func(s *JobSpec) { s.Engine = "goroutine"; s.Shards = 4 }, "flat engine only"},
		{"negative n", func(s *JobSpec) { s.Program = "sum"; s.N = -1 }, "negative problem size"},
		{"over P limit", func(s *JobSpec) { s.Machine.P = 3_000_000 }, "exceeds the limit"},
		{"bad drop", func(s *JobSpec) { s.Faults = &FaultSpec{Drop: 1.5} }, "outside [0,1]"},
		{"NaN drop", func(s *JobSpec) { s.Faults = &FaultSpec{Drop: math.NaN()} }, "outside [0,1]"},
		{"NaN dup", func(s *JobSpec) { s.Faults = &FaultSpec{Dup: math.NaN()} }, "outside [0,1]"},
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
// The sum and all-to-all specs name "flat" to pin that the engine is not
// part of the hash.
func TestSpecHashGolden(t *testing.T) {
	golden := []struct {
		name string
		spec JobSpec
		hash string
	}{
		{
			name: "broadcast-default",
			spec: specBroadcast8(),
			hash: "b92340c203bb1e311a9a849318ef4292a78f9bff0f16fc85692954e76bfcccfa",
		},
		{
			name: "sum-flat",
			spec: JobSpec{Program: "sum", N: 79, Machine: MachineSpec{P: 8, L: 5, O: 2, G: 4}, Engine: "flat"},
			hash: "807905e17af60458a3afbed7b8b465d64697c87e226e5a6b6cdeb9689466070a",
		},
		{
			name: "alltoall-sharded",
			spec: JobSpec{Program: "alltoall", N: 2, Work: 3, Staggered: true,
				Machine: MachineSpec{P: 64, L: 8, O: 2, G: 4, NoCapacity: true}, Engine: "flat", Shards: 4},
			hash: "8117a4be27ea279be35c1abf0588a5854f0f4e79073928e7ace7c9c76314b162",
		},
		{
			name: "chaos-metrics",
			spec: JobSpec{Program: "pingpong", N: 5, Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}, Seed: 7,
				Faults:  &FaultSpec{Seed: 3, Drop: 0.1, Fails: []FailStopSpec{{Proc: 2, At: 100}}},
				Metrics: &MetricsSpec{Include: true, Every: 50}},
			hash: "2f9d1dd6de4d1aa56e09b605e2450191994fefaa04114828ae359a7fdc46f8ef",
		},
		{
			// The Topology block is appended with omitempty precisely so the
			// four flat hashes above survive its introduction; this entry pins
			// the tiered encoding itself.
			name: "broadcast-two-tier",
			spec: JobSpec{Program: "broadcast",
				Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4,
					Topology: &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}}},
			hash: "1d2dc04652422503d4212bad0d43ebf3159dd1de16d3697913a8e98511c972c0",
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
// result also changes the hash, and that the engine, which changes nothing,
// does not.
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

	// The engines are cycle-identical, so the engine a spec names is not a
	// knob: every spelling hashes like the base.
	for _, engine := range []string{"", "goroutine", "flat"} {
		s := specBroadcast8()
		s.Engine = engine
		if err := s.Normalize(Limits{}); err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if s.Hash() != base.Hash() {
			t.Errorf("engine %q hashes apart from the base:\n%s\n%s", engine, s.Canonical(), base.Canonical())
		}
	}
}

// FuzzJobSpec decodes the input into a JobSpec the way the daemon does
// (unknown fields rejected) and normalizes it under small limits, so each
// execution stays cheap. Nothing may panic. An accepted spec must be a fixed
// point of Normalize, its canonical bytes must decode and normalize back to
// the same bytes, and Run on it must return a body or an error. The corpus
// is seeded with the golden-hash specs in their wire form.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"program":"broadcast","machine":{"p":8,"l":6,"o":2,"g":4}}`,
		`{"program":"sum","n":79,"machine":{"p":8,"l":5,"o":2,"g":4},"engine":"flat"}`,
		`{"program":"alltoall","n":2,"work":3,"staggered":true,"machine":{"p":64,"l":8,"o":2,"g":4,"no_capacity":true},"engine":"flat","shards":4}`,
		`{"program":"pingpong","n":5,"machine":{"p":4,"l":6,"o":2,"g":4},"seed":7,"faults":{"seed":3,"drop":0.1,"fail_stops":[{"proc":2,"at":100}]},"metrics":{"include":true,"every":50}}`,
		`{"program":"broadcast","machine":{"p":8,"l":6,"o":2,"g":4,"topology":{"procs_per_node":4,"node":{"l":2,"o":1,"g":1}}}}`,
	} {
		f.Add([]byte(seed))
	}
	lim := Limits{MaxP: 64, MaxN: 4096}
	decode := func(data []byte) (JobSpec, error) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return spec, dec.Decode(&spec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decode(data)
		if err != nil || spec.Normalize(lim) != nil {
			return
		}
		canon := spec.Canonical()
		again := spec
		if err := again.Normalize(lim); err != nil {
			t.Fatalf("normalized spec rejected on re-normalization: %v\n%s", err, canon)
		}
		if got := again.Canonical(); !bytes.Equal(got, canon) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", canon, got)
		}
		back, err := decode(canon)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		if err := back.Normalize(lim); err != nil {
			t.Fatalf("decoded canonical spec rejected: %v\n%s", err, canon)
		}
		if got := back.Canonical(); !bytes.Equal(got, canon) {
			t.Fatalf("canonical bytes do not round-trip:\n%s\n%s", canon, got)
		}
		resp, err := Run(spec)
		if err != nil {
			return
		}
		if body, err := resp.Encode(); err != nil || len(body) == 0 {
			t.Fatalf("run gave no body (err %v)\n%s", err, canon)
		}
	})
}

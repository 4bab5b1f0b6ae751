// Package service turns the deterministic simulation runners into a
// simulation-as-a-service subsystem: a canonical job specification with a
// stable content hash, a bounded content-addressed result cache with
// single-flight de-duplication, a bounded executor running jobs on reusable
// flat machines, and the HTTP/JSON handlers cmd/logpsimd serves them from.
//
// The load-bearing property is the one the paper's model promises and PR 6
// pinned in tests: a simulation's entire observable result — Result, program
// output, metrics snapshot — is a pure function of its job spec. That makes
// the spec hash a sound cache key: a cached response is byte-identical to
// what re-running the simulation would produce, so identical specs are free
// and parameter sweeps amortize to the cost of their distinct points.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/topo"
)

// MachineSpec describes the simulated machine: the four LogP parameters plus
// the model toggles the runners accept.
type MachineSpec struct {
	P int   `json:"p"` // processor count
	L int64 `json:"l"` // network latency upper bound in cycles
	O int64 `json:"o"` // per-endpoint send/receive overhead in cycles
	G int64 `json:"g"` // minimum gap between transmissions in cycles
	// NoCapacity disables the ceil(L/g) capacity constraint. Only a
	// capacity-off machine shards: with capacity on the flat engine runs
	// its sequential kernel whatever JobSpec.Shards asks for.
	NoCapacity bool `json:"no_capacity,omitempty"`
	// LatencyJitter makes message latency uniform in [L-LatencyJitter, L]
	// instead of exactly L, deterministic in Seed (the other asynchrony
	// knobs below are too).
	LatencyJitter int64 `json:"latency_jitter,omitempty"`
	// ComputeJitter stretches each compute interval by a uniform factor in
	// [1, 1+ComputeJitter].
	ComputeJitter float64 `json:"compute_jitter,omitempty"`
	// ProcSkew gives each processor a fixed systematic speed factor drawn
	// uniformly from [1, 1+ProcSkew].
	ProcSkew float64 `json:"proc_skew,omitempty"`
	// Topology describes a hierarchical (L, o, g) cost model layered over
	// the base parameters, which become the top (cluster) tier. Nil means a
	// flat machine — the field is appended with omitempty so every
	// pre-topology spec still canonicalizes to the same bytes and the same
	// hash. See topo.Spec for the shape and validation rules.
	Topology *topo.Spec `json:"topology,omitempty"`
}

// Params returns the core parameter tuple.
func (m MachineSpec) Params() core.Params { return core.Params{P: m.P, L: m.L, O: m.O, G: m.G} }

// FaultSpec is the JSON form of the fault plan the CLI flags expose: a
// default link fault for every link plus fail-stop events. A nil FaultSpec
// (or one that injects nothing) runs the machine on its zero-overhead
// fault-free path.
type FaultSpec struct {
	// Seed drives the fault draws, independent of the machine seed; 0 is
	// normalized to 1, mirroring the CLI default.
	Seed   int64          `json:"seed,omitempty"`
	Drop   float64        `json:"drop,omitempty"`       // per-message loss probability in [0,1]
	Dup    float64        `json:"dup,omitempty"`        // per-message duplication probability in [0,1]
	Jitter int64          `json:"jitter,omitempty"`     // extra fault-injected delay bound in cycles
	Fails  []FailStopSpec `json:"fail_stops,omitempty"` // scheduled processor kills
}

// FailStopSpec kills processor Proc at local time At.
type FailStopSpec struct {
	Proc int   `json:"proc"` // processor to kill
	At   int64 `json:"at"`   // local cycle at which it halts
}

// empty reports whether the spec injects nothing (the all-zero plan is
// proven cycle-identical to no plan, so Normalize drops it).
func (f *FaultSpec) empty() bool {
	return f == nil || (f.Drop == 0 && f.Dup == 0 && f.Jitter == 0 && len(f.Fails) == 0)
}

// plan converts to the machine's FaultPlan.
func (f *FaultSpec) plan() *logp.FaultPlan {
	if f == nil {
		return nil
	}
	p := &logp.FaultPlan{
		Seed:    f.Seed,
		Default: logp.LinkFault{Drop: f.Drop, Dup: f.Dup, Jitter: f.Jitter},
	}
	for _, fs := range f.Fails {
		p.FailStops = append(p.FailStops, logp.FailStop{Proc: fs.Proc, At: fs.At})
	}
	return p
}

// MetricsSpec asks for the run's telemetry snapshot in the response.
type MetricsSpec struct {
	// Include puts the full metrics.Snapshot (families + sampled series)
	// in the response body.
	Include bool `json:"include"`
	// Every is the sampling interval in simulated cycles; 0 takes the
	// registry default.
	Every int64 `json:"every,omitempty"`
}

// JobSpec is the canonical description of one simulation job. Its normalized
// JSON encoding is the content the cache addresses: Normalize resolves every
// default so that any two specs asking for the same simulation serialize to
// the same bytes and therefore the same Hash.
type JobSpec struct {
	// Program names a registry program (progs.Names): pingpong, broadcast,
	// sum, chain, binomial, alltoall, fftremap, bitonic.
	Program string `json:"program"`
	// N is the program's problem size (see progs.Args); 0 resolves to the
	// program's default.
	N int `json:"n,omitempty"`
	// Work and Staggered parameterize the all-to-all.
	Work int64 `json:"work,omitempty"`
	// Staggered rotates the all-to-all's destination order per sender.
	Staggered bool `json:"staggered,omitempty"`

	// Machine is the simulated machine the program runs on.
	Machine MachineSpec `json:"machine"`

	// Engine names an execution engine: "goroutine", "flat", or "" (flat).
	// The engines are pinned cycle-identical, so the engine is not part of
	// the simulation: Normalize validates the field and then clears it, and
	// it appears in no hash and no response body. The daemon runs every job
	// on the flat engine; Run honours "goroutine", which is how the CLI and
	// the cross-engine checks reach the goroutine machine.
	Engine string `json:"engine,omitempty"`
	// Shards > 1 selects the flat engine's windowed parallel kernel for a
	// capacity-off machine. Normalize rewrites it to the shard count the
	// machine will actually have (flat.ShardCount), so a capacity-on spec
	// normalizes to 0 and hashes like the sequential run it is. The sharded
	// kernel is bit-deterministic in the shard count, but it reports the
	// in-transit observables as zero (settling them would couple shards),
	// so Shards is part of the hash.
	Shards int `json:"shards,omitempty"`

	// Seed drives the machine's random draws; 0 is normalized to 1,
	// mirroring the CLI default.
	Seed int64 `json:"seed,omitempty"`

	Faults  *FaultSpec   `json:"faults,omitempty"`  // optional fault-injection plan
	Metrics *MetricsSpec `json:"metrics,omitempty"` // optional telemetry request

	// IncludeProcs puts the per-processor statistics in the response
	// (verbose for large P, so off by default).
	IncludeProcs bool `json:"include_procs,omitempty"`
}

// Limits bound what a single spec may ask of the daemon; the zero value
// applies the defaults.
type Limits struct {
	// MaxP caps Machine.P (default 1 << 20).
	MaxP int
	// MaxN caps the problem size N (default 1 << 20).
	MaxN int
}

// DefaultLimits are the caps applied when a Limits field is zero.
var DefaultLimits = Limits{MaxP: 1 << 20, MaxN: 1 << 20}

// maxStretch bounds compute_jitter and proc_skew: beyond it a compute
// interval stretches more than a thousandfold, which models no machine. A
// run whose stretched compute still passes the int64 cycle count fails
// with logp.StretchOverflowError.
const maxStretch = 1000

func (l Limits) maxP() int {
	if l.MaxP > 0 {
		return l.MaxP
	}
	return DefaultLimits.MaxP
}

func (l Limits) maxN() int {
	if l.MaxN > 0 {
		return l.MaxN
	}
	return DefaultLimits.MaxN
}

// Normalize validates the spec and rewrites it into canonical form: the
// engine cleared, the seed default resolved, the program's default size
// filled in, fields the program ignores zeroed, no-op fault and metrics
// blocks dropped. Two specs describing the same simulation normalize to
// identical values, whichever engine they name, so their hashes match and
// the second is a cache hit. Returns the first validation error; a
// normalized spec is ready to run.
func (s *JobSpec) Normalize(lim Limits) error {
	defN, err := progs.DefaultN(s.Program)
	if err != nil {
		return err
	}
	if err := s.Machine.Params().Validate(); err != nil {
		return err
	}
	if s.Machine.P > lim.maxP() {
		return fmt.Errorf("service: P=%d exceeds the limit %d", s.Machine.P, lim.maxP())
	}
	if s.N < 0 {
		return fmt.Errorf("service: negative problem size n=%d", s.N)
	}
	if s.N > lim.maxN() {
		return fmt.Errorf("service: n=%d exceeds the limit %d", s.N, lim.maxN())
	}
	if s.Machine.LatencyJitter < 0 || s.Machine.LatencyJitter > s.Machine.L {
		return fmt.Errorf("service: latency jitter %d outside [0, L=%d]", s.Machine.LatencyJitter, s.Machine.L)
	}
	if !(0 <= s.Machine.ComputeJitter && s.Machine.ComputeJitter <= maxStretch) ||
		!(0 <= s.Machine.ProcSkew && s.Machine.ProcSkew <= maxStretch) {
		return fmt.Errorf("service: compute jitter %v or processor skew %v outside [0, %d]",
			s.Machine.ComputeJitter, s.Machine.ProcSkew, maxStretch)
	}
	if t := s.Machine.Topology; t != nil {
		// Build the model once here so a bad topology fails at validation,
		// with the same errors the machine constructors would raise.
		m, err := t.Build(s.Machine.Params())
		if err != nil {
			return err
		}
		if s.Machine.LatencyJitter > m.MinL() {
			return fmt.Errorf("service: latency jitter %d exceeds the minimum link latency %d", s.Machine.LatencyJitter, m.MinL())
		}
	}

	switch s.Engine {
	case "", "goroutine", "flat":
	default:
		return fmt.Errorf("service: unknown engine %q (want goroutine or flat)", s.Engine)
	}
	if s.Shards < 0 {
		return fmt.Errorf("service: negative shard count %d", s.Shards)
	}
	if s.Shards > 1 && s.Engine == "goroutine" {
		return fmt.Errorf("service: shards apply to the flat engine only")
	}
	s.Engine = ""
	// Hash by the shard count the machine will have: one shard is the
	// sequential core, the same machine and the same bytes as no shards.
	s.Shards = flat.ShardCount(logp.Config{Params: s.Machine.Params(), DisableCapacity: s.Machine.NoCapacity}, s.Shards)
	if s.Shards == 1 {
		s.Shards = 0
	}

	// Program-size canonicalization mirrors progs.Build: sizeless programs
	// force N to 0, sized programs resolve the default.
	if defN == 0 {
		s.N = 0
	} else if s.N == 0 {
		s.N = defN
	}
	if s.Program != "alltoall" {
		s.Work, s.Staggered = 0, false
	}
	if s.Work < 0 {
		return fmt.Errorf("service: negative work %d", s.Work)
	}

	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Faults.empty() {
		s.Faults = nil
	} else {
		if !(0 <= s.Faults.Drop && s.Faults.Drop <= 1) || !(0 <= s.Faults.Dup && s.Faults.Dup <= 1) {
			return fmt.Errorf("service: fault probabilities outside [0,1]")
		}
		if s.Faults.Jitter < 0 {
			return fmt.Errorf("service: negative fault jitter")
		}
		if s.Faults.Seed == 0 {
			s.Faults.Seed = 1
		}
		if err := s.Faults.plan().Validate(s.Machine.P); err != nil {
			return err
		}
	}
	if s.Metrics != nil {
		if s.Metrics.Every < 0 {
			return fmt.Errorf("service: negative metrics interval")
		}
		if !s.Metrics.Include {
			s.Metrics = nil
		}
	}
	if s.Shards > 1 {
		// Check the flat kernel's sharding preconditions here so a bad spec
		// fails at validation, before it occupies a worker. Only
		// capacity-off specs get here (see flat.ShardCount).
		return flat.ValidateShards(s.config(), s.Shards)
	}
	return nil
}

// Canonical returns the canonical JSON encoding of a normalized spec: the
// exact bytes the content hash covers. Field order is fixed by the struct
// definitions, so the encoding is stable across processes and Go versions
// (the golden-hash test pins it).
func (s JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail on a JobSpec.
		panic(fmt.Sprintf("service: canonical encoding: %v", err))
	}
	return b
}

// Hash is the spec's content address: hex SHA-256 of the canonical
// encoding. Call it on normalized specs only — Normalize is what guarantees
// equal simulations get equal hashes.
func (s JobSpec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

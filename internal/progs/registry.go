package progs

import (
	"fmt"
	"sort"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

// The program registry names every handler-form program so a caller holding
// only a textual spec — the simulation daemon's JobSpec, a CLI flag — can
// construct it. A registry entry builds a fresh program instance per call
// (instances confine mutable state per processor but are not shareable
// across concurrent runs) and pairs it with an Output summarizer, so the
// caller can report a small deterministic digest of the program-level result
// (the summation root, the number of processors reached) without knowing the
// concrete program type.

// Args parameterizes a registry program. The zero value selects each
// program's default size.
type Args struct {
	// N is the problem size; its meaning is per program: ping-pong round
	// trips, summation input values, pipelined items, all-to-all messages
	// per destination. 0 picks the program's default (DefaultN); programs
	// that take no size (broadcast) ignore it.
	N int
	// Work is the all-to-all's local compute in cycles before each send.
	Work int64
	// Staggered selects the all-to-all's staggered destination order.
	Staggered bool
}

// Instance is one ready-to-run program with its result summarizer.
type Instance struct {
	Prog logp.Program
	// Output digests the program-level result after a run into a small
	// map with deterministic keys and values (runs are deterministic, so
	// equal specs produce equal digests). Call it only after the run.
	Output func() map[string]float64
}

// builder constructs an instance for a validated machine and normalized
// size.
type builder struct {
	defaultN int // 0: the program takes no size
	doc      string
	build    func(p core.Params, a Args) (Instance, error)
}

// builders is the static registry, keyed by program name.
var builders = map[string]builder{
	"pingpong": {
		defaultN: 10,
		doc:      "bounce N round trips between processors 0 and 1",
		build: func(p core.Params, a Args) (Instance, error) {
			if p.P < 2 {
				return Instance{}, fmt.Errorf("progs: pingpong needs P >= 2, have P=%d", p.P)
			}
			pp := NewPingPong(a.N, 1)
			return Instance{Prog: pp, Output: func() map[string]float64 {
				return map[string]float64{"rounds": float64(pp.Rounds())}
			}}, nil
		},
	},
	"broadcast": {
		doc: "the paper's Figure 3 optimal single-datum broadcast",
		build: func(p core.Params, a Args) (Instance, error) {
			s, err := core.OptimalBroadcast(p, 0)
			if err != nil {
				return Instance{}, err
			}
			b := NewBroadcast(s, 1, "datum")
			return Instance{Prog: b, Output: func() map[string]float64 {
				reached := 0
				for _, g := range b.Got {
					if g == "datum" {
						reached++
					}
				}
				return map[string]float64{
					"predicted_finish": float64(s.Finish),
					"reached":          float64(reached),
				}
			}}, nil
		},
	},
	"sum": {
		defaultN: 1000,
		doc:      "the paper's Figure 4 optimal summation of N values",
		build: func(p core.Params, a Args) (Instance, error) {
			deadline := core.MinSumTime(p, int64(a.N))
			s, err := core.OptimalSummation(p, deadline)
			if err != nil {
				return Instance{}, err
			}
			values := make([]float64, s.TotalValues)
			for i := range values {
				values[i] = 1
			}
			dist, err := s.Distribute(values)
			if err != nil {
				return Instance{}, err
			}
			sm := NewSum(s, 1, dist)
			return Instance{Prog: sm, Output: func() map[string]float64 {
				ok := 0.0
				if sm.RootOK {
					ok = 1
				}
				return map[string]float64{
					"predicted_finish": float64(deadline),
					"root":             sm.Root,
					"root_ok":          ok,
					"values":           float64(s.TotalValues),
				}
			}}, nil
		},
	},
	"chain": {
		defaultN: 8,
		doc:      "pipelined broadcast of N values through the linear chain",
		build: func(p core.Params, a Args) (Instance, error) {
			c := NewPipelinedChain(p.P, 0, 1, a.N, func(i int) any { return float64(i) })
			return Instance{Prog: c, Output: pipelinedOutput(a.N, &c.Out)}, nil
		},
	},
	"binomial": {
		defaultN: 8,
		doc:      "pipelined broadcast of N values down the binomial tree",
		build: func(p core.Params, a Args) (Instance, error) {
			b := NewPipelinedBinomial(p.P, 0, 1, a.N, func(i int) any { return float64(i) })
			return Instance{Prog: b, Output: pipelinedOutput(a.N, &b.Out)}, nil
		},
	},
	"fftremap": {
		defaultN: 4096,
		doc:      "the FFT's cyclic-to-blocked data remap of N points, staggered (Section 4.1)",
		build: func(p core.Params, a Args) (Instance, error) {
			if a.N%(p.P*p.P) != 0 {
				return Instance{}, fmt.Errorf("progs: fftremap needs N divisible by P^2, have N=%d P=%d", a.N, p.P)
			}
			f := NewFFTRemap(p.P, a.N, 1)
			return Instance{Prog: f, Output: func() map[string]float64 {
				return map[string]float64{"rows": float64(a.N), "placed": float64(f.Placed())}
			}}, nil
		},
	},
	"bitonic": {
		doc: "bitonic merge sort, one key per processor (Section 4.2.2)",
		build: func(p core.Params, a Args) (Instance, error) {
			if p.P&(p.P-1) != 0 {
				return Instance{}, fmt.Errorf("progs: bitonic needs P a power of two, have P=%d", p.P)
			}
			b := NewBitonic(p.P, 1, nil)
			return Instance{Prog: b, Output: func() map[string]float64 {
				sorted := 1.0
				for i := 1; i < len(b.Keys); i++ {
					if b.Keys[i-1] > b.Keys[i] {
						sorted = 0
					}
				}
				return map[string]float64{"procs": float64(p.P), "sorted": sorted}
			}}, nil
		},
	},
	"alltoall": {
		defaultN: 4,
		doc:      "every processor sends N messages to every other (Section 4.1.2)",
		build: func(p core.Params, a Args) (Instance, error) {
			at := NewAllToAll(p.P, a.N, a.Work, 1, a.Staggered)
			return Instance{Prog: at, Output: func() map[string]float64 {
				total := 0
				for _, r := range at.Received {
					total += r
				}
				return map[string]float64{"received": float64(total)}
			}}, nil
		},
	},
}

// pipelinedOutput digests the pipelined broadcasts' Out matrix: how many of
// the m items every processor saw, and whether all of them arrived in order.
func pipelinedOutput(m int, out *[][]any) func() map[string]float64 {
	return func() map[string]float64 {
		received, ordered := 0, 1.0
		for _, row := range *out {
			received += len(row)
			if len(row) != m {
				ordered = 0
				continue
			}
			for i, v := range row {
				if v != any(float64(i)) {
					ordered = 0
				}
			}
		}
		return map[string]float64{"received": float64(received), "complete": ordered}
	}
}

// Names lists the registered program names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Doc returns the one-line description of a registered program ("" if
// unknown).
func Doc(name string) string { return builders[name].doc }

// DefaultN reports the problem size a zero Args.N resolves to; 0 means the
// program takes no size.
func DefaultN(name string) (int, error) {
	b, ok := builders[name]
	if !ok {
		return 0, fmt.Errorf("progs: unknown program %q (have %v)", name, Names())
	}
	return b.defaultN, nil
}

// Build constructs a fresh instance of the named program for the given
// machine. Args.N of 0 takes the program's default; programs without a size
// force N to 0, so callers can canonicalize specs by building through this
// path. The returned instance must not be shared across concurrent runs.
func Build(name string, p core.Params, a Args) (Instance, error) {
	b, ok := builders[name]
	if !ok {
		return Instance{}, fmt.Errorf("progs: unknown program %q (have %v)", name, Names())
	}
	if err := p.Validate(); err != nil {
		return Instance{}, err
	}
	if a.N < 0 {
		return Instance{}, fmt.Errorf("progs: %s: negative size %d", name, a.N)
	}
	if a.Work < 0 {
		return Instance{}, fmt.Errorf("progs: %s: negative work %d", name, a.Work)
	}
	if b.defaultN == 0 {
		a.N = 0
	} else if a.N == 0 {
		a.N = b.defaultN
	}
	return b.build(p, a)
}

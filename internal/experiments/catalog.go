package experiments

import (
	"time"

	"github.com/logp-model/logp/internal/topo"
)

// Options is everything a run of the harness takes from its caller: the
// problem scale, the worker bound and the node tier of the hiertree study.
// Workers changes wall-clock time only, never a Report: sweeps assemble
// their outputs in input order and each simulation is independently seeded.
type Options struct {
	// Scale sets the problem sizes of the experiments that scale.
	Scale Scale
	// Workers bounds the simulations in flight; <= 0 means GOMAXPROCS.
	Workers int
	// Tier overrides the node tier HierTree studies (cmd/figures -tier).
	// Only the node tier of the spec is used — the experiment sweeps the
	// cluster tier itself, and a rack tier has no place in its two-tier
	// machines. Nil keeps the built-in default.
	Tier *topo.Spec
}

// Entry is one runnable experiment in the catalog. Experiments whose
// problem sizes do not scale ignore Options.Scale.
type Entry struct {
	ID  string
	Run func(Options) Report
}

// Catalog lists every experiment in the order the paper presents them.
func Catalog() []Entry {
	fixed := func(f func() Report) func(Options) Report {
		return func(Options) Report { return f() }
	}
	return []Entry{
		{"fig2", fixed(Fig2)},
		{"fig3", fixed(Fig3)},
		{"fig4", fixed(Fig4)},
		{"fig5", fixed(Fig5)},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"table-dist", TableAvgDistance},
		{"table1", fixed(Table1)},
		{"netsat", NetworkSaturation},
		{"saturation", CapacitySaturation},
		{"lu", LULayouts},
		{"sort", SortComparison},
		{"cc", CCStudy},
		{"models", fixed(ModelComparison)},
		{"capacity", fixed(CapacityAblation)},
		{"bcast-sweep", fixed(BroadcastSweep)},
		{"multithreading", Multithreading},
		{"longmsg", LongMessages},
		{"surface", SurfaceToVolume},
		{"overlap", OverlapFFT},
		{"patterns", PatternGaps},
		{"paramspace", fixed(ParameterSpace)},
		{"pram", fixed(PRAMEmulation)},
		{"robustness", fixed(Robustness)},
		{"bsp", BSPComparison},
		{"am", fixed(ActiveMessages)},
		{"whatif", fixed(WhatIf)},
		{"chaos", Chaos},
		{"pscale", PScaling},
		{"hiertree", HierTree},
		{"shardbalance", ShardBalance},
	}
}

// Observation reports one experiment finishing inside RunAll: which entry,
// its catalog position, and the wall-clock time its generator took. Wall time
// is host time (the telemetry of the harness itself), not simulated cycles —
// simulated results stay bit-identical regardless of the observer.
type Observation struct {
	ID    string
	Index int // position in Catalog order
	Total int // catalog size
	Wall  time.Duration
}

// RunAll regenerates every experiment with the given options, running the
// entries concurrently under opts.Workers (experiments with internal sweeps
// additionally parallelize their own items under the same bound). The
// reports come back in catalog order and are identical to running each
// entry sequentially. A non-nil obs is called once per experiment as it
// finishes, on the harness worker goroutines, so it must be safe for
// concurrent use; it is a side channel for progress display and wall-time
// metrics and never changes a report.
func RunAll(opts Options, obs func(Observation)) []Report {
	cat := Catalog()
	return MapIndexed(opts.Workers, len(cat), func(i int) Report {
		start := time.Now()
		rep := cat[i].Run(opts)
		if obs != nil {
			obs(Observation{ID: cat[i].ID, Index: i, Total: len(cat), Wall: time.Since(start)})
		}
		return rep
	})
}

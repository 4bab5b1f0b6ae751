package main

import (
	"encoding/json"
	"fmt"

	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/service"
	"github.com/logp-model/logp/internal/topo"
)

// A workload is a fixed list of closed-loop operations plus the warm-up that
// runs before them. Every operation is generated from the workload seed and
// its index alone, so the same seed and op count give the same requests.
type workload struct {
	name    string
	clients int
	// rate is the nominal ops per second on the reference host (2 cores);
	// the op count of a run is rate × --seconds rounded up to whole
	// periods, fixed before anything is timed.
	rate   float64
	period int // ops per full cycle of the spec classes
	replay int // ops whose specs the traced run replays layer by layer
	// repeats says op i is op i mod period, so the generator shares one
	// copy of each distinct op instead of holding thousands of duplicates.
	repeats bool
	// tail is the latency percentile latency_tail_ms reports: the highest
	// one that keeps at least ten samples beyond it and stays steady from
	// run to run.
	tail float64
	gen  func(seed uint64, i int) op
	// warm returns the set-up requests; warmFrom is the first op index
	// outside the timed range, so warm-up specs never collide with timed
	// ones.
	warm func(seed uint64, warmFrom int) []op
}

// op is one generated request with everything the checks need to know
// about it in advance.
type op struct {
	path   string // /v1/jobs or /v1/sweep
	body   []byte // the JSON request body
	class  string // program/engine class, for the cross-engine check
	specs  []service.JobSpec
	hashes []string // own Normalize+Hash of each spec, in sweep order
	err    error    // a spec the service would not normalize
}

var workloads = map[string]*workload{
	"jobs-cold": {name: "jobs-cold", clients: 2, rate: 260, period: 576, replay: 96, tail: 0.99, gen: coldJob, warm: coldWarm},
	"sweep-hot": {name: "sweep-hot", clients: 2, rate: 1600, period: 16, replay: 16, tail: 0.95, repeats: true, gen: hotSweep, warm: hotWarm},
	"sim-large": {name: "sim-large", clients: 1, rate: 19, period: 1, replay: 6, tail: 0.95, gen: largeJob, warm: largeWarm},
}

// opCount is the fixed number of timed ops for a run of the given length.
func (w *workload) opCount(seconds int) int {
	n := int(w.rate*float64(seconds)+0.5) + w.period - 1
	return n - n%w.period
}

// mix is splitmix64: seeds derived from (workload seed, index) are
// well spread and never depend on anything but their arguments.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// machineSeed is the simulated machine's seed for op i: positive, nonzero.
func machineSeed(seed uint64, stream, i int) int64 {
	return int64(mix(seed^mix(uint64(stream)<<32|uint64(i)))>>1) | 1
}

// twoTier is README's two-tier block: nodes of 4 with a fast node link.
var twoTier = &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}

// coldJob is jobs-cold op i. The index is a mixed-radix counter, fastest
// digit first: program (8), engine unset or flat (2), extra block none,
// two-tier, metrics or none (4), P (3), L (3) — 576 distinct classes, every
// one a fresh spec because the machine seed comes from i.
func coldJob(seed uint64, i int) op {
	names := progs.Names()
	spec := service.JobSpec{
		Program: names[i%8],
		Machine: service.MachineSpec{
			P: []int{16, 32, 64}[(i/64)%3], L: []int64{6, 12, 24}[(i/192)%3],
			O: 2, G: 4, LatencyJitter: 2,
		},
		Seed: machineSeed(seed, 1, i),
	}
	if (i/8)%2 == 1 {
		spec.Engine = "flat"
	}
	switch (i / 16) % 4 {
	case 1:
		spec.Machine.Topology = twoTier
	case 2:
		spec.Metrics = &service.MetricsSpec{Include: true}
	}
	return jobOp(spec)
}

// coldWarm runs one job per (program, engine) class.
func coldWarm(seed uint64, from int) []op {
	var ops []op
	for c := 0; c < 16; c++ {
		o := coldJob(seed, c)
		spec := o.specs[0]
		spec.Seed = machineSeed(seed, 1, from+c)
		ops = append(ops, jobOp(spec))
	}
	return ops
}

// largeJob is sim-large op i: the staggered all-to-all with compute on the
// flat engine at P=256, a new seed per op. No shards field: whether to
// shard is the daemon's decision.
func largeJob(seed uint64, i int) op {
	return jobOp(service.JobSpec{
		Program: "alltoall", N: 1, Work: 8, Staggered: true,
		Machine: service.MachineSpec{P: 256, L: 12, O: 2, G: 4, LatencyJitter: 4},
		Engine:  "flat",
		Seed:    machineSeed(seed, 3, i),
	})
}

func largeWarm(seed uint64, from int) []op { return []op{largeJob(seed, from)} }

// hotGrid is sweep grid k of 16: program k mod 8, engine unset for the
// first eight grids and flat for the rest, P {8,16} × L {6,12,24} ×
// g {4,8} × 4 seeds = 48 points.
func hotGrid(seed uint64, k int) op {
	base := service.JobSpec{
		Program: progs.Names()[k%8],
		Machine: service.MachineSpec{P: 8, L: 6, O: 2, G: 4, LatencyJitter: 2},
	}
	if k >= 8 {
		base.Engine = "flat"
	}
	axes := service.SweepAxes{P: []int{8, 16}, L: []int64{6, 12, 24}, G: []int64{4, 8}}
	for j := 0; j < 4; j++ {
		axes.Seed = append(axes.Seed, machineSeed(seed, 2, 4*k+j))
	}
	o := op{path: "/v1/sweep", class: classOf(base)}
	// The daemon expands P, L, o, g, n, seed with the rightmost fastest;
	// the checks need the same order.
	for _, p := range axes.P {
		for _, l := range axes.L {
			for _, g := range axes.G {
				for _, s := range axes.Seed {
					spec := base
					spec.Machine.P, spec.Machine.L, spec.Machine.G, spec.Seed = p, l, g, s
					o.specs = append(o.specs, spec)
				}
			}
		}
	}
	o.body = mustJSON(service.SweepRequest{Base: base, Axes: axes})
	o.hashes, o.err = hashesOf(o.specs)
	return o
}

func hotSweep(seed uint64, i int) op { return hotGrid(seed, i%16) }

// hotWarm submits every grid once, so every timed point is a hit.
func hotWarm(seed uint64, _ int) []op {
	ops := make([]op, 16)
	for k := range ops {
		ops[k] = hotGrid(seed, k)
	}
	return ops
}

func jobOp(spec service.JobSpec) op {
	o := op{path: "/v1/jobs", body: mustJSON(spec), class: classOf(spec), specs: []service.JobSpec{spec}}
	o.hashes, o.err = hashesOf(o.specs)
	return o
}

// classOf names a spec's (program, engine) class as the daemon resolves it.
func classOf(spec service.JobSpec) string {
	engine := spec.Engine
	if engine == "" {
		engine = "goroutine"
	}
	return spec.Program + "/" + engine
}

// hashesOf computes the expected spec hash of each raw spec with the
// service's own Normalize and Hash, so a deliberate change of the hash
// scheme changes both sides alike.
func hashesOf(specs []service.JobSpec) ([]string, error) {
	out := make([]string, len(specs))
	for i, s := range specs {
		if err := s.Normalize(service.Limits{}); err != nil {
			return nil, fmt.Errorf("generated spec %d does not normalize: %w", i, err)
		}
		out[i] = s.Hash()
	}
	return out, nil
}

// mustJSON encodes a request; the request types hold plain values only, so
// Marshal cannot fail on them.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a request: %v", err))
	}
	return b
}

// generate builds the timed ops and the warm-up of a run.
func (w *workload) generate(seed uint64, n int) (timed, warm []op) {
	timed = make([]op, n)
	for i := range timed {
		if w.repeats && i >= w.period {
			timed[i] = timed[i%w.period]
		} else {
			timed[i] = w.gen(seed, i)
		}
	}
	return timed, w.warm(seed, n)
}

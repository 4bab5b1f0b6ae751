package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/service"
)

// layerSums accumulates the replay's per-layer timings and counts.
type layerSums struct {
	specs                                    int
	normalize, hash, cacheHit, decode, enc   time.Duration
	run                                      time.Duration // service.Run
	bodyB                                    int
	build                                    map[string]time.Duration
	builds                                   map[string]int
	sumSched                                 time.Duration
	sums                                     int
	flatRuns                                 int
	flatNew, flatRun, flatRerun              time.Duration
	flatAllocB                               uint64
	events, wheel, heap, flatMsgs            int64
	logpRuns                                 int
	logpRun                                  time.Duration
	logpMsgs                                 int64
	metricsOn, metricsOff, tiersOn, tiersOff time.Duration
	tierPairs                                int
	metricsBodyB                             int
	// executes pairs the replay's build + new + run of a job op with the
	// server's execute stage for the same spec.
	replayExec, serverExec time.Duration
	execOps                int
}

// machineConfig is the logp.Config the service builds for a normalized
// spec. The benchmark's workloads inject no faults.
func machineConfig(s service.JobSpec) (logp.Config, error) {
	cfg := logp.Config{
		Params:          s.Machine.Params(),
		LatencyJitter:   s.Machine.LatencyJitter,
		ComputeJitter:   s.Machine.ComputeJitter,
		ProcSkew:        s.Machine.ProcSkew,
		Seed:            s.Seed,
		DisableCapacity: s.Machine.NoCapacity,
	}
	if s.Faults != nil {
		return cfg, fmt.Errorf("replay: fault plans are not replayed")
	}
	if t := s.Machine.Topology; t != nil {
		m, err := t.Build(s.Machine.Params())
		if err != nil {
			return cfg, err
		}
		cfg.Topology = m
	}
	if s.Metrics != nil {
		cfg.Metrics = metrics.NewRegistry()
		cfg.MetricsEvery = s.Metrics.Every
	}
	return cfg, nil
}

// replaySpec calls each layer's public functions on one raw spec, in the
// order the daemon does, as spans under one "replay" root. serverExec is
// the server's execute stage for this spec (0 when it did not run it).
func replaySpec(tr *tracer, opID int, raw service.JobSpec, serverExec time.Duration, ls *layerSums) error {
	t0 := time.Now()
	root := tr.add(-1, opID, "replay", t0, t0)
	defer tr.end(root)
	var err error
	spec := raw
	ls.specs++
	ls.normalize += tr.call(root, opID, "service.normalize", func() { err = spec.Normalize(service.Limits{}) })
	if err != nil {
		return err
	}
	var hash string
	ls.hash += tr.call(root, opID, "service.hash", func() { hash = spec.Hash() })

	args := progs.Args{N: spec.N, Work: spec.Work, Staggered: spec.Staggered}
	var inst progs.Instance
	d := tr.call(root, opID, "progs.build", func() { inst, err = progs.Build(spec.Program, spec.Machine.Params(), args) })
	if err != nil {
		return err
	}
	exec := d
	ls.build[spec.Program] += d
	ls.builds[spec.Program]++
	if spec.Program == "sum" {
		ls.sums++
		ls.sumSched += tr.call(root, opID, "core.sum_schedule", func() {
			p := spec.Machine.Params()
			_, err = core.OptimalSummation(p, core.MinSumTime(p, int64(spec.N)))
		})
		if err != nil {
			return err
		}
	}
	cfg, err := machineConfig(spec)
	if err != nil {
		return err
	}
	var res logp.Result
	if spec.Engine == "flat" {
		var m *flat.Machine
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d := tr.call(root, opID, "flat.new", func() { m, err = flat.New(cfg, inst.Prog, 1) })
		if err != nil {
			return err
		}
		m.EnableFlightRecorder()
		d2 := tr.call(root, opID, "flat.run", func() { res, err = m.Run() })
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		exec += d + d2
		ls.flatRuns++
		ls.flatNew += d
		ls.flatRun += d2
		ls.flatAllocB += ms1.TotalAlloc - ms0.TotalAlloc
		ls.flatMsgs += int64(res.Messages)
		for _, st := range m.ShardStats() {
			ls.events += st.Events
			ls.wheel += st.WheelEvents
			ls.heap += st.HeapEvents
		}
		ls.flatRerun += tr.call(root, opID, "flat.rerun", func() { _, err = m.Run() })
		if err != nil {
			return err
		}
	} else {
		d := tr.call(root, opID, "logp.run", func() { res, err = logp.RunProgram(cfg, inst.Prog) })
		if err != nil {
			return err
		}
		exec += d
		ls.logpRuns++
		ls.logpRun += d
		ls.logpMsgs += int64(res.Messages)
	}
	if serverExec > 0 {
		ls.replayExec += exec
		ls.serverExec += serverExec
		ls.execOps++
	}

	var resp *service.Response
	ls.run += tr.call(root, opID, "service.run", func() { resp, err = service.Run(raw) })
	if err != nil {
		return err
	}
	var body []byte
	ls.enc += tr.call(root, opID, "service.encode", func() { body, err = resp.Encode() })
	if err != nil {
		return err
	}
	ls.bodyB += len(body)
	ls.decode += tr.call(root, opID, "service.decode_response", func() { _, err = service.DecodeResponse(body) })
	if err != nil {
		return err
	}
	cache := service.NewCache(1, 0)
	fill := func() ([]byte, error) { return body, nil }
	cache.GetOrRun(hash, fill)
	ls.cacheHit += tr.call(root, opID, "service.cache_hit", func() { _, _, err = cache.GetOrRun(hash, fill) })
	if err != nil {
		return err
	}

	// The same spec with and without the metrics block, and with and
	// without README's two tiers.
	withM, withoutM := raw, raw
	withM.Metrics, withoutM.Metrics = &service.MetricsSpec{Include: true}, nil
	type variant struct {
		name string
		spec service.JobSpec
		sum  *time.Duration
		body *int
	}
	variants := []variant{
		{"metrics.run_with", withM, &ls.metricsOn, &ls.metricsBodyB},
		{"metrics.run_without", withoutM, &ls.metricsOff, nil},
	}
	// The node link's L bounds the latency jitter a two-tier spec admits.
	if raw.Machine.LatencyJitter <= twoTier.Node.L {
		withT, withoutT := raw, raw
		withT.Machine.Topology, withoutT.Machine.Topology = twoTier, nil
		variants = append(variants,
			variant{"topo.run_with", withT, &ls.tiersOn, nil},
			variant{"topo.run_without", withoutT, &ls.tiersOff, nil})
		ls.tierPairs++
	}
	for _, v := range variants {
		var r *service.Response
		*v.sum += tr.call(root, opID, v.name, func() { r, err = service.Run(v.spec) })
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		if v.body != nil {
			var b []byte
			tr.call(root, opID, "metrics.encode", func() { b, err = r.Encode() })
			if err != nil {
				return err
			}
			*v.body += len(b)
		}
	}
	return nil
}

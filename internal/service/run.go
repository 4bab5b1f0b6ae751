package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/progs"
)

// ProcStatsJSON mirrors logp.ProcStats with stable JSON field names.
type ProcStatsJSON struct {
	Proc         int   `json:"proc"`          // processor ID
	Compute      int64 `json:"compute"`       // cycles spent in local work
	SendOverhead int64 `json:"send_overhead"` // cycles spent in send o
	RecvOverhead int64 `json:"recv_overhead"` // cycles spent in receive o
	Stall        int64 `json:"stall"`         // cycles stalled on gap or capacity
	Finish       int64 `json:"finish"`        // cycle the processor went idle for good
	MsgsSent     int   `json:"msgs_sent"`     // messages this processor sent
	MsgsReceived int   `json:"msgs_received"` // messages this processor received
}

// ResultJSON mirrors logp.Result minus the trace.
type ResultJSON struct {
	Time             int64           `json:"time"`                // completion cycle of the run
	Messages         int             `json:"messages"`            // total messages delivered
	MaxInTransitFrom int             `json:"max_in_transit_from"` // peak in-flight count from one sender
	MaxInTransitTo   int             `json:"max_in_transit_to"`   // peak in-flight count toward one receiver
	Dropped          int             `json:"dropped"`             // messages lost by fault injection
	Duplicated       int             `json:"duplicated"`          // messages duplicated by fault injection
	Failed           []int           `json:"failed,omitempty"`    // processors halted by fail-stop faults
	Undelivered      int             `json:"undelivered"`         // messages still queued at completion
	Procs            []ProcStatsJSON `json:"procs,omitempty"`     // per-processor stats when requested
}

// Response is the full observable result of one job: what the daemon caches
// and serves, and what logpsim -json prints. Its encoding is deterministic:
// Encode's canonical writer (encode.go) emits struct fields in definition
// order, the Output map's keys sorted and the metrics snapshot in its
// constructed order, so equal specs produce byte-identical bodies whether
// computed or replayed from the cache. The writer's output is pinned
// byte-identical to encoding/json's, which DecodeResponse reads back.
type Response struct {
	// SpecHash is the content address of the normalized Spec.
	SpecHash string `json:"spec_hash"`
	// Spec is the normalized spec the response answers.
	Spec JobSpec `json:"spec"`
	// Result summarizes the machine run.
	Result ResultJSON `json:"result"`
	// Output is the program-level digest (progs.Instance.Output).
	Output map[string]float64 `json:"output,omitempty"`
	// Metrics is the telemetry snapshot (when Spec.Metrics asked for it).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// DecodeResponse parses a canonical response body.
func DecodeResponse(body []byte) (*Response, error) {
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// config assembles the logp.Config of a normalized spec's machine, without
// a metrics registry: runNormalized attaches one per run.
func (s JobSpec) config() logp.Config {
	cfg := logp.Config{
		Params:          s.Machine.Params(),
		LatencyJitter:   s.Machine.LatencyJitter,
		ComputeJitter:   s.Machine.ComputeJitter,
		ProcSkew:        s.Machine.ProcSkew,
		Seed:            s.Seed,
		DisableCapacity: s.Machine.NoCapacity,
		Faults:          s.Faults.plan(),
	}
	if t := s.Machine.Topology; t != nil {
		// Normalize validated the topology and the base parameters, so
		// Build cannot fail.
		m, err := t.Build(s.Machine.Params())
		if err != nil {
			panic(fmt.Sprintf("service: topology on a normalized spec: %v", err))
		}
		cfg.Topology = m
	}
	return cfg
}

// Run normalizes and executes one spec from scratch and builds its Response.
// This is the uncached, pool-free entry point the CLI uses. It runs the
// engine the spec names before Normalize clears the name: the goroutine
// machine for "goroutine", a fresh flat machine for "" and "flat". Both give
// the same hash and, the engines being cycle-identical, the same bytes. The
// daemon runs every job on the flat engine, through its cache and machine
// pool.
func Run(spec JobSpec) (*Response, error) {
	engine := spec.Engine
	if err := spec.Normalize(Limits{}); err != nil {
		return nil, err
	}
	return runNormalized(spec, func(cfg logp.Config, prog logp.Program, shards int) (logp.Result, error) {
		if engine == "goroutine" {
			return logp.RunProgram(cfg, prog) // Normalize allows it no shards
		}
		return flat.Run(cfg, prog, shards)
	})
}

// runNormalized executes a normalized spec with run, which receives the
// spec's shard count, and builds its Response.
func runNormalized(spec JobSpec,
	run func(cfg logp.Config, prog logp.Program, shards int) (logp.Result, error)) (*Response, error) {
	inst, err := progs.Build(spec.Program, spec.Machine.Params(),
		progs.Args{N: spec.N, Work: spec.Work, Staggered: spec.Staggered})
	if err != nil {
		return nil, err
	}
	cfg := spec.config()
	if spec.Metrics != nil {
		cfg.Metrics = metrics.NewRegistry()
		cfg.MetricsEvery = spec.Metrics.Every
	}
	res, err := run(cfg, inst.Prog, spec.Shards)
	if err != nil {
		return nil, err
	}

	resp := &Response{
		SpecHash: spec.Hash(),
		Spec:     spec,
		Result: ResultJSON{
			Time:             res.Time,
			Messages:         res.Messages,
			MaxInTransitFrom: res.MaxInTransitFrom,
			MaxInTransitTo:   res.MaxInTransitTo,
			Dropped:          res.Dropped,
			Duplicated:       res.Duplicated,
			Failed:           res.Failed,
			Undelivered:      res.Undelivered,
		},
		Output: inst.Output(),
	}
	if spec.IncludeProcs {
		resp.Result.Procs = make([]ProcStatsJSON, len(res.Procs))
		for i, p := range res.Procs {
			resp.Result.Procs[i] = ProcStatsJSON{
				Proc: p.Proc, Compute: p.Compute,
				SendOverhead: p.SendOverhead, RecvOverhead: p.RecvOverhead,
				Stall: p.Stall, Finish: p.Finish,
				MsgsSent: p.MsgsSent, MsgsReceived: p.MsgsReceived,
			}
		}
	}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		resp.Metrics = &snap
	}
	return resp, nil
}

// run runs prog on a flat machine with the spec's shard count (0 means one),
// re-seating an idle machine of the same shape instead of building one —
// Reset makes the run identical to a fresh machine's — and returns the
// machine to the pool after the run. Releasing it before the caller reads
// the Result, the program's output and the metrics registry is safe: a later
// Reset replaces the machine's references to them and touches none of them.
func (p *machinePool) run(cfg logp.Config, prog logp.Program, shards int) (logp.Result, error) {
	key := poolKey{p: cfg.P, shards: flat.ShardCount(cfg, shards)}
	m := p.acquire(key)
	if m == nil {
		var err error
		if m, err = flat.New(cfg, prog, shards); err != nil {
			return logp.Result{}, err
		}
	} else if err := m.Reset(cfg, prog); err != nil {
		p.release(key, m) // a rejected Reset leaves the machine as it was
		return logp.Result{}, err
	}
	res, err := m.Run()
	p.release(key, m)
	return res, err
}

// poolKey is a flat machine's shape: the processor count and effective
// shard count fixed at construction. Reset re-seats everything else.
type poolKey struct{ p, shards int }

// poolBudget bounds the storage the machine pool retains: the sum of its
// idle machines' flat.Machine.StorageBytes.
const poolBudget = 64 << 20

// machinePool keeps idle flat machines for re-seating, keyed by shape. A
// shape may have several idle machines, since executor slots can run one
// shape concurrently; a machine leaves the pool while it runs, so it never
// runs concurrently with itself. acquire takes the shape's least recently
// released machine, so later jobs of the shape re-seat, and so trim, every
// pooled machine in turn: taking the most recent one left the others idle
// with whatever an earlier, larger job had grown them to. Past the byte
// budget the least recently released machines are dropped, and a machine
// larger than the whole budget is never kept. The budget bounds the idle
// list's length too, so acquire scans it.
type machinePool struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	idle  *list.List // *idleMachine, front = most recently released

	acquires int64 // lookups, hit or miss (the pool hit-rate denominator)
	reuses   int64 // lookups that found an idle machine
}

// idleMachine is one pooled machine with its shape and the storage it
// retains.
type idleMachine struct {
	key   poolKey
	m     *flat.Machine
	bytes int64
}

func newMachinePool(maxBytes int64) *machinePool {
	return &machinePool{max: maxBytes, idle: list.New()}
}

// acquire removes and returns the least recently released idle machine of
// shape key, or nil.
func (p *machinePool) acquire(key poolKey) *flat.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquires++
	for el := p.idle.Back(); el != nil; el = el.Prev() {
		if im := el.Value.(*idleMachine); im.key == key {
			p.idle.Remove(el)
			p.bytes -= im.bytes
			p.reuses++
			return im.m
		}
	}
	return nil
}

// release returns a machine of shape key to the pool, evicting the least
// recently released machines past the byte budget.
func (p *machinePool) release(key poolKey, m *flat.Machine) {
	n := m.StorageBytes()
	if n > p.max {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle.PushFront(&idleMachine{key: key, m: m, bytes: n})
	p.bytes += n
	for p.bytes > p.max {
		p.bytes -= p.idle.Remove(p.idle.Back()).(*idleMachine).bytes
	}
}

// poolStats is a snapshot of the pool's counters.
type poolStats struct {
	size             int   // idle machines
	bytes            int64 // storage they retain
	acquires, reuses int64 // lookups, and lookups served by an idle machine
}

func (p *machinePool) stats() poolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return poolStats{size: p.idle.Len(), bytes: p.bytes, acquires: p.acquires, reuses: p.reuses}
}

package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/obs"
	"github.com/logp-model/logp/internal/progs"
)

// Config sizes one Server; the zero value takes the defaults.
type Config struct {
	// Workers bounds the simulations in flight across all requests
	// (default GOMAXPROCS). Submissions past the bound queue.
	Workers int
	// CacheEntries bounds the result cache's completed bodies (default
	// 4096).
	CacheEntries int
	// CacheBytes bounds the result cache's total body size (default
	// 256 MiB).
	CacheBytes int64
	// Logger, when set, emits one structured line per job request — hash,
	// program, cache verdict, stage latencies, status. Nil disables
	// request logging; the wall-clock telemetry on /metrics stays on
	// either way.
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof debug handlers under
	// /debug/pprof/ (the daemon's -pprof flag).
	EnablePprof bool
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 4096
}

func (c Config) cacheBytes() int64 {
	if c.CacheBytes > 0 {
		return c.CacheBytes
	}
	return 256 << 20
}

// Server is the simulation service: cache, machine pool and executor behind
// an http.Handler. Create one with New and mount Handler.
type Server struct {
	cfg      Config
	cache    *Cache
	pool     *machinePool
	sem      chan struct{}
	jobsRun  atomic.Int64
	queued   atomic.Int64 // submissions waiting for an executor slot
	inflight atomic.Int64 // simulations holding an executor slot
	tel      *obs.Telemetry
	log      *slog.Logger
}

// ServerStats is the /v1/stats body.
type ServerStats struct {
	// Cache snapshots the result-cache counters.
	Cache CacheStats `json:"cache"`
	// JobsRun counts simulations actually executed (cache misses and
	// refreshes); the request count is JobsRun + hits + coalesced.
	JobsRun int64 `json:"jobs_run"`
	// MachineReuses counts jobs that re-seated an idle pooled machine of
	// their shape instead of building one.
	MachineReuses int64 `json:"machine_reuses"`
	// Workers is the executor bound.
	Workers int `json:"workers"`
	// QueueDepth is the number of submissions currently waiting for an
	// executor slot.
	QueueDepth int64 `json:"queue_depth"`
	// InFlight is the number of simulations currently holding an executor
	// slot.
	InFlight int64 `json:"in_flight"`
	// PoolSize is the number of idle flat machines currently pooled, over
	// all shapes (processor count and shard count).
	PoolSize int `json:"pool_size"`
	// PoolBytes is the storage the idle pooled machines retain, bounded by
	// 64 MiB.
	PoolBytes int64 `json:"pool_bytes"`
	// PoolHitRate is MachineReuses over all pool lookups (0 when the pool
	// was never consulted).
	PoolHitRate float64 `json:"pool_hit_rate"`
	// UptimeSeconds is the wall-clock age of the server.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// New builds a Server.
func New(cfg Config) *Server {
	return &Server{
		cfg:   cfg,
		cache: NewCache(cfg.cacheEntries(), cfg.cacheBytes()),
		pool:  newMachinePool(poolBudget),
		sem:   make(chan struct{}, cfg.workers()),
		tel:   obs.NewTelemetry(),
		log:   cfg.Logger,
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	ps := s.pool.stats()
	hitRate := 0.0
	if ps.acquires > 0 {
		hitRate = float64(ps.reuses) / float64(ps.acquires)
	}
	return ServerStats{
		Cache:         s.cache.Stats(),
		JobsRun:       s.jobsRun.Load(),
		MachineReuses: ps.reuses,
		Workers:       s.cfg.workers(),
		QueueDepth:    s.queued.Load(),
		InFlight:      s.inflight.Load(),
		PoolSize:      ps.size,
		PoolBytes:     ps.bytes,
		PoolHitRate:   hitRate,
		UptimeSeconds: s.tel.Uptime().Seconds(),
	}
}

// Handler mounts the service API:
//
//	GET  /healthz            liveness probe
//	GET  /v1/programs        the program registry with arg docs
//	POST /v1/jobs            submit a JobSpec; ?refresh=1 recomputes,
//	                         ?stream=samples streams NDJSON sim-time samples
//	GET  /v1/jobs/{hash}     fetch a cached response by spec hash
//	POST /v1/sweep           expand a parameter grid and run every point
//	GET  /v1/stats           cache and executor counters
//	GET  /metrics            wall-clock service metrics, Prometheus format
//
// Every route is instrumented into the wall-clock telemetry the /metrics
// endpoint exports. Config.EnablePprof additionally mounts the
// net/http/pprof handlers under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.tel.Instrument(route, h))
	}
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	handle("GET /v1/programs", "/v1/programs", s.handlePrograms)
	handle("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs/{hash}", "/v1/jobs/{hash}", s.handleLookup)
	handle("POST /v1/sweep", "/v1/sweep", s.handleSweep)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		obs.MountPprof(mux)
	}
	return mux
}

// runCached executes a normalized spec through the cache on a pooled flat
// machine: concurrent identical submissions coalesce onto one simulation,
// and completed bodies are served byte-identically without re-running. It
// returns the cache entry, whose summary answers sweep points without
// decoding the body. The span (nil for span-free callers like sweep points)
// receives the execute and encode stage latencies when this call actually
// ran the simulation.
func (s *Server) runCached(spec JobSpec, hash string, sp *obs.Span) (e *cacheEntry, hit bool) {
	return s.cache.getOrRun(hash, func() ([]byte, summary, error) {
		s.queued.Add(1)
		s.sem <- struct{}{}
		s.queued.Add(-1)
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.sem
		}()
		s.jobsRun.Add(1)
		execDone := sp.Timer("execute")
		resp, err := runNormalized(spec, s.pool.run)
		execDone()
		if err != nil {
			return nil, summary{}, err
		}
		encDone := sp.Timer("encode")
		body, err := resp.Encode()
		encDone()
		return body, summary{time: resp.Result.Time, messages: resp.Result.Messages}, err
	})
}

// decodeSpec reads and normalizes a JobSpec body, timing the decode and
// normalize stages into sp. Unknown fields are rejected so a misspelled
// knob cannot silently hash to a different job.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request, sp *obs.Span) (JobSpec, bool) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	decDone := sp.Timer("decode")
	err := dec.Decode(&spec)
	decDone()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return JobSpec{}, false
	}
	normDone := sp.Timer("normalize")
	err = spec.Normalize(DefaultLimits)
	normDone()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return JobSpec{}, false
	}
	return spec, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp := obs.NewSpan()
	spec, ok := s.decodeSpec(w, r, sp)
	if !ok {
		s.logRequest(r, "", "", "reject", http.StatusBadRequest, sp)
		return
	}
	hash := spec.Hash()
	if r.URL.Query().Get("refresh") == "1" {
		s.cache.Invalidate(hash)
	}
	t0 := time.Now()
	e, hit := s.runCached(spec, hash, sp)
	body, err := e.body, e.err
	// The cache stage is the GetOrRun bookkeeping — lookup, single-flight
	// coalescing, insertion — net of the simulation the closure may have run.
	sp.Observe("cache", time.Since(t0)-sp.Get("execute")-sp.Get("encode"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		s.logRequest(r, spec.Program, hash, "error", http.StatusBadRequest, sp)
		return
	}
	w.Header().Set("X-Logpsimd-Spec-Hash", hash)
	w.Header().Set("X-Logpsimd-Cache", cacheMark(hit))
	w.Header().Set("X-Logpsimd-Timing", sp.Header())
	if r.URL.Query().Get("stream") == "samples" {
		code := s.streamSamples(w, body)
		s.logRequest(r, spec.Program, hash, cacheMark(hit), code, sp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.logRequest(r, spec.Program, hash, cacheMark(hit), http.StatusOK, sp)
}

// logRequest emits the per-request slog line, when logging is configured.
func (s *Server) logRequest(r *http.Request, program, hash, verdict string, status int, sp *obs.Span) {
	if s.log == nil {
		return
	}
	attrs := append(make([]slog.Attr, 0, 8+len(sp.LogAttrs())),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("program", program),
		slog.String("hash", hash),
		slog.String("cache", verdict),
	)
	attrs = append(attrs, sp.LogAttrs()...)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// streamSamples re-renders a completed response as NDJSON over a chunked
// connection: one line per sim-time sample, then a final line with the spec
// hash, result and output. Requires the spec to have asked for metrics.
// Reports the response status for the request log.
func (s *Server) streamSamples(w http.ResponseWriter, body []byte) int {
	resp, err := DecodeResponse(body)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return http.StatusInternalServerError
	}
	if resp.Metrics == nil {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf(`stream=samples needs the spec to request metrics: {"metrics":{"include":true}}`))
		return http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range resp.Metrics.Samples {
		if err := enc.Encode(&resp.Metrics.Samples[i]); err != nil {
			return http.StatusOK
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	final := struct {
		SpecHash string             `json:"spec_hash"`
		Result   ResultJSON         `json:"result"`
		Output   map[string]float64 `json:"output,omitempty"`
	}{resp.SpecHash, resp.Result, resp.Output}
	enc.Encode(&final)
	if flusher != nil {
		flusher.Flush()
	}
	return http.StatusOK
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	sp := obs.NewSpan()
	hash := r.PathValue("hash")
	lookupDone := sp.Timer("cache")
	body, ok := s.cache.Get(hash)
	lookupDone()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached result for spec hash %q", hash))
		s.logRequest(r, "", hash, "lookup-miss", http.StatusNotFound, sp)
		return
	}
	w.Header().Set("X-Logpsimd-Spec-Hash", hash)
	w.Header().Set("X-Logpsimd-Cache", cacheMark(true))
	w.Header().Set("X-Logpsimd-Timing", sp.Header())
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.logRequest(r, "", hash, "hit", http.StatusOK, sp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// handleMetrics renders the wall-clock service metrics in the Prometheus
// text exposition format: the server-level families (uptime, executor,
// cache, machine pool) assembled from Stats, then the per-route HTTP
// telemetry. Everything rides internal/metrics' deterministic writer; the
// sim-time metric families of individual runs live in response bodies, not
// here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	counter := func(name, help string, v float64) metrics.Family {
		return metrics.Family{Name: name, Help: help, Kind: "counter",
			Points: []metrics.Point{{Value: v}}}
	}
	gauge := func(name, help string, v float64) metrics.Family {
		return metrics.Family{Name: name, Help: help, Kind: "gauge",
			Points: []metrics.Point{{Value: v}}}
	}
	acquires := s.pool.stats().acquires
	fams := []metrics.Family{
		gauge("logpsimd_uptime_seconds", "Wall-clock age of the server.", st.UptimeSeconds),
		counter("logpsimd_jobs_run_total", "Simulations actually executed (cache misses and refreshes).", float64(st.JobsRun)),
		counter("logpsimd_cache_hits_total", "Result-cache hits.", float64(st.Cache.Hits)),
		counter("logpsimd_cache_misses_total", "Result-cache misses.", float64(st.Cache.Misses)),
		counter("logpsimd_cache_coalesced_total", "Submissions coalesced onto an in-flight identical run (single-flight).", float64(st.Cache.Coalesced)),
		counter("logpsimd_cache_evictions_total", "Result-cache evictions.", float64(st.Cache.Evictions)),
		gauge("logpsimd_cache_entries", "Cached response bodies.", float64(st.Cache.Entries)),
		gauge("logpsimd_cache_bytes", "Total size of cached response bodies.", float64(st.Cache.Bytes)),
		counter("logpsimd_sweep_memo_hits_total", "Sweeps answered from the sweep memo without decoding, normalizing or hashing their points.", float64(st.Cache.MemoHits)),
		gauge("logpsimd_sweep_memo_entries", "Sweep requests memoized.", float64(st.Cache.MemoEntries)),
		gauge("logpsimd_sweep_memo_bytes", "Size of the sweep memo: raw request bodies and their points.", float64(st.Cache.MemoBytes)),
		gauge("logpsimd_executor_workers", "Executor slot bound.", float64(st.Workers)),
		gauge("logpsimd_executor_queue_depth", "Submissions waiting for an executor slot.", float64(st.QueueDepth)),
		gauge("logpsimd_executor_in_flight", "Simulations holding an executor slot.", float64(st.InFlight)),
		gauge("logpsimd_machine_pool_size", "Idle flat machines currently pooled, over all shapes.", float64(st.PoolSize)),
		gauge("logpsimd_machine_pool_bytes", "Storage the idle pooled flat machines retain.", float64(st.PoolBytes)),
		counter("logpsimd_machine_pool_acquires_total", "Machine-pool lookups.", float64(acquires)),
		counter("logpsimd_machine_pool_reuses_total", "Machine-pool lookups served by a pooled machine.", float64(st.MachineReuses)),
	}
	fams = append(fams, s.tel.Families()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, metrics.Snapshot{Families: fams})
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	type progInfo struct {
		Name     string `json:"name"`
		Doc      string `json:"doc"`
		DefaultN int    `json:"default_n"`
	}
	var out []progInfo
	for _, name := range progs.Names() {
		n, _ := progs.DefaultN(name)
		out = append(out, progInfo{Name: name, Doc: progs.Doc(name), DefaultN: n})
	}
	writeJSON(w, out)
}

func cacheMark(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

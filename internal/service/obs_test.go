package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/logp-model/logp/internal/obs"
)

// timingStages parses an X-Logpsimd-Timing header into its stage names.
func timingStages(t *testing.T, header string) map[string]bool {
	t.Helper()
	stages := map[string]bool{}
	if header == "" {
		return stages
	}
	for _, part := range strings.Split(header, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok || name == "" || dur == "" {
			t.Fatalf("malformed timing entry %q in %q", part, header)
		}
		stages[name] = true
	}
	return stages
}

// postJobs posts a spec with a query string and returns the full response
// with its body drained.
func postJobs(t *testing.T, url string, spec JobSpec, query string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs"+query, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTimingHeaderAcrossCachePaths pins the span surface: every /v1/jobs
// response carries X-Logpsimd-Timing, the executing request (cold, and a
// forced refresh) reports execute and encode stages, while a cache hit —
// which never runs the simulation — reports decode/normalize/cache only.
// The header is wall-clock observability and must never leak into the body:
// cold and hit bodies stay byte-identical.
func TestTimingHeaderAcrossCachePaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := specBroadcast8()

	cold, coldBody := postJobs(t, ts.URL, spec, "")
	st := timingStages(t, cold.Header.Get("X-Logpsimd-Timing"))
	if !st["decode"] || !st["execute"] || !st["encode"] || !st["cache"] {
		t.Errorf("cold stages %v, want decode+execute+encode+cache", st)
	}

	hit, hitBody := postJobs(t, ts.URL, spec, "")
	if hit.Header.Get("X-Logpsimd-Cache") != "hit" {
		t.Fatalf("second submit not a hit: %q", hit.Header.Get("X-Logpsimd-Cache"))
	}
	st = timingStages(t, hit.Header.Get("X-Logpsimd-Timing"))
	if !st["decode"] || !st["cache"] {
		t.Errorf("hit stages %v, want decode+cache", st)
	}
	if st["execute"] || st["encode"] {
		t.Errorf("hit stages %v: a cache hit must not report simulation stages", st)
	}
	if !bytes.Equal(coldBody, hitBody) {
		t.Error("timing instrumentation changed the cached body")
	}

	refresh, _ := postJobs(t, ts.URL, spec, "?refresh=1")
	st = timingStages(t, refresh.Header.Get("X-Logpsimd-Timing"))
	if !st["execute"] || !st["encode"] {
		t.Errorf("refresh stages %v, want execute+encode (it re-runs)", st)
	}

	// Hash lookup: served straight from the cache, decode-free.
	var hashResp struct {
		SpecHash string `json:"spec_hash"`
	}
	if err := json.Unmarshal(coldBody, &hashResp); err != nil {
		t.Fatal(err)
	}
	get, err := http.Get(ts.URL + "/v1/jobs/" + hashResp.SpecHash)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get.Body)
	get.Body.Close()
	st = timingStages(t, get.Header.Get("X-Logpsimd-Timing"))
	if !st["cache"] || st["execute"] {
		t.Errorf("lookup stages %v, want cache only", st)
	}
}

// TestTimingHeaderOnStream covers the NDJSON path: the headers go out before
// the body streams, so the timing header carries the pre-execution stages
// and the cache/hash headers are still present.
func TestTimingHeaderOnStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{Program: "sum", N: 2000, Machine: MachineSpec{P: 8, L: 5, O: 2, G: 4},
		Metrics: &MetricsSpec{Include: true, Every: 50}}
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs?stream=samples", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Logpsimd-Spec-Hash") == "" {
		t.Error("stream response missing spec-hash header")
	}
	st := timingStages(t, resp.Header.Get("X-Logpsimd-Timing"))
	if !st["decode"] {
		t.Errorf("stream stages %v, want at least decode (headers precede the run)", st)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 3 {
		t.Errorf("stream delivered %d lines; the Flusher passthrough must survive instrumentation", lines)
	}
}

// TestMetricsEndpoint checks GET /metrics: Prometheus content type, the
// service families present, and the request/cache counters advancing with
// traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := specBroadcast8()
	postJobs(t, ts.URL, spec, "")
	postJobs(t, ts.URL, spec, "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"logpsimd_uptime_seconds",
		"logpsimd_jobs_run_total 1",
		"logpsimd_cache_hits_total 1",
		"logpsimd_cache_misses_total 1",
		"logpsimd_executor_queue_depth 0",
		"logpsimd_executor_in_flight 0",
		"logpsimd_machine_pool_acquires_total",
		"logpsimd_machine_pool_bytes",
		`logpsimd_http_requests_total{route="/v1/jobs"} 2`,
		`logpsimd_http_request_us_bucket{route="/v1/jobs",le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The scrape itself is instrumented on the next scrape.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), `logpsimd_http_requests_total{route="/metrics"} 1`) {
		t.Error("second scrape does not count the first")
	}
}

// TestExtendedServerStats covers the wall-clock fields added to /v1/stats:
// executor gauges quiesce to zero between requests, the machine pool reports
// its size, bytes and hit rate per machine shape, and uptime advances.
func TestExtendedServerStats(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	spec := specBroadcast8()
	spec.Engine = "flat"
	postJobs(t, ts.URL, spec, "")
	other := spec
	other.Machine.L = 12
	postJobs(t, ts.URL, other, "") // a new spec of the same shape re-seats the pooled machine
	wide := spec
	wide.Machine.P = 16
	postJobs(t, ts.URL, wide, "") // a new shape builds a machine

	st := srv.Stats()
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Errorf("executor gauges not quiesced: queue %d, in-flight %d", st.QueueDepth, st.InFlight)
	}
	if st.PoolSize != 2 {
		t.Errorf("pool size %d, want 2 (two shapes seen, one run at a time)", st.PoolSize)
	}
	if st.PoolHitRate != 1.0/3 || st.MachineReuses != 1 {
		t.Errorf("pool hit rate %v with %d reuses, want 1/3 (two builds, one reuse)", st.PoolHitRate, st.MachineReuses)
	}
	if st.PoolBytes <= 0 || st.PoolBytes > poolBudget {
		t.Errorf("pool bytes %d, want within (0, %d]", st.PoolBytes, poolBudget)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime %v", st.UptimeSeconds)
	}

	// And the same numbers over HTTP.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got ServerStats
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	if got.PoolSize != 2 || got.PoolBytes != st.PoolBytes || got.UptimeSeconds <= 0 {
		t.Errorf("HTTP stats %+v", got)
	}
}

// TestRequestLogging wires a JSON slog logger into the server and checks the
// per-request line: one line per request with method, status, spec hash,
// cache verdict and stage latencies — execute present on the miss, absent on
// the hit.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Logger: logger})
	spec := specBroadcast8()
	postJobs(t, ts.URL, spec, "")
	postJobs(t, ts.URL, spec, "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2: %q", len(lines), buf.String())
	}
	type reqLine struct {
		Msg       string `json:"msg"`
		Method    string `json:"method"`
		Status    int    `json:"status"`
		Program   string `json:"program"`
		Hash      string `json:"hash"`
		Cache     string `json:"cache"`
		ExecuteUs *int64 `json:"execute_us"`
		DecodeUs  *int64 `json:"decode_us"`
	}
	var miss, hit reqLine
	if err := json.Unmarshal([]byte(lines[0]), &miss); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &hit); err != nil {
		t.Fatal(err)
	}
	if miss.Msg != "request" || miss.Method != "POST" || miss.Status != 200 ||
		miss.Program != "broadcast" || len(miss.Hash) != 64 || miss.Cache != "miss" {
		t.Errorf("miss line %+v", miss)
	}
	if miss.ExecuteUs == nil || miss.DecodeUs == nil {
		t.Errorf("miss line lacks stage latencies: %s", lines[0])
	}
	if hit.Cache != "hit" || hit.Hash != miss.Hash {
		t.Errorf("hit line %+v", hit)
	}
	if hit.ExecuteUs != nil {
		t.Errorf("hit line reports an execute stage: %s", lines[1])
	}
}

// TestPprofGating: the profiling endpoints exist only when EnablePprof is
// set — an unconfigured server must not expose them.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof on: status %d", resp.StatusCode)
	}
}

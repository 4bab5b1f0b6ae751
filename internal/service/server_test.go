package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newTestServer starts a service on httptest with a small worker pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit posts a spec and returns the status, body and cache header.
func submit(t *testing.T, url string, spec JobSpec, query string) (int, []byte, string) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs"+query, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Logpsimd-Cache")
}

// TestSubmitColdThenHitByteIdentical is the determinism-as-cache-key
// acceptance test: a cold run, a cache hit, a hash lookup and a forced
// refresh (which re-runs the simulation on a re-seated pooled machine) must
// all return byte-identical bodies. A different spec of the same machine
// shape re-seats the pooled machine too, and still matches a fresh run byte
// for byte. Both engine spellings run on the pooled flat machines.
func TestSubmitColdThenHitByteIdentical(t *testing.T) {
	for _, engine := range []string{"goroutine", "flat"} {
		t.Run(engine, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Workers: 2})
			spec := specBroadcast8()
			spec.Engine = engine
			spec.Metrics = &MetricsSpec{Include: true}

			code, cold, mark := submit(t, ts.URL, spec, "")
			if code != 200 || mark != "miss" {
				t.Fatalf("cold: status %d, cache %q, body %s", code, mark, cold)
			}
			code, warm, mark := submit(t, ts.URL, spec, "")
			if code != 200 || mark != "hit" {
				t.Fatalf("warm: status %d, cache %q", code, mark)
			}
			if !bytes.Equal(cold, warm) {
				t.Fatal("cache hit body differs from the cold run")
			}

			resp, err := DecodeResponse(cold)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Result.Time != 24 { // Figure 3: optimal broadcast at P=8, L=6, o=2, g=4
				t.Errorf("broadcast finished at %d, want the paper's 24", resp.Result.Time)
			}
			if resp.Output["reached"] != 8 {
				t.Errorf("output %v", resp.Output)
			}
			if resp.Metrics == nil || len(resp.Metrics.Samples) == 0 {
				t.Error("metrics snapshot missing from response")
			}

			// GET by hash serves the same bytes.
			get, err := http.Get(ts.URL + "/v1/jobs/" + resp.SpecHash)
			if err != nil {
				t.Fatal(err)
			}
			byHash, _ := io.ReadAll(get.Body)
			get.Body.Close()
			if get.StatusCode != 200 || !bytes.Equal(byHash, cold) {
				t.Errorf("lookup by hash: status %d, identical=%v", get.StatusCode, bytes.Equal(byHash, cold))
			}

			// refresh=1 re-runs the simulation and must reproduce the bytes.
			code, refreshed, mark := submit(t, ts.URL, spec, "?refresh=1")
			if code != 200 || mark != "miss" {
				t.Fatalf("refresh: status %d, cache %q", code, mark)
			}
			if !bytes.Equal(refreshed, cold) {
				t.Error("refreshed body differs: the simulation is not a pure function of its spec")
			}
			st := srv.Stats()
			if st.JobsRun != 2 {
				t.Errorf("jobs run %d, want 2 (cold + refresh)", st.JobsRun)
			}
			if st.MachineReuses != 1 {
				t.Errorf("machine reuses %d, want 1 (the refresh)", st.MachineReuses)
			}

			// Same P, different parameters, seed and observers: a new hash on
			// the same machine shape.
			other := spec
			other.Machine.L, other.Seed, other.Metrics = 12, 9, nil
			code, body, mark := submit(t, ts.URL, other, "")
			if code != 200 || mark != "miss" {
				t.Fatalf("same-shape spec: status %d, cache %q", code, mark)
			}
			if !bytes.Equal(body, runBody(t, other)) {
				t.Error("same-shape spec on a re-seated machine differs from a fresh run")
			}
			if st := srv.Stats(); st.MachineReuses != 2 {
				t.Errorf("machine reuses %d, want 2 (the refresh and the same-shape spec)", st.MachineReuses)
			}
		})
	}
}

// TestEngineSpellingsShareOneEntry: the daemon runs every job on a pooled
// flat machine and keys it without the engine. A "goroutine" submission
// re-seats the machine an earlier job of its shape left in the pool; the
// same spec spelled "flat" or with no engine is then a hit with identical
// bytes, and those bytes are what the goroutine machine produces through
// Run.
func TestEngineSpellingsShareOneEntry(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	if code, body, mark := submit(t, ts.URL, specBroadcast8(), ""); code != 200 || mark != "miss" {
		t.Fatalf("first job: status %d, cache %q: %s", code, mark, body)
	}
	spec := specBroadcast8()
	spec.Seed, spec.Metrics, spec.IncludeProcs = 9, &MetricsSpec{Include: true, Every: 7}, true
	spec.Engine = "goroutine"
	code, cold, mark := submit(t, ts.URL, spec, "")
	if code != 200 || mark != "miss" {
		t.Fatalf("goroutine spelling: status %d, cache %q: %s", code, mark, cold)
	}
	if st := srv.Stats(); st.JobsRun != 2 || st.MachineReuses != 1 {
		t.Errorf("jobs run %d, machine reuses %d; want 2 and 1 (the goroutine spelling re-seats the pooled machine)",
			st.JobsRun, st.MachineReuses)
	}
	for _, engine := range []string{"flat", ""} {
		spec.Engine = engine
		code, body, mark := submit(t, ts.URL, spec, "")
		if code != 200 || mark != "hit" || !bytes.Equal(body, cold) {
			t.Errorf("engine %q: status %d, cache %q, identical=%v", engine, code, mark, bytes.Equal(body, cold))
		}
	}
	if st := srv.Stats(); st.JobsRun != 2 {
		t.Errorf("jobs run %d, want 2", st.JobsRun)
	}
	if bytes.Contains(cold, []byte(`"engine"`)) {
		t.Errorf("body names an engine:\n%s", cold)
	}
	spec.Engine = "goroutine"
	if !bytes.Equal(cold, runBody(t, spec)) {
		t.Error("daemon body differs from the goroutine machine's through Run")
	}
}

// TestConcurrentIdenticalSubmissionsSingleFlight hammers one spec from many
// clients at once: the daemon must run one simulation and serve everyone the
// same bytes.
func TestConcurrentIdenticalSubmissionsSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})
	spec := JobSpec{Program: "sum", N: 500, Machine: MachineSpec{P: 8, L: 5, O: 2, G: 4}}

	const clients = 32
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := submit(t, ts.URL, spec, "")
			if code != 200 {
				t.Errorf("client %d: status %d: %s", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	if st := srv.Stats(); st.JobsRun != 1 {
		t.Errorf("%d simulations for %d identical submissions", st.JobsRun, clients)
	}
}

// TestSweepEndpoint expands a grid, checks the point order and cache
// amortization, and that a repeated sweep is pure hits with an identical
// body.
func TestSweepEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})
	req := SweepRequest{
		Base: JobSpec{Program: "broadcast", Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}},
		Axes: SweepAxes{P: []int{4, 8}, L: []int64{2, 6}, G: []int64{4, 6}},
	}
	post := func() (int, []byte, http.Header) {
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header
	}

	code, cold, hdr := post()
	if code != 200 {
		t.Fatalf("sweep: status %d: %s", code, cold)
	}
	if hdr.Get("X-Logpsimd-Cache-Misses") != "8" || hdr.Get("X-Logpsimd-Cache-Hits") != "0" {
		t.Errorf("cold sweep headers: hits=%s misses=%s", hdr.Get("X-Logpsimd-Cache-Hits"), hdr.Get("X-Logpsimd-Cache-Misses"))
	}
	var sr SweepResponse
	if err := json.Unmarshal(cold, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 8 {
		t.Fatalf("%d points, want 8", len(sr.Points))
	}
	// Expansion order: P slowest, then L, then g.
	wantPLG := [][3]int64{{4, 2, 4}, {4, 2, 6}, {4, 6, 4}, {4, 6, 6}, {8, 2, 4}, {8, 2, 6}, {8, 6, 4}, {8, 6, 6}}
	for i, p := range sr.Points {
		if [3]int64{int64(p.P), p.L, p.G} != wantPLG[i] {
			t.Errorf("point %d: (P,L,g) = (%d,%d,%d), want %v", i, p.P, p.L, p.G, wantPLG[i])
		}
		if p.Time <= 0 || p.SpecHash == "" {
			t.Errorf("point %d: %+v", i, p)
		}
	}
	// Larger machines at equal (L,o,g) broadcast no faster.
	if sr.Points[4].Time < sr.Points[0].Time {
		t.Errorf("P=8 broadcast (%d) faster than P=4 (%d)", sr.Points[4].Time, sr.Points[0].Time)
	}

	code, warm, hdr := post()
	if code != 200 || hdr.Get("X-Logpsimd-Cache-Hits") != "8" || hdr.Get("X-Logpsimd-Cache-Misses") != "0" {
		t.Fatalf("warm sweep: status %d hits=%s misses=%s", code, hdr.Get("X-Logpsimd-Cache-Hits"), hdr.Get("X-Logpsimd-Cache-Misses"))
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm sweep body differs from cold")
	}
	if st := srv.Stats(); st.JobsRun != 8 {
		t.Errorf("jobs run %d, want 8", st.JobsRun)
	}

	// A sweep over the limit is rejected before running anything.
	big := SweepRequest{Base: req.Base, Axes: SweepAxes{Seed: make([]int64, 5000)}}
	b, _ := json.Marshal(big)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized sweep: status %d", resp.StatusCode)
	}
}

// TestStreamSamples checks the chunked NDJSON leg: one line per sim-time
// sample, then the result line.
func TestStreamSamples(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{Program: "sum", N: 2000, Machine: MachineSpec{P: 8, L: 5, O: 2, G: 4},
		Metrics: &MetricsSpec{Include: true, Every: 50}}
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs?stream=samples", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 3 {
		t.Fatalf("%d NDJSON lines, want samples plus a result line", len(lines))
	}
	var lastTime int64 = -1
	for _, line := range lines[:len(lines)-1] {
		var s struct {
			Time int64 `json:"time"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		if s.Time <= lastTime {
			t.Errorf("sample times not increasing: %d after %d", s.Time, lastTime)
		}
		lastTime = s.Time
	}
	var final struct {
		SpecHash string     `json:"spec_hash"`
		Result   ResultJSON `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.SpecHash == "" || final.Result.Time != lastTime {
		t.Errorf("final line %+v; last sample at %d (the sampler clamps its last sample to the finish time)", final, lastTime)
	}

	// Streaming without metrics in the spec is a 400.
	nospec := specBroadcast8()
	nb, _ := json.Marshal(nospec)
	r2, err := http.Post(ts.URL+"/v1/jobs?stream=samples", "application/json", bytes.NewReader(nb))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Errorf("stream without metrics: status %d", r2.StatusCode)
	}
}

// TestAPIErrorsAndAux covers the small endpoints and the error surface.
func TestAPIErrorsAndAux(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Unknown field in the spec body: rejected, not silently a new spec.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"program":"broadcast","machine":{"p":8,"l":6,"o":2,"g":4},"sede":9}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(string(body), "sede") {
		t.Errorf("unknown field: status %d body %s", resp.StatusCode, body)
	}

	// Bad spec (validation error) and a spec the engine rejects.
	code, body, _ := submit(t, ts.URL, JobSpec{Program: "nosuch", Machine: MachineSpec{P: 2, L: 1, O: 1, G: 1}}, "")
	if code != 400 || !strings.Contains(string(body), "unknown program") {
		t.Errorf("unknown program: status %d body %s", code, body)
	}
	code, body, _ = submit(t, ts.URL, JobSpec{Program: "alltoall", Work: 1 << 62, Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}}, "")
	if code != 400 || !strings.Contains(string(body), "past the int64 cycle count") {
		t.Errorf("compute past the clock: status %d body %s", code, body)
	}
	// A send past the clock, by its flight or by its gap bound, is a 400
	// too, and a failed spec is not cached or left in flight: the second
	// submission runs and fails again.
	for _, tc := range []struct{ spec, want string }{
		{sendPastTheClock, "send of 6 cycles"},
		{gapPastTheClock, "send of 839999999999999998 cycles"},
	} {
		for i := 0; i < 2; i++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.spec))
			if err != nil {
				t.Fatalf("%s, submission %d: %v", tc.spec, i+1, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 400 || !strings.Contains(string(body), tc.want) {
				t.Errorf("%s, submission %d: status %d body %s", tc.spec, i+1, resp.StatusCode, body)
			}
		}
	}

	// Specs whose latency draws could leave int64 fail validation.
	for _, spec := range []string{latencyDrawPastInt64, flightPastInt64} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 || !strings.Contains(string(body), "int64") {
			t.Errorf("%s: status %d body %s", spec, resp.StatusCode, body)
		}
	}

	// Missing hash is a JSON 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 || !strings.Contains(string(body), "error") {
		t.Errorf("missing hash: status %d body %s", resp.StatusCode, body)
	}

	// healthz, programs, stats.
	for _, path := range []string{"/healthz", "/v1/programs", "/v1/stats"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != 200 || len(b) == 0 {
			t.Errorf("%s: status %d, %d bytes", path, r.StatusCode, len(b))
		}
		if path == "/v1/programs" && !strings.Contains(string(b), `"default_n": 1000`) {
			t.Errorf("programs listing missing sum default: %s", b)
		}
	}
}

// TestCacheEvictionAcrossSpecs drives more distinct specs than the cache
// holds and checks the bound is respected while everything still runs.
func TestCacheEvictionAcrossSpecs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 3})
	for seed := int64(1); seed <= 6; seed++ {
		spec := specBroadcast8()
		spec.Seed = seed
		if code, body, _ := submit(t, ts.URL, spec, ""); code != 200 {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
	}
	st := srv.Stats()
	if st.Cache.Entries > 3 {
		t.Errorf("cache holds %d entries past the bound 3", st.Cache.Entries)
	}
	if st.Cache.Evictions != 3 || st.JobsRun != 6 {
		t.Errorf("stats %+v", st)
	}
}

// TestResponseGoldenShape pins the response body shape with a small golden
// fragment, so accidental encoding changes (field renames, indent changes)
// are caught the same way the spec hash is.
func TestResponseGoldenShape(t *testing.T) {
	resp, err := Run(specBroadcast8())
	if err != nil {
		t.Fatal(err)
	}
	body, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\"spec_hash\": \"" + resp.SpecHash + "\"",
		`"program": "broadcast"`,
		`"time": 24`,
		`"messages": 7`,
		`"predicted_finish": 24`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("encoded body missing %s:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), `"engine"`) {
		t.Errorf("encoded body names an engine:\n%s", body)
	}
	if body[len(body)-1] != '\n' {
		t.Error("body does not end in newline")
	}
}

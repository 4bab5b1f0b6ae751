package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/topo"
)

// runBody is the reference body for spec: service.Run on a fresh machine,
// encoded, with no cache and no pool.
func runBody(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	resp, err := Run(spec)
	if err != nil {
		t.Fatalf("Run(%+v): %v", spec, err)
	}
	body, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postSweep posts a sweep request and returns its status, body and hit and
// miss headers.
func postSweep(t *testing.T, url string, req SweepRequest) (int, []byte, string, string) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Error(err)
		return 0, nil, "", ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Logpsimd-Cache-Hits"), resp.Header.Get("X-Logpsimd-Cache-Misses")
}

// checkSweepPoints compares every point of a sweep body with a fresh run of
// the point's spec: hash, time and message count.
func checkSweepPoints(t *testing.T, req SweepRequest, body []byte) {
	t.Helper()
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("sweep body %s: %v", body, err)
	}
	specs, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != len(specs) {
		t.Fatalf("%d points, want %d", len(sr.Points), len(specs))
	}
	for i, spec := range specs {
		want, err := DecodeResponse(runBody(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		p := sr.Points[i]
		if p.SpecHash != want.SpecHash || p.Time != want.Result.Time || p.Messages != want.Result.Messages {
			t.Errorf("point %d: %+v, fresh run: hash %s time %d messages %d",
				i, p, want.SpecHash[:12], want.Result.Time, want.Result.Messages)
		}
	}
}

// TestPoolSameShapeConcurrent drives same-shape flat jobs and sweeps from
// several goroutines at once, so executor slots re-seat each other's
// machines and the pool holds several idle machines of one shape. Every
// body must be byte-identical to service.Run's, machines must actually be
// reused, and the pool must stay within its byte budget.
func TestPoolSameShapeConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})
	tiers := &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}
	var jobs []JobSpec
	for i := 0; i < 24; i++ {
		spec := JobSpec{
			Program: progs.Names()[i%len(progs.Names())],
			Engine:  "flat",
			Machine: MachineSpec{P: 16, L: int64(6 + i%3*6), O: 2, G: 4, LatencyJitter: int64(i % 2)},
			Seed:    int64(i + 1),
		}
		switch i % 4 {
		case 1:
			spec.Machine.NoCapacity = true
		case 2:
			spec.Machine.Topology = tiers
		case 3:
			spec.Metrics = &MetricsSpec{Include: true}
		}
		jobs = append(jobs, spec)
	}
	// Sweeps over the same shape, with capacity on and off, share machines
	// with the jobs above.
	sweeps := []SweepRequest{
		{Base: JobSpec{Program: "alltoall", Engine: "flat", N: 2, Machine: MachineSpec{P: 16, L: 6, O: 2, G: 4}},
			Axes: SweepAxes{L: []int64{6, 12}, Seed: []int64{1, 2, 3}}},
		{Base: JobSpec{Program: "chain", Engine: "flat", Machine: MachineSpec{P: 16, L: 6, O: 2, G: 4, NoCapacity: true}},
			Axes: SweepAxes{G: []int64{4, 8}, Seed: []int64{4, 5}}},
	}

	const clients = 4
	bodies := make([][]byte, len(jobs))
	sweepBodies := make([][]byte, len(sweeps)*2)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += clients {
				b, err := json.Marshal(jobs[i])
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				bodies[i], err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("job %d: status %d, %v: %s", i, resp.StatusCode, err, bodies[i])
				}
			}
		}(c)
	}
	for i := range sweepBodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _, _ := postSweep(t, ts.URL, sweeps[i%len(sweeps)])
			if code != 200 {
				t.Errorf("sweep %d: status %d: %s", i, code, body)
			}
			sweepBodies[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, spec := range jobs {
		if want := runBody(t, spec); !bytes.Equal(bodies[i], want) {
			t.Errorf("job %d (%s): pooled body differs from service.Run's", i, spec.Program)
		}
	}
	for i, body := range sweepBodies {
		checkSweepPoints(t, sweeps[i%len(sweeps)], body)
	}
	st := srv.Stats()
	if st.MachineReuses == 0 {
		t.Errorf("no machine was reused: %+v", st)
	}
	if st.PoolBytes <= 0 || st.PoolBytes > poolBudget {
		t.Errorf("pool retains %d bytes, want (0, %d]", st.PoolBytes, poolBudget)
	}
}

// TestPoolKeysByShardCount pins the second half of the shape key: a machine
// built for one shard count never serves a job of another, even at the same
// P. Capacity-off sharded runs report in-transit maxima as zero where the
// sequential kernel tracks them, so a mixed-up machine changes the body.
func TestPoolKeysByShardCount(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Program: "alltoall", Engine: "flat",
		Machine: MachineSpec{P: 16, L: 6, O: 2, G: 4, NoCapacity: true}}
	sharded := spec
	sharded.Shards = 4
	for i, s := range []JobSpec{spec, sharded, spec, sharded} {
		s.Seed = int64(i + 1)
		code, body, _ := submit(t, ts.URL, s, "")
		if code != 200 {
			t.Fatalf("job %d: status %d: %s", i, code, body)
		}
		if !bytes.Equal(body, runBody(t, s)) {
			t.Errorf("job %d (shards %d): pooled body differs from service.Run's", i, s.Shards)
		}
	}
	if st := srv.Stats(); st.PoolSize != 2 || st.MachineReuses != 2 {
		t.Errorf("pool size %d with %d reuses, want one machine per shard count and 2 reuses",
			st.PoolSize, st.MachineReuses)
	}
}

// TestSweepSummariesAfterEvictionAndRefresh pins that sweep points read
// from stored summaries keep matching the bodies when entries are evicted
// and re-filled, and when ?refresh=1 re-runs a point.
func TestSweepSummariesAfterEvictionAndRefresh(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 4})
	req := SweepRequest{
		Base: JobSpec{Program: "sum", N: 100, Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4}},
		Axes: SweepAxes{L: []int64{4, 6, 8, 10}, Seed: []int64{1, 2}},
	}
	code, cold, _, misses := postSweep(t, ts.URL, req)
	if code != 200 || misses != "8" {
		t.Fatalf("cold sweep: status %d, misses %s: %s", code, misses, cold)
	}
	checkSweepPoints(t, req, cold)

	// Only four of the eight points fit: the second pass re-runs evicted
	// points and serves the rest from summaries, with identical bytes.
	code, warm, hits, misses := postSweep(t, ts.URL, req)
	if code != 200 || hits == "8" || misses == "0" {
		t.Fatalf("sweep past the cache bound: status %d, hits %s, misses %s", code, hits, misses)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("sweep body changed after evictions")
	}

	// Refresh one resident point, then sweep a grid of resident points only.
	specs, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	last := specs[len(specs)-1]
	if code, body, mark := submit(t, ts.URL, last, "?refresh=1"); code != 200 || mark != "miss" {
		t.Fatalf("refresh: status %d, cache %q: %s", code, mark, body)
	} else if !bytes.Equal(body, runBody(t, last)) {
		t.Error("refreshed body differs from service.Run's")
	}
	tail := SweepRequest{Base: req.Base, Axes: SweepAxes{L: []int64{10}, Seed: []int64{1, 2}}}
	code, body, hits, _ := postSweep(t, ts.URL, tail)
	if code != 200 || hits != "2" {
		t.Fatalf("resident sweep: status %d, hits %s: %s", code, hits, body)
	}
	checkSweepPoints(t, tail, body)
}

// TestSweepLeadingHitsInOrder: a sweep whose first points are cached gives
// the same hit and miss counts and the same body as the per-point route.
// A hot re-sweep, a memo hit, moves its points to the LRU front in
// expansion order, so the next eviction takes the sweep's first point and
// no other.
func TestSweepLeadingHitsInOrder(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 8})
	req := SweepRequest{
		Base: JobSpec{Program: "broadcast", Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}},
		Axes: SweepAxes{L: []int64{2, 6}, G: []int64{4, 6}, Seed: []int64{1, 2}},
	}
	specs, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	// Points 0-2 lead with hits; point 3 is the first miss, and point 5 is a
	// hit among the fanned-out rest.
	for _, k := range []int{0, 1, 2, 5} {
		if code, body, _ := submit(t, ts.URL, specs[k], ""); code != 200 {
			t.Fatalf("point %d: status %d: %s", k, code, body)
		}
	}
	code, body, hits, misses := postSweep(t, ts.URL, req)
	if code != 200 || hits != "4" || misses != "4" {
		t.Fatalf("partly cached sweep: status %d, hits %s, misses %s: %s", code, hits, misses, body)
	}
	checkSweepPoints(t, req, body)
	if st := srv.Stats(); st.Cache.Hits != 4 || st.Cache.Misses != 8 || st.JobsRun != 8 {
		t.Errorf("after the sweep: %+v, want 4 hits, 8 misses and 8 jobs run", st)
	}

	if code, warm, hits, _ := postSweep(t, ts.URL, req); code != 200 || hits != "8" || !bytes.Equal(warm, body) {
		t.Fatalf("hot sweep: status %d, hits %s, same body %v", code, hits, bytes.Equal(warm, body))
	}
	other := req.Base
	other.Seed = 3
	if code, body, _ := submit(t, ts.URL, other, ""); code != 200 {
		t.Fatalf("ninth spec: status %d: %s", code, body)
	}
	for k, spec := range specs {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + spec.Hash())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := map[bool]int{true: 404, false: 200}[k == 0]; resp.StatusCode != want {
			t.Errorf("point %d after one eviction: status %d, want %d", k, resp.StatusCode, want)
		}
	}
}

// TestMachinePoolBudget exercises the pool directly: several idle machines
// per shape, least recently released taken first and evicted first past the
// byte budget, and a machine larger than the budget never kept.
func TestMachinePoolBudget(t *testing.T) {
	build := func(p int) *flat.Machine {
		m, err := flat.New(logp.Config{Params: core.Params{P: p, L: 6, O: 2, G: 4}},
			progs.NewAllToAll(p, 1, 0, 1, true), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	small, big := poolKey{p: 8, shards: 1}, poolKey{p: 32, shards: 1}
	a, b, c := build(8), build(8), build(32)
	sa, sc := a.StorageBytes(), c.StorageBytes()
	if sa <= 0 || sc <= sa {
		t.Fatalf("storage: P=8 %d bytes, P=32 %d bytes", sa, sc)
	}

	pool := newMachinePool(2*sa + sc)
	pool.release(small, a)
	pool.release(small, b)
	pool.release(big, c)
	if st := pool.stats(); st.size != 3 || st.bytes != 2*sa+sc {
		t.Fatalf("three machines within budget: %+v", st)
	}
	if got := pool.acquire(small); got != a {
		t.Error("acquire did not return the shape's least recently released machine")
	}
	pool.release(small, a)
	// One more P=32 machine overflows the budget. Eviction runs from the
	// least recently released: b, then c, leaving a and d.
	d := build(32)
	pool.release(big, d)
	if st := pool.stats(); st.size != 2 || st.bytes != sa+d.StorageBytes() {
		t.Errorf("after overflow: %+v, want a and d (%d bytes)", st, sa+d.StorageBytes())
	}
	if got := pool.acquire(big); got != d {
		t.Error("the surviving P=32 machine is not the recently released one")
	}
	if got := pool.acquire(small); got != a {
		t.Error("the surviving P=8 machine is not the recently released one")
	}
	if got := pool.acquire(small); got != nil {
		t.Error("evicted machine still pooled")
	}
	if st := pool.stats(); st.size != 0 || st.bytes != 0 || st.acquires != 4 || st.reuses != 3 {
		t.Errorf("drained pool %+v, want empty after 4 acquires and 3 reuses", st)
	}

	// A machine larger than the whole budget is dropped without flushing
	// the machines already pooled.
	tiny := newMachinePool(sa)
	tiny.release(small, a)
	tiny.release(big, c)
	if st := tiny.stats(); st.size != 1 || st.bytes != sa {
		t.Errorf("after releasing a machine larger than the budget: %+v, want only the P=8 machine", st)
	}
}

// TestDeadlockJobReleasesGoroutines runs a job that deadlocks (every message
// dropped) on both engines and checks no goroutine outlives it: the
// goroutine engine unwinds its blocked processors, and the error message
// stays short however many processors block.
func TestDeadlockJobReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, engine := range []string{"goroutine", "flat"} {
		spec := JobSpec{Program: "broadcast", Engine: engine,
			Machine: MachineSpec{P: 64, L: 6, O: 2, G: 4}, Faults: &FaultSpec{Drop: 1}}
		_, err := Run(spec)
		if err == nil {
			t.Fatalf("%s: the all-drop broadcast did not deadlock", engine)
		}
		if msg := err.Error(); len(msg) > 400 {
			t.Errorf("%s: %d-byte error: %s", engine, len(msg), msg)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the job, %d before", engine, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}

// BenchmarkSweepHit times one 48-point all-hit sweep through the handler:
// a sweep memo hit, which reads the body, takes the cache lock once and
// writes the response, with no decode, Normalize or Hash, no simulation
// and no network.
func BenchmarkSweepHit(b *testing.B) {
	srv := New(Config{Workers: 2})
	h := srv.Handler()
	req, err := json.Marshal(SweepRequest{
		Base: JobSpec{Program: "sum", Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4}},
		Axes: SweepAxes{P: []int{8, 16}, L: []int64{6, 12, 24}, G: []int64{4, 8}, Seed: []int64{1, 2, 3, 4}},
	})
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(req)))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	sweep() // fill the cache
	if st := srv.Stats(); st.JobsRun != 48 {
		b.Fatalf("%d jobs run, want 48", st.JobsRun)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	if st := srv.Stats(); st.JobsRun != 48 {
		b.Fatalf("timed sweeps ran %d simulations", st.JobsRun-48)
	}
}

// BenchmarkSweepFallback times a sweep's full path, the one below the memo:
// decoding, expansion, Normalize and Hash per point, the cache and the body
// write, with no network. all-hit re-sweeps one cached 48-point grid.
// overlap alternates two 48-point grids that share their first 24 points,
// through a cache of 48 entries: each sweep hits those 24 and re-runs the
// 24 points the other grid evicted.
func BenchmarkSweepFallback(b *testing.B) {
	grid := func(p int) []byte {
		req, err := json.Marshal(SweepRequest{
			Base: JobSpec{Program: "sum", Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4}},
			Axes: SweepAxes{P: []int{8, p}, L: []int64{6, 12, 24}, G: []int64{4, 8}, Seed: []int64{1, 2, 3, 4}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return req
	}
	for _, tc := range []struct {
		name    string
		grids   [][]byte
		entries int
	}{
		{"all-hit", [][]byte{grid(16)}, 0},
		{"overlap", [][]byte{grid(16), grid(32)}, 48},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv := New(Config{Workers: 2, CacheEntries: tc.entries})
			sweep := func(i int) (hits int) {
				points, hits, _, err := srv.sweep(tc.grids[i%len(tc.grids)])
				if err != nil {
					b.Fatal(err)
				}
				(&SweepResponse{Points: points}).writeTo(io.Discard)
				return hits
			}
			sweep(0) // fill the cache
			if hits := sweep(1); hits != 48-24*(len(tc.grids)-1) {
				b.Fatalf("%d hits in the second sweep", hits)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(i)
			}
		})
	}
}

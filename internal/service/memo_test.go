package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// memoGrid is the 8-point sweep the memo tests repeat.
var memoGrid = SweepRequest{
	Base: JobSpec{Program: "broadcast", Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}},
	Axes: SweepAxes{L: []int64{2, 6}, G: []int64{4, 6}, Seed: []int64{1, 2}},
}

// sweepReply is one /v1/sweep reply.
type sweepReply struct {
	code         int
	body         []byte
	hits, misses string
}

// postRaw posts raw bytes to /v1/sweep.
func postRaw(t *testing.T, url string, body []byte) sweepReply {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return sweepReply{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return sweepReply{resp.StatusCode, b, resp.Header.Get("X-Logpsimd-Cache-Hits"), resp.Header.Get("X-Logpsimd-Cache-Misses")}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wantSweep fails t unless r is a 200 with body and the given hit and miss
// headers.
func wantSweep(t *testing.T, name string, r sweepReply, body []byte, hits, misses int) {
	t.Helper()
	if r.code != 200 || r.hits != fmt.Sprint(hits) || r.misses != fmt.Sprint(misses) || !bytes.Equal(r.body, body) {
		t.Fatalf("%s: status %d, hits %s, misses %s, same body %v; want 200, %d hits, %d misses, same body: %s",
			name, r.code, r.hits, r.misses, bytes.Equal(r.body, body), hits, misses, r.body)
	}
}

// statsDelta is the change in the counters a sweep moves.
type statsDelta struct{ hits, misses, coalesced, memoHits, jobs int64 }

func delta(before, after ServerStats) statsDelta {
	return statsDelta{
		hits: after.Cache.Hits - before.Cache.Hits, misses: after.Cache.Misses - before.Cache.Misses,
		coalesced: after.Cache.Coalesced - before.Cache.Coalesced,
		memoHits:  after.Cache.MemoHits - before.Cache.MemoHits, jobs: after.JobsRun - before.JobsRun,
	}
}

// TestSweepMemoHit: a repeated sweep is a memo hit with the same body and
// headers as the full path, counts a cache hit per point and moves the
// points to the LRU front in expansion order; /v1/stats and /metrics report
// the memo.
func TestSweepMemoHit(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 9})
	body := mustMarshal(t, memoGrid)
	cold := postRaw(t, ts.URL, body)
	wantSweep(t, "cold sweep", cold, cold.body, 0, 8)
	if st := srv.Stats().Cache; st.MemoEntries != 1 || st.MemoHits != 0 || st.MemoBytes <= int64(len(body)) {
		t.Fatalf("after the cold sweep: %+v, want one memo and no memo hit", st)
	}
	before := srv.Stats()
	wantSweep(t, "hot sweep", postRaw(t, ts.URL, body), cold.body, 8, 0)
	if d := delta(before, srv.Stats()); d != (statsDelta{hits: 8, memoHits: 1}) {
		t.Errorf("hot sweep moved %+v, want 8 hits and one memo hit", d)
	}

	// The hit left point 0 least recently used: the next entry filed past
	// the bound evicts it and no other point.
	specs, err := memoGrid.expand()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(3); seed <= 4; seed++ {
		other := memoGrid.Base
		other.Seed = seed
		if code, b, _ := submit(t, ts.URL, other, ""); code != 200 {
			t.Fatalf("seed %d: status %d: %s", seed, code, b)
		}
	}
	for k, spec := range specs {
		if _, ok := srv.cache.Get(spec.Hash()); ok != (k > 0) {
			t.Errorf("point %d resident %v after one eviction", k, ok)
		}
	}

	var stats ServerStats
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.MemoHits != 1 || stats.Cache.MemoEntries != 1 || stats.Cache.MemoBytes != srv.Stats().Cache.MemoBytes {
		t.Errorf("/v1/stats cache block %+v", stats.Cache)
	}
	metrics := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"logpsimd_sweep_memo_hits_total 1\n",
		"logpsimd_sweep_memo_entries 1\n",
		fmt.Sprintf("logpsimd_sweep_memo_bytes %d\n", stats.Cache.MemoBytes),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return b
}

// TestSweepMemoFallsBack: a memo whose point was evicted, or is being
// re-run by a refresh, answers nothing; the sweep takes the full path with
// the body, headers and counts that path gives, and the next sweep is a
// memo hit again. A refresh that has completed files the same hash with
// the same bytes, which the memo reads like any other entry.
func TestSweepMemoFallsBack(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 9})
	body := mustMarshal(t, memoGrid)
	cold := postRaw(t, ts.URL, body)
	wantSweep(t, "cold sweep", cold, cold.body, 0, 8)
	wantSweep(t, "hot sweep", postRaw(t, ts.URL, body), cold.body, 8, 0)
	specs, err := memoGrid.expand()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("evicted", func(t *testing.T) {
		// Two more entries evict point 0, which the hot sweep left least
		// recently used. Looking the other points up puts the extra entry
		// that is left at the LRU tail, so the re-run of point 0 evicts it
		// and not a sweep point.
		for seed := int64(3); seed <= 4; seed++ {
			other := memoGrid.Base
			other.Seed = seed
			if code, b, _ := submit(t, ts.URL, other, ""); code != 200 {
				t.Fatalf("seed %d: status %d: %s", seed, code, b)
			}
		}
		for _, spec := range specs[1:] {
			getBody(t, ts.URL+"/v1/jobs/"+spec.Hash())
		}
		before := srv.Stats()
		wantSweep(t, "sweep after an eviction", postRaw(t, ts.URL, body), cold.body, 7, 1)
		if d := delta(before, srv.Stats()); d != (statsDelta{hits: 7, misses: 1, jobs: 1}) {
			t.Errorf("sweep after an eviction moved %+v, want 7 hits, one miss and one job", d)
		}
		before = srv.Stats()
		wantSweep(t, "next sweep", postRaw(t, ts.URL, body), cold.body, 8, 0)
		if d := delta(before, srv.Stats()); d != (statsDelta{hits: 8, memoHits: 1}) {
			t.Errorf("next sweep moved %+v, want a memo hit", d)
		}
	})

	t.Run("refresh-in-flight", func(t *testing.T) {
		// Re-run point 3 as ?refresh=1 does, holding the run until the sweep
		// has coalesced onto it.
		spec := specs[3]
		hash := spec.Hash()
		resp, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		refreshed, err := resp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()
		srv.cache.Invalidate(hash)
		release := make(chan struct{})
		ran := make(chan struct{})
		go func() {
			defer close(ran)
			srv.cache.getOrRun(hash, func() ([]byte, summary, error) {
				<-release
				return refreshed, summary{time: resp.Result.Time, messages: resp.Result.Messages}, nil
			})
		}()
		// waitFor polls the counters until cond holds: the refresh is in
		// flight, then the sweep has coalesced onto it.
		waitFor := func(what string, cond func(CacheStats) bool) {
			for deadline := time.Now().Add(10 * time.Second); !cond(srv.Stats().Cache); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					close(release)
					t.Fatal(what)
				}
			}
		}
		waitFor("the refresh did not start", func(st CacheStats) bool { return st.Misses > before.Cache.Misses })
		reply := make(chan sweepReply, 1)
		go func() { reply <- postRaw(t, ts.URL, body) }()
		waitFor("the sweep did not wait on the refresh", func(st CacheStats) bool { return st.Coalesced > before.Cache.Coalesced })
		close(release)
		<-ran
		// The coalesced point counts as a hit in the header, as on the full
		// path; the other 7 are plain hits.
		wantSweep(t, "sweep during a refresh", <-reply, cold.body, 8, 0)
		if d := delta(before, srv.Stats()); d != (statsDelta{hits: 7, misses: 1, coalesced: 1}) {
			t.Errorf("sweep during a refresh moved %+v, want the refresh's miss, 7 hits and one coalesced", d)
		}
		before = srv.Stats()
		wantSweep(t, "next sweep", postRaw(t, ts.URL, body), cold.body, 8, 0)
		if d := delta(before, srv.Stats()); d != (statsDelta{hits: 8, memoHits: 1}) {
			t.Errorf("next sweep moved %+v, want a memo hit", d)
		}
	})

	t.Run("refresh-done", func(t *testing.T) {
		if code, b, mark := submit(t, ts.URL, specs[5], "?refresh=1"); code != 200 || mark != "miss" {
			t.Fatalf("refresh: status %d, cache %q: %s", code, mark, b)
		}
		before := srv.Stats()
		wantSweep(t, "sweep after a refresh", postRaw(t, ts.URL, body), cold.body, 8, 0)
		if d := delta(before, srv.Stats()); d != (statsDelta{hits: 8, memoHits: 1}) {
			t.Errorf("sweep after a refresh moved %+v, want a memo hit", d)
		}
	})
}

// TestSweepMemoSkipsFailures: a sweep with a point that fails to run, or
// that fails to expand, answers 400 with the same error every time and is
// never memoized.
func TestSweepMemoSkipsFailures(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	runFails := SweepRequest{
		Base: JobSpec{Program: "alltoall", Machine: MachineSpec{P: 4, L: 6, O: 2, G: 4}},
		Axes: SweepAxes{G: []int64{4, 840000000000000000}},
	}
	expandFails := SweepRequest{Base: runFails.Base, Axes: SweepAxes{P: []int{4, -1}}}
	for _, tc := range []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"run", runFails, "sweep point 1"},
		{"expand", expandFails, "sweep point 1"},
	} {
		body := mustMarshal(t, tc.req)
		var first []byte
		for i := 0; i < 2; i++ {
			r := postRaw(t, ts.URL, body)
			if r.code != 400 || !strings.Contains(string(r.body), tc.want) {
				t.Fatalf("%s, post %d: status %d: %s", tc.name, i+1, r.code, r.body)
			}
			if i == 0 {
				first = r.body
			} else if !bytes.Equal(r.body, first) {
				t.Errorf("%s: second error %s, first %s", tc.name, r.body, first)
			}
		}
	}
	if st := srv.Stats().Cache; st.MemoEntries != 0 || st.MemoBytes != 0 || st.MemoHits != 0 {
		t.Errorf("failing sweeps memoized: %+v", st)
	}
}

// TestSweepMemoConcurrent: identical sweeps posted at once, cold and then
// hot, all get the same body, and every point runs once.
func TestSweepMemoConcurrent(t *testing.T) {
	const clients = 8
	srv, ts := newTestServer(t, Config{Workers: 2})
	body := mustMarshal(t, memoGrid)
	round := func() [clients]sweepReply {
		var out [clients]sweepReply
		var wg sync.WaitGroup
		wg.Add(clients)
		for i := range out {
			go func(i int) {
				defer wg.Done()
				out[i] = postRaw(t, ts.URL, body)
			}(i)
		}
		wg.Wait()
		return out
	}
	cold := round()
	for i, r := range cold {
		if r.code != 200 || !bytes.Equal(r.body, cold[0].body) {
			t.Fatalf("cold client %d: status %d, same body %v", i, r.code, bytes.Equal(r.body, cold[0].body))
		}
	}
	if st := srv.Stats(); st.JobsRun != 8 || st.Cache.MemoEntries != 1 {
		t.Fatalf("after the cold round: %d jobs run, %d memos; want 8 and 1", st.JobsRun, st.Cache.MemoEntries)
	}
	before := srv.Stats()
	for i, r := range round() {
		wantSweep(t, fmt.Sprintf("hot client %d", i), r, cold[0].body, 8, 0)
	}
	if d := delta(before, srv.Stats()); d != (statsDelta{hits: 8 * clients, memoHits: clients}) {
		t.Errorf("hot round moved %+v, want %d memo hits and no job", d, clients)
	}
}

// TestSweepMemoBound: a flood of distinct spellings of one grid, in
// whitespace and key order, never takes the memo past maxMemoBytes, nor
// does one body larger than the bound, which is answered but not memoized.
// Eviction is least recently used: a spelling re-posted between the flood's
// posts stays a memo hit throughout.
func TestSweepMemoBound(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	canonical := mustMarshal(t, memoGrid)
	cold := postRaw(t, ts.URL, canonical)
	wantSweep(t, "cold sweep", cold, cold.body, 0, 8)
	base, axes := mustMarshal(t, memoGrid.Base), mustMarshal(t, memoGrid.Axes)
	spelling := func(i int) []byte {
		pad := strings.Repeat(" ", 64<<10+i)
		if i%2 == 0 {
			return []byte(`{"base":` + string(base) + `,` + pad + `"axes":` + string(axes) + `}`)
		}
		return []byte(`{"axes":` + string(axes) + `,"base":` + string(base) + pad + `}`)
	}
	memoHits := srv.Stats().Cache.MemoHits
	for i := 0; i < 40; i++ {
		wantSweep(t, fmt.Sprintf("spelling %d", i), postRaw(t, ts.URL, spelling(i)), cold.body, 8, 0)
		if st := srv.Stats().Cache; st.MemoBytes > maxMemoBytes || st.MemoEntries < 1 {
			t.Fatalf("after spelling %d: memo of %d entries, %d bytes; bound %d", i, st.MemoEntries, st.MemoBytes, maxMemoBytes)
		}
		wantSweep(t, "canonical spelling", postRaw(t, ts.URL, canonical), cold.body, 8, 0)
		if memoHits++; srv.Stats().Cache.MemoHits != memoHits {
			t.Fatalf("after spelling %d, the canonical spelling was not a memo hit", i)
		}
	}

	huge := append(bytes.Repeat([]byte(" "), maxMemoBytes), canonical...)
	before := srv.Stats()
	for i := 0; i < 2; i++ {
		wantSweep(t, "body past the memo bound", postRaw(t, ts.URL, huge), cold.body, 8, 0)
	}
	after := srv.Stats()
	if after.Cache.MemoHits != before.Cache.MemoHits || after.Cache.MemoEntries != before.Cache.MemoEntries ||
		after.Cache.MemoBytes != before.Cache.MemoBytes {
		t.Errorf("a body past the bound touched the memo: %+v, then %+v", before.Cache, after.Cache)
	}
}

// TestSweepBodyErrors: an oversized or malformed sweep body gets the error
// text it got before sweeps were memoized.
func TestSweepBodyErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	oversized := []byte(`{"base":{"program":"broadcast","machine":{"p":4,"l":6,"o":2,"g":4}},"axes":{"seed":[` +
		strings.Repeat("1,", 2<<20) + `1]}}`)
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"oversized", oversized, "decoding sweep: http: request body too large"},
		{"empty", nil, "decoding sweep: EOF"},
		{"truncated", []byte(`{"base":`), "decoding sweep: unexpected EOF"},
		{"syntax", []byte(`{"base":}`), "decoding sweep: invalid character '}' looking for beginning of value"},
		{"unknown field", []byte(`{"base":{},"axes":{},"bogus":1}`), `decoding sweep: json: unknown field \"bogus\"`},
	} {
		r := postRaw(t, ts.URL, tc.body)
		if r.code != 400 || !strings.Contains(string(r.body), `"error":"`+tc.want+`"`) {
			t.Errorf("%s: status %d: %s", tc.name, r.code, r.body)
		}
	}
}

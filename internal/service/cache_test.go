package service

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight fires many concurrent lookups of one hash whose
// computation is slow: exactly one run must execute and every caller must
// get the same byte slice.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(16, 0)
	var runs atomic.Int64
	gate := make(chan struct{})
	const callers = 64

	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, hit, err := c.GetOrRun("h1", func() ([]byte, error) {
				runs.Add(1)
				<-gate // hold every other caller in the coalesced path
				return []byte("result-bytes"), nil
			})
			if err != nil {
				t.Error(err)
			}
			bodies[i], hits[i] = body, hit
		}(i)
	}
	// Wait until the one in-flight run exists, then release it. Coalesced
	// callers may still be en route; GetOrRun handles both orders.
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d runs for %d concurrent identical submissions", got, callers)
	}
	misses := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], []byte("result-bytes")) {
			t.Fatalf("caller %d got %q", i, bodies[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want exactly the runner", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != callers-1 {
		t.Errorf("stats %+v", st)
	}
}

// TestCacheHitIsByteIdentical runs a miss then a hit and checks the hit
// serves the exact bytes without re-running.
func TestCacheHitIsByteIdentical(t *testing.T) {
	c := NewCache(16, 0)
	var runs atomic.Int64
	run := func() ([]byte, error) {
		runs.Add(1)
		return []byte(fmt.Sprintf("run-%d", runs.Load())), nil
	}
	cold, hit, err := c.GetOrRun("h", run)
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	warm, hit, err := c.GetOrRun("h", run)
	if err != nil || !hit {
		t.Fatalf("warm: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(cold, warm) || runs.Load() != 1 {
		t.Errorf("warm body %q != cold %q (runs=%d)", warm, cold, runs.Load())
	}
	if body, ok := c.Get("h"); !ok || !bytes.Equal(body, cold) {
		t.Errorf("Get returned %q, %v", body, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("Get found an absent hash")
	}
}

// TestCacheEvictionBounds fills past both bounds and checks LRU order and
// the byte accounting.
func TestCacheEvictionBounds(t *testing.T) {
	c := NewCache(3, 0)
	put := func(h string) {
		c.GetOrRun(h, func() ([]byte, error) { return []byte(h + "-body"), nil })
	}
	put("a")
	put("b")
	put("c")
	c.Get("a") // touch: a is now most recent, b is LRU
	put("d")   // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	for _, h := range []string{"a", "c", "d"} {
		if _, ok := c.Get(h); !ok {
			t.Errorf("%s evicted unexpectedly", h)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Errorf("stats %+v", st)
	}

	// Byte bound: three 6-byte bodies under an 8-byte cap keep only the
	// newest entry resident (the bound never evicts the entry just made).
	cb := NewCache(100, 8)
	put2 := func(h string) {
		cb.GetOrRun(h, func() ([]byte, error) { return []byte(h + "-body!"), nil })
	}
	put2("x")
	put2("y")
	if _, ok := cb.Get("x"); ok {
		t.Error("x survived the byte bound")
	}
	if _, ok := cb.Get("y"); !ok {
		t.Error("newest entry evicted by the byte bound")
	}
	if st := cb.Stats(); st.Bytes != 7 {
		t.Errorf("bytes %d after eviction, want 7", st.Bytes)
	}
}

// TestCacheErrorsNotCached checks a failed computation propagates to its
// caller and leaves no entry behind.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(16, 0)
	boom := errors.New("boom")
	if _, _, err := c.GetOrRun("h", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	body, hit, err := c.GetOrRun("h", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(body) != "ok" {
		t.Errorf("retry after error: body=%q hit=%v err=%v", body, hit, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats %+v", st)
	}
}

// TestCachePanicDropsEntry: a run that panics passes its panic to its
// caller, fails a waiter coalesced onto it instead of leaving it blocked,
// and leaves no entry behind, so the next lookup of the hash runs again
// rather than waiting forever.
func TestCachePanicDropsEntry(t *testing.T) {
	c := NewCache(16, 0)
	started := make(chan struct{})
	waiter := make(chan error)
	go func() {
		<-started
		_, hit, err := c.GetOrRun("h", func() ([]byte, error) { return []byte("unused"), nil })
		if !hit {
			err = errors.New("waiter ran instead of coalescing")
		}
		waiter <- err
	}()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the run's panic", r)
			}
		}()
		c.GetOrRun("h", func() ([]byte, error) {
			close(started)
			for c.Stats().Coalesced == 0 {
				runtime.Gosched()
			}
			panic("boom")
		})
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, errRunPanicked) {
			t.Errorf("coalesced waiter: err = %v, want errRunPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter still blocked on the panicked run")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, hit, err := c.GetOrRun("h", func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil || hit || string(body) != "ok" {
			t.Errorf("lookup after the panic: body=%q hit=%v err=%v", body, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lookup after the panic still blocked")
	}
}

// TestCacheInvalidate drops a completed entry so the next submission
// recomputes (the refresh path).
func TestCacheInvalidate(t *testing.T) {
	c := NewCache(16, 0)
	var runs atomic.Int64
	run := func() ([]byte, error) { runs.Add(1); return []byte("same"), nil }
	c.GetOrRun("h", run)
	c.Invalidate("h")
	if _, ok := c.Get("h"); ok {
		t.Fatal("entry survived Invalidate")
	}
	body, hit, _ := c.GetOrRun("h", run)
	if hit || runs.Load() != 2 || string(body) != "same" {
		t.Errorf("refresh: hit=%v runs=%d body=%q", hit, runs.Load(), body)
	}
	if st := c.Stats(); st.Bytes != int64(len("same")) {
		t.Errorf("bytes %d after refresh", st.Bytes)
	}
	c.Invalidate("absent") // no-op
}

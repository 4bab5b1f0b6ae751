package service

import (
	"container/list"
	"errors"
	"sync"
)

// Cache is the bounded content-addressed result cache. Keys are spec hashes;
// values are the canonical response bodies, each stored with the run's
// summary (completion time and message count) so a sweep point is answered
// without decoding its body. Lookups of a hash whose body is
// still being computed coalesce onto the in-flight computation
// (single-flight): N concurrent identical submissions run one simulation and
// every caller gets the same byte slice. Eviction is LRU over completed
// entries, bounded both by entry count and by total body bytes; in-flight
// entries are never evicted. Errors are not cached — every waiter of a
// failed computation sees the error, and the next submission retries. A
// computation that panics fails its waiters the same way, and the panic
// goes on up the caller's stack.
type Cache struct {
	mu       sync.Mutex
	maxEnt   int
	maxBytes int64
	bytes    int64
	order    *list.List             // hashes of completed entries, front = most recent
	entries  map[string]*cacheEntry // hash → entry (in-flight or complete)

	hits, misses, coalesced, evictions int64
}

// cacheEntry is one hash's slot. done is closed when body/sum/err are final;
// el is the entry's LRU element once it is filed as complete.
type cacheEntry struct {
	done chan struct{}
	body []byte
	sum  summary
	err  error
	el   *list.Element
}

// summary is the part of a run a sweep point reports, kept beside the body
// so hot sweep points read two numbers instead of decoding the body.
type summary struct {
	time     int64
	messages int
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Hits counts lookups served from a completed body.
	Hits int64 `json:"hits"`
	// Coalesced counts lookups that waited on an in-flight computation of
	// the same hash (they are also hits: no extra simulation ran).
	Coalesced int64 `json:"coalesced"`
	// Misses counts lookups that had to run the simulation.
	Misses int64 `json:"misses"`
	// Evictions counts completed bodies dropped by the LRU bounds.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of completed bodies resident.
	Entries int `json:"entries"`
	// Bytes is the total size of the resident bodies.
	Bytes int64 `json:"bytes"`
}

// NewCache builds a cache bounded to maxEntries completed bodies and
// maxBytes total body size (values < 1 mean a single entry / unbounded
// bytes).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		maxEnt:   maxEntries,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  map[string]*cacheEntry{},
	}
}

// GetOrRun returns the body cached under hash, running run() to produce it
// on a miss. hit reports whether the body came from the cache (including
// coalescing onto another caller's in-flight run). The returned slice is
// shared — callers must not mutate it.
func (c *Cache) GetOrRun(hash string, run func() ([]byte, error)) (body []byte, hit bool, err error) {
	e, hit := c.getOrRun(hash, func() ([]byte, summary, error) {
		body, err := run()
		return body, summary{}, err
	})
	return e.body, hit, e.err
}

// getOrRun is GetOrRun for fills that also produce the run's summary. It
// returns the completed entry; callers must not mutate it.
func (c *Cache) getOrRun(hash string, run func() ([]byte, summary, error)) (*cacheEntry, bool) {
	c.mu.Lock()
	if e, ok := c.entries[hash]; ok {
		select {
		case <-e.done:
			c.hits++
			c.touch(e)
			c.mu.Unlock()
		default:
			c.coalesced++
			c.mu.Unlock()
			<-e.done
		}
		return e, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[hash] = e
	c.misses++
	c.mu.Unlock()

	// Deferred, so that a run that panics still completes the entry:
	// otherwise every later submission of the hash would wait on it forever.
	ran := false
	defer func() {
		if !ran {
			e.err = errRunPanicked
		}
		close(e.done)
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, hash) // errors are not cached; next submission retries
		} else {
			c.complete(hash, e)
		}
		c.mu.Unlock()
	}()
	e.body, e.sum, e.err = run()
	ran = true
	return e, false
}

// errRunPanicked is the error a waiter coalesced onto a run that panicked
// receives.
var errRunPanicked = errors.New("service: the run panicked")

// Get returns the completed body cached under hash without running
// anything. An in-flight entry is not waited for.
func (c *Cache) Get(hash string) ([]byte, bool) {
	if e := c.lookup(hash); e != nil {
		return e.body, true
	}
	return nil, false
}

// lookup returns the completed entry cached under hash, counted as a hit
// and moved to the LRU front, or nil for a hash that is absent, in flight
// or failed. It runs and waits for nothing; callers must not mutate the
// entry.
func (c *Cache) lookup(hash string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		return nil
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil
		}
		c.hits++
		c.touch(e)
		return e
	default:
		return nil
	}
}

// touch moves a completed entry to the LRU front; an entry not yet filed
// stays where it is. Caller holds mu.
func (c *Cache) touch(e *cacheEntry) {
	if e.el != nil {
		c.order.MoveToFront(e.el)
	}
}

// complete files a finished entry into the LRU and evicts past the bounds.
// Caller holds mu.
func (c *Cache) complete(hash string, e *cacheEntry) {
	e.el = c.order.PushFront(hash)
	c.bytes += int64(len(e.body))
	// Evict from the LRU tail past either bound, but always keep the entry
	// just completed: a body larger than the byte bound still serves its
	// own request and the next identical one.
	for (c.order.Len() > c.maxEnt || (c.maxBytes > 0 && c.bytes > c.maxBytes)) && c.order.Len() > 1 {
		victim := c.order.Remove(c.order.Back()).(string)
		c.bytes -= int64(len(c.entries[victim].body))
		delete(c.entries, victim)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Coalesced: c.coalesced, Misses: c.misses,
		Evictions: c.evictions, Entries: c.order.Len(), Bytes: c.bytes,
	}
}

// Invalidate drops the completed entry for hash (used by refresh
// submissions, which recompute and re-file). In-flight entries are left to
// finish.
func (c *Cache) Invalidate(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		return
	}
	select {
	case <-e.done:
		if e.el != nil {
			c.order.Remove(e.el)
		}
		c.bytes -= int64(len(e.body))
		delete(c.entries, hash)
	default:
	}
}

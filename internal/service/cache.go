package service

import (
	"container/list"
	"errors"
	"sync"
	"unsafe"
)

// maxMemoBytes bounds the sweep memo: its raw request bodies and their
// expansions, as memoSize counts them. A sweep-hot working set of 16
// 48-point grids takes about a tenth of it; a body larger than the bound
// is never memoized.
const maxMemoBytes = 1 << 20

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
//
// The cache also holds the sweep memo: each sweep request's expansion,
// filed under its raw body, so a repeated sweep is answered without being
// decoded, normalized or hashed (see sweepHit).
type Cache struct {
	mu       sync.Mutex
	maxEnt   int
	maxBytes int64
	bytes    int64
	order    *list.List             // hashes of completed entries, front = most recent
	entries  map[string]*cacheEntry // hash → entry (in-flight or complete)

	hits, misses, coalesced, evictions int64

	memos     map[string]*sweepMemo // raw sweep request body → its expansion
	memoOrder *list.List            // memos, front = most recently used
	memoBytes int64                 // memoSize summed over the memos
	memoHits  int64
}

// sweepMemo is one sweep request's expansion: its points in expansion
// order, each with its spec hash and coordinates. A memo hit reads each
// point's time and message count from the cache entry its hash names,
// never from the memo, and the memo holds no entry, so it keeps no evicted
// or refreshed body alive.
type sweepMemo struct {
	key    string
	points []SweepPoint
	el     *list.Element
}

// memoSize is what the memo bound counts for a memo of points under a key
// of keyLen bytes: the key, and each point with its hash string.
func memoSize(keyLen int, points []SweepPoint) int64 {
	n := int64(keyLen) + int64(len(points))*int64(unsafe.Sizeof(SweepPoint{}))
	for i := range points {
		n += int64(len(points[i].SpecHash))
	}
	return n
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
	// MemoHits counts sweeps answered from the sweep memo; each of their
	// points is also counted in Hits.
	MemoHits int64 `json:"memo_hits"`
	// MemoEntries is the number of sweep requests memoized.
	MemoEntries int `json:"memo_entries"`
	// MemoBytes is the memo's size as its bound counts it: the raw request
	// bodies and their points.
	MemoBytes int64 `json:"memo_bytes"`
}

// NewCache builds a cache bounded to maxEntries completed bodies and
// maxBytes total body size (values < 1 mean a single entry / unbounded
// bytes).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		maxEnt:    maxEntries,
		maxBytes:  maxBytes,
		order:     list.New(),
		entries:   map[string]*cacheEntry{},
		memos:     map[string]*sweepMemo{},
		memoOrder: list.New(),
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
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		c.hits++
		c.touch(e)
		return e.body, true
	default:
		return nil, false
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

// sweepHit answers a sweep from the memo filed under its raw body key. It
// succeeds only if every point's hash names a complete entry. Then, under
// one hold of the lock, it counts a hit for each point and moves each to
// the LRU front in expansion order, as looking the points up one by one
// would, and returns a copy of the memo's points, each with its entry's
// time and message count. Otherwise it counts and moves nothing, and the
// caller takes the sweep's full path.
func (c *Cache) sweepHit(key []byte) ([]SweepPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.memos[string(key)]
	if m == nil {
		return nil, false
	}
	var buf [64]*cacheEntry
	ents := buf[:0]
	for i := range m.points {
		// Only a complete entry is filed in the LRU: an in-flight one is
		// not yet, and an evicted, invalidated or failed one is gone from
		// the map.
		e := c.entries[m.points[i].SpecHash]
		if e == nil || e.el == nil {
			return nil, false
		}
		ents = append(ents, e)
	}
	pts := make([]SweepPoint, len(ents))
	for i, e := range ents {
		c.order.MoveToFront(e.el)
		pts[i] = m.points[i]
		pts[i].Time, pts[i].Messages = e.sum.time, e.sum.messages
	}
	c.hits += int64(len(ents))
	c.memoHits++
	c.memoOrder.MoveToFront(m.el)
	return pts, true
}

// fileMemo files points, the expansion of a sweep whose every point ran,
// under its raw body key, unless a memo is filed there already or the two
// together pass maxMemoBytes. It evicts the least recently used memos past
// that bound. Only the hashes and coordinates of points are read.
func (c *Cache) fileMemo(key []byte, points []SweepPoint) {
	size := memoSize(len(key), points)
	if size > maxMemoBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.memos[string(key)]; ok {
		return
	}
	m := &sweepMemo{key: string(key), points: points}
	m.el = c.memoOrder.PushFront(m)
	c.memos[m.key] = m
	c.memoBytes += size
	for c.memoBytes > maxMemoBytes {
		old := c.memoOrder.Remove(c.memoOrder.Back()).(*sweepMemo)
		delete(c.memos, old.key)
		c.memoBytes -= memoSize(len(old.key), old.points)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Coalesced: c.coalesced, Misses: c.misses,
		Evictions: c.evictions, Entries: c.order.Len(), Bytes: c.bytes,
		MemoHits: c.memoHits, MemoEntries: c.memoOrder.Len(), MemoBytes: c.memoBytes,
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

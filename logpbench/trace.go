package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a request as the client saw
// it, a server stage read from its X-Logpsimd-Timing header, or one call
// into a layer's public function during the replay. Every span of one
// request shares Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// end stamps the end of span id now.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// op records request i and the server's stages under it. The header gives
// stage durations only, so the stages are laid end to end from the
// request's start; their sum, not their placement, is what self time uses.
func (t *tracer) op(i int, r reply) {
	root := t.add(-1, i, "op", r.start, r.start.Add(r.latency))
	at := r.start
	for _, st := range parseTiming(r.header.Get("X-Logpsimd-Timing")) {
		t.add(root, i, "server."+st.name, at, at.Add(st.dur))
		at = at.Add(st.dur)
	}
}

// call times f as a span under parent and returns its duration.
func (t *tracer) call(parent, op int, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(parent, op, name, t0, t1)
	return t1.Sub(t0)
}

type stage struct {
	name string
	dur  time.Duration
}

// parseTiming reads the Server-Timing syntax of X-Logpsimd-Timing:
// "decode;dur=0.112, execute;dur=1.204", durations in milliseconds.
func parseTiming(h string) []stage {
	var out []stage
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		out = append(out, stage{name, time.Duration(ms * float64(time.Millisecond))})
	}
	return out
}

func stageSum(h string) (sum time.Duration, byName map[string]time.Duration) {
	byName = map[string]time.Duration{}
	for _, st := range parseTiming(h) {
		sum += st.dur
		byName[st.name] += st.dur
	}
	return sum, byName
}

// summarize prints, for each span name under each root name, the count,
// the self time (duration minus what its children cover) and its share of
// the root spans' total time.
func (t *tracer) summarize(w io.Writer) {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	rootOf := func(id int) string {
		for t.spans[id].Parent >= 0 {
			id = t.spans[id].Parent
		}
		return t.spans[id].Name
	}
	type agg struct {
		count int
		self  time.Duration
	}
	rows := map[string]*agg{}
	rootTotal := map[string]time.Duration{}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self := d - min(children[i], d)
		key := rootOf(i) + " " + s.Name
		if rows[key] == nil {
			rows[key] = &agg{}
		}
		rows[key].count++
		rows[key].self += self
		if s.Parent < 0 {
			rootTotal[s.Name] += d
		}
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-8s %-26s %8s %12s %7s\n", "root", "span", "count", "self_ms", "share")
	for _, k := range keys {
		root, name, _ := strings.Cut(k, " ")
		a := rows[k]
		share := 0.0
		if tot := rootTotal[root]; tot > 0 {
			share = float64(a.self) / float64(tot)
		}
		fmt.Fprintf(w, "%-8s %-26s %8d %12.3f %6.1f%%\n", root, name, a.count,
			float64(a.self)/float64(time.Millisecond), 100*share)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

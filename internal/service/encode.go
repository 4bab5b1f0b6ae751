package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/logp-model/logp/internal/metrics"
)

// The canonical writer. Response and sweep bodies are appended in one pass
// as two-space-indented JSON with a trailing newline, byte-identical to an
// encoding/json Encoder with SetIndent("", "  ") (encode_test.go keeps that
// encoder as the oracle the writer is compared against). It follows the
// same rules: struct fields in definition order with omitempty honoured,
// map keys sorted, a nil slice as null and an empty one as [], HTML-safe
// string escaping, floats in the ES6 number form, and NaN or ±Inf rejected
// with encoding/json's error. The spec block is the spec's canonical bytes
// (appendSpec in spec.go, the ones its hash covers) indented by
// json.Indent, which is what json.MarshalIndent does with json.Marshal's
// bytes; so the spec's field and omitempty rules live in one function, and
// no body is encoded by reflection. encode_test.go and spec_test.go keep
// encoding/json as the oracle for both.

// maxPooledScratch bounds the scratch buffers kept for reuse, so one large
// body (a P=256 metrics body is 18 MB) is never pinned in memory.
const maxPooledScratch = 4 << 20

// newlines is a line break followed by the indent of every depth these
// bodies reach (at most 8: a histogram bound inside a metrics point).
const newlines = "\n                                "

var scratch = sync.Pool{New: func() any { return new(writer) }}

// writer appends indented JSON to b; depth is the current nesting level,
// and err keeps the first error (an unsupported float).
type writer struct {
	b     []byte
	depth int
	err   error
}

func newWriter() *writer { return scratch.Get().(*writer) }

// finish ends the body with a newline and returns an exactly sized copy of
// it, which the caller owns, or the first error. It then releases w.
func (w *writer) finish() ([]byte, error) {
	w.b = append(w.b, '\n')
	var body []byte
	err := w.err
	if err == nil {
		// Copying by append skips zeroing the new slice, which make would do.
		body = slices.Clip(append([]byte(nil), w.b...))
	}
	w.release()
	return body, err
}

// release returns w to the pool unless its buffer has grown past
// maxPooledScratch. Nothing may use w or its bytes after.
func (w *writer) release() {
	if cap(w.b) <= maxPooledScratch {
		w.b, w.depth, w.err = w.b[:0], 0, nil
		scratch.Put(w)
	}
}

func (w *writer) newline() { w.b = append(w.b, newlines[:1+2*w.depth]...) }

// open starts an object or an array.
func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

// close ends an object or an array that has at least one member.
func (w *writer) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
}

// next starts a member on a new line, after a comma unless it is the
// first. No complete value ends in { or [, so the last byte tells. Near
// capacity it at least doubles the buffer, where append would grow a large
// one by a quarter: a scratch buffer the pool dropped at a GC regrows to a
// 1.2 MB body with 4 MB allocated instead of 8, in half the time.
func (w *writer) next() {
	if cap(w.b)-len(w.b) < 1024 {
		w.b = slices.Grow(w.b, cap(w.b))
	}
	if c := w.b[len(w.b)-1]; c != '{' && c != '[' {
		w.b = append(w.b, ',')
	}
	w.newline()
}

// key starts an object member; name needs no escaping.
func (w *writer) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *writer) intField(name string, v int64) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *writer) floatField(name string, f float64) {
	w.key(name)
	w.float(f)
}

func (w *writer) strField(name, s string) {
	w.key(name)
	w.str(s)
}

// openArray writes null for a nil slice and [] for an empty one, and
// reports false; otherwise it opens the array and reports true.
func (w *writer) openArray(isNil bool, n int) bool {
	switch {
	case isNil:
		w.b = append(w.b, "null"...)
	case n == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.open('[')
		return true
	}
	return false
}

func appendInts[T int | int32 | int64](w *writer, xs []T) {
	if w.openArray(xs == nil, len(xs)) {
		for _, x := range xs {
			w.next()
			w.b = strconv.AppendInt(w.b, int64(x), 10)
		}
		w.close(']')
	}
}

// appendArray writes xs as an array, each element by elem.
func appendArray[T any](w *writer, xs []T, elem func(*writer, *T)) {
	if w.openArray(xs == nil, len(xs)) {
		for i := range xs {
			w.next()
			elem(w, &xs[i])
		}
		w.close(']')
	}
}

// float writes f as encoding/json does, or keeps the error for NaN and
// ±Inf.
func (w *writer) float(f float64) {
	var err error
	if w.b, err = appendFloat(w.b, f); err != nil {
		w.fail(err)
	}
}

// fail keeps err unless an earlier error is kept.
func (w *writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *writer) str(s string) { w.b = appendString(w.b, s) }

// appendFloat appends f as encoding/json does: the shortest 'f' form, or
// the 'e' form with a one-digit negative exponent when |f| < 1e-6 or
// |f| >= 1e21. NaN and ±Inf append nothing and fail with encoding/json's
// error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// plain[c] reports whether byte c goes into a JSON string as itself: an
// ASCII byte that is no control byte, quote, backslash, <, > or &.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// appendString appends s as a JSON string with encoding/json's HTML-safe
// escaping: <, > and & as \u00XX, control bytes as \b, \f, \n, \r, \t or
// \u00XX, U+2028 and U+2029 escaped, and each invalid UTF-8 byte as
// \ufffd. A run of bytes that need no escaping, such as a whole spec hash,
// is copied in one append.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Encode renders the canonical response body: two-space-indented JSON with
// a trailing newline, matching the metrics JSON writer's house style. The
// returned slice is the caller's own.
func (r *Response) Encode() ([]byte, error) {
	w := newWriter()
	w.open('{')
	w.strField("spec_hash", r.SpecHash)
	w.key("spec")
	w.spec(&r.Spec)
	w.key("result")
	w.result(&r.Result)
	if len(r.Output) > 0 {
		w.key("output")
		w.output(r.Output)
	}
	if r.Metrics != nil {
		w.key("metrics")
		w.snapshot(r.Metrics)
	}
	w.close('}')
	return w.finish()
}

// spec writes the spec block: its canonical bytes (appendSpec) indented
// as a member at the current depth, as json.MarshalIndent would.
func (w *writer) spec(s *JobSpec) {
	var buf [512]byte
	compact, err := appendSpec(buf[:0], s)
	if err == nil {
		dst := bytes.NewBuffer(w.b)
		err = json.Indent(dst, compact, newlines[1:1+2*w.depth], "  ")
		w.b = dst.Bytes()
	}
	if err != nil {
		w.fail(err)
	}
}

func (w *writer) result(r *ResultJSON) {
	w.open('{')
	w.intField("time", r.Time)
	w.intField("messages", int64(r.Messages))
	w.intField("max_in_transit_from", int64(r.MaxInTransitFrom))
	w.intField("max_in_transit_to", int64(r.MaxInTransitTo))
	w.intField("dropped", int64(r.Dropped))
	w.intField("duplicated", int64(r.Duplicated))
	if len(r.Failed) > 0 {
		w.key("failed")
		appendInts(w, r.Failed)
	}
	w.intField("undelivered", int64(r.Undelivered))
	if len(r.Procs) > 0 {
		w.key("procs")
		appendArray(w, r.Procs, (*writer).procStats)
	}
	w.close('}')
}

func (w *writer) procStats(p *ProcStatsJSON) {
	w.open('{')
	w.intField("proc", int64(p.Proc))
	w.intField("compute", p.Compute)
	w.intField("send_overhead", p.SendOverhead)
	w.intField("recv_overhead", p.RecvOverhead)
	w.intField("stall", p.Stall)
	w.intField("finish", p.Finish)
	w.intField("msgs_sent", int64(p.MsgsSent))
	w.intField("msgs_received", int64(p.MsgsReceived))
	w.close('}')
}

// output writes a non-empty map with its keys in sorted order.
func (w *writer) output(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.open('{')
	for _, k := range keys {
		w.next()
		w.str(k)
		w.b = append(w.b, ':', ' ')
		w.float(m[k])
	}
	w.close('}')
}

func (w *writer) snapshot(s *metrics.Snapshot) {
	w.open('{')
	w.key("families")
	appendArray(w, s.Families, (*writer).family)
	if len(s.Samples) > 0 {
		w.key("samples")
		appendArray(w, s.Samples, (*writer).sample)
	}
	w.close('}')
}

func (w *writer) family(f *metrics.Family) {
	w.open('{')
	w.strField("name", f.Name)
	w.strField("help", f.Help)
	w.strField("kind", f.Kind)
	w.key("points")
	appendArray(w, f.Points, (*writer).point)
	w.close('}')
}

func (w *writer) point(p *metrics.Point) {
	w.open('{')
	if len(p.Labels) > 0 {
		w.key("labels")
		appendArray(w, p.Labels, (*writer).label)
	}
	w.floatField("value", p.Value)
	if h := p.Hist; h != nil {
		w.key("histogram")
		w.open('{')
		w.key("bounds")
		appendInts(w, h.Bounds)
		w.key("counts")
		appendInts(w, h.Counts)
		w.intField("sum", h.Sum)
		w.intField("count", h.Count)
		w.intField("min", h.Min)
		w.intField("max", h.Max)
		w.floatField("p50", h.P50)
		w.floatField("p90", h.P90)
		w.floatField("p99", h.P99)
		w.close('}')
	}
	w.close('}')
}

func (w *writer) label(l *metrics.Label) {
	w.open('{')
	w.strField("name", l.Name)
	w.strField("value", l.Value)
	w.close('}')
}

func (w *writer) sample(s *metrics.Sample) {
	w.open('{')
	w.intField("time", s.Time)
	w.key("in_flight_from")
	appendInts(w, s.InFlightFrom)
	w.key("in_flight_to")
	appendInts(w, s.InFlightTo)
	w.key("inbox_depth")
	appendInts(w, s.InboxDepth)
	w.key("stall_cycles")
	appendInts(w, s.StallCycles)
	w.intField("delivered", s.Delivered)
	w.key("utilization")
	appendArray(w, s.Utilization, func(w *writer, f *float64) { w.float(*f) })
	w.close('}')
}

// writeTo writes the sweep body, in the same canonical form as
// Response.Encode, to dst straight from a pooled buffer: a sweep body is
// never kept, so it needs no copy. It holds no floats, so it cannot fail.
func (r *SweepResponse) writeTo(dst io.Writer) {
	w := newWriter()
	w.open('{')
	w.key("points")
	appendArray(w, r.Points, (*writer).sweepPoint)
	w.close('}')
	w.b = append(w.b, '\n')
	dst.Write(w.b)
	w.release()
}

// sweepPoint writes one point of the sweep body. Points sit at depth 2, in
// the points array, so each member's comma, line break, indent and key are
// one constant.
func (w *writer) sweepPoint(p *SweepPoint) {
	const indent = "\n      " // a member at depth 3
	b := append(w.b, "{"+indent+`"spec_hash": `...)
	b = appendString(b, p.SpecHash)
	for _, m := range [...]struct {
		key string
		v   int64
	}{
		{"," + indent + `"p": `, int64(p.P)},
		{"," + indent + `"l": `, p.L},
		{"," + indent + `"o": `, p.O},
		{"," + indent + `"g": `, p.G},
		{"," + indent + `"n": `, int64(p.N)},
		{"," + indent + `"seed": `, p.Seed},
		{"," + indent + `"time": `, p.Time},
		{"," + indent + `"messages": `, int64(p.Messages)},
	} {
		b = strconv.AppendInt(append(b, m.key...), m.v, 10)
	}
	w.b = append(b, "\n    }"...)
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/logp-model/logp/internal/metrics"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("request", "route", "/v1/jobs", "status", 200)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("json handler emitted non-JSON %q: %v", buf.String(), err)
	}
	if line["route"] != "/v1/jobs" {
		t.Errorf("log line %v lost the route attribute", line)
	}

	buf.Reset()
	log, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("dropped")
	if buf.Len() != 0 {
		t.Errorf("info line passed a warn-level logger: %q", buf.String())
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}
}

func TestSpanHeaderAndAttrs(t *testing.T) {
	sp := NewSpan()
	sp.Observe("decode", 1500*time.Microsecond)
	sp.Observe("execute", 2*time.Millisecond)
	sp.Observe("decode", 500*time.Microsecond) // accumulates
	h := sp.Header()
	if want := "decode;dur=2.000, execute;dur=2.000"; h != want {
		t.Errorf("Header() = %q, want %q", h, want)
	}
	if got := sp.Get("execute"); got != 2*time.Millisecond {
		t.Errorf("Get(execute) = %v", got)
	}
	if got := sp.Total(); got != 4*time.Millisecond {
		t.Errorf("Total() = %v", got)
	}
	attrs := sp.LogAttrs()
	if len(attrs) != 2 || attrs[0].Key != "decode_us" || attrs[0].Value.Int64() != 2000 {
		t.Errorf("LogAttrs() = %v", attrs)
	}
}

// TestSpanHeaderMatchesFmt checks Header's integer formatting against the
// fmt "%.3f" of the duration in milliseconds it replaced, on durations from
// a nanosecond to past a day. Only a duration exactly half a microsecond
// past a whole one may differ: Header rounds it up, the float formatting
// either way.
func TestSpanHeaderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	durs := []time.Duration{0, 1, 499, 501, 999, time.Microsecond, 999_499, 999_501, 1_000_000, 25 * time.Hour}
	for i := 0; i < 2000; i++ {
		durs = append(durs, time.Duration(rng.Int63n(int64(100*time.Second))))
	}
	for _, d := range durs {
		if d%time.Microsecond == 500 {
			continue
		}
		sp := NewSpan()
		sp.Observe("execute", d)
		if got, want := sp.Header(), fmt.Sprintf("execute;dur=%.3f", float64(d)/float64(time.Millisecond)); got != want {
			t.Fatalf("Header() for %d ns = %q, want %q", d, got, want)
		}
	}
}

// headerSink keeps BenchmarkSpanHeader's calls from being optimized away.
var headerSink string

// BenchmarkSpanHeader times the X-Logpsimd-Timing value of a job's span:
// five stages.
func BenchmarkSpanHeader(b *testing.B) {
	sp := NewSpan()
	for i, name := range []string{"decode", "normalize", "cache", "execute", "encode"} {
		sp.Observe(name, time.Duration(i+1)*123_456)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		headerSink = sp.Header()
	}
}

func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.Observe("decode", time.Millisecond)
	sp.Timer("execute")()
	if sp.Header() != "" || sp.Get("decode") != 0 || sp.Total() != 0 || sp.LogAttrs() != nil {
		t.Error("nil span methods must be no-ops")
	}
}

func TestTelemetryFamiliesAndInstrument(t *testing.T) {
	tel := NewTelemetry()
	h := tel.Instrument("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("bad") == "1" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Write([]byte("ok"))
	})
	for _, target := range []string{"/v1/jobs", "/v1/jobs", "/v1/jobs?bad=1"} {
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest("POST", target, nil))
	}
	routes := tel.Routes()
	if len(routes) != 1 || routes[0].Requests != 3 || routes[0].Errors != 1 {
		t.Fatalf("Routes() = %+v, want one route with 3 requests / 1 error", routes)
	}
	if routes[0].Latency.Count != 3 {
		t.Errorf("latency histogram saw %d observations, want 3", routes[0].Latency.Count)
	}
	if tel.Uptime() <= 0 {
		t.Error("uptime must be positive")
	}

	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, metrics.Snapshot{Families: tel.Families()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`logpsimd_http_requests_total{route="/v1/jobs"} 3`,
		`logpsimd_http_errors_total{route="/v1/jobs"} 1`,
		`logpsimd_http_request_us_count{route="/v1/jobs"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus rendering missing %q:\n%s", want, out)
		}
	}
}

func TestInstrumentNilTelemetryAndFlusher(t *testing.T) {
	var tel *Telemetry
	called := false
	h := tel.Instrument("/x", func(w http.ResponseWriter, r *http.Request) { called = true })
	h(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if !called {
		t.Fatal("nil telemetry must pass the handler through")
	}
	// The status writer must stay a Flusher so streaming handlers keep
	// flushing when instrumented.
	var sw http.ResponseWriter = &statusWriter{ResponseWriter: httptest.NewRecorder()}
	if _, ok := sw.(http.Flusher); !ok {
		t.Fatal("statusWriter lost the Flusher interface")
	}
}

func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	MountPprof(mux)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "goroutine") {
		t.Fatalf("pprof index: status %d body %q", rr.Code, rr.Body.String())
	}
}

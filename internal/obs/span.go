package obs

import (
	"log/slog"
	"strconv"
	"time"
)

// Stage is one named, timed step of a request span.
type Stage struct {
	// Name identifies the stage (decode, normalize, cache, execute, encode).
	Name string
	// Dur is the wall-clock time the stage took.
	Dur time.Duration
}

// Span collects the stage latencies of one request: the decode → normalize →
// cache → execute → encode pipeline of a job submission. Stages are recorded
// explicitly (Observe or Timer) in pipeline order; a stage a request never
// reaches — execute on a cache hit — is simply absent. Every method is
// nil-receiver safe, so call sites that do not collect spans pass nil and
// pay nothing. A Span is used by one request goroutine; it is not
// synchronized.
type Span struct {
	stages []Stage
}

// NewSpan starts an empty span.
func NewSpan() *Span { return &Span{} }

// Observe records d against the named stage, accumulating onto an earlier
// observation of the same name.
func (s *Span) Observe(name string, d time.Duration) {
	if s == nil {
		return
	}
	for i := range s.stages {
		if s.stages[i].Name == name {
			s.stages[i].Dur += d
			return
		}
	}
	s.stages = append(s.stages, Stage{Name: name, Dur: d})
}

// Timer starts timing the named stage and returns the function that stops
// the clock and records the elapsed time.
func (s *Span) Timer(name string) func() {
	if s == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { s.Observe(name, time.Since(t0)) }
}

// Get reports the recorded duration of a stage (zero when absent).
func (s *Span) Get(name string) time.Duration {
	if s == nil {
		return 0
	}
	for i := range s.stages {
		if s.stages[i].Name == name {
			return s.stages[i].Dur
		}
	}
	return 0
}

// Total sums every recorded stage.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	var t time.Duration
	for i := range s.stages {
		t += s.stages[i].Dur
	}
	return t
}

// Header renders the span in the Server-Timing header syntax —
// "decode;dur=0.112, execute;dur=1.204", durations in milliseconds with
// three decimals, rounded to the microsecond — the value the daemon sets as
// X-Logpsimd-Timing. Stages appear in recording order; an empty span
// renders "".
func (s *Span) Header() string {
	if s == nil || len(s.stages) == 0 {
		return ""
	}
	var buf [128]byte
	b := buf[:0]
	for i := range s.stages {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, s.stages[i].Name...)
		b = append(b, ";dur="...)
		us := int64(s.stages[i].Dur.Round(time.Microsecond) / time.Microsecond)
		if us < 0 {
			b = append(b, '-')
			us = -us
		}
		b = strconv.AppendInt(b, us/1000, 10)
		b = append(b, '.', byte('0'+us/100%10), byte('0'+us/10%10), byte('0'+us%10))
	}
	return string(b)
}

// LogAttrs renders the stages as slog attributes ("<name>_us", microseconds)
// for the per-request log line.
func (s *Span) LogAttrs() []slog.Attr {
	if s == nil {
		return nil
	}
	attrs := make([]slog.Attr, 0, len(s.stages))
	for i := range s.stages {
		attrs = append(attrs, slog.Int64(s.stages[i].Name+"_us", s.stages[i].Dur.Microseconds()))
	}
	return attrs
}

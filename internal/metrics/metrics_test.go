package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge %d, want 4", g.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(10, 20, 40)
	for _, v := range []int64{1, 5, 10, 11, 20, 39, 100} {
		h.Observe(v)
	}
	wantCounts := []int64{3, 2, 1, 1} // (..10], (10..20], (20..40], overflow
	for i, c := range h.Counts() {
		if c != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, wantCounts[i])
		}
	}
	if h.Count() != 7 || h.Sum() != 186 || h.Min() != 1 || h.Max() != 100 {
		t.Errorf("count %d sum %d min %d max %d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	qs := h.Quantiles(0.5)
	if qs[0] < 5 || qs[0] > 20 {
		t.Errorf("p50 estimate %v outside sane range", qs[0])
	}
	// A boundless histogram (overflow bucket only) still counts but has no
	// bound to interpolate toward: quantiles are NaN, not a panic.
	b := NewHistogram()
	b.Observe(3)
	if q := b.Quantiles(0.5); !math.IsNaN(q[0]) {
		t.Errorf("boundless histogram p50 = %v, want NaN", q[0])
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds accepted")
		}
	}()
	NewHistogram(5, 5)
}

func TestRegistryBeginResets(t *testing.T) {
	r := NewRegistry()
	r.Begin(3, 4, 0)
	if r.Every() != DefaultEvery {
		t.Errorf("default interval %d", r.Every())
	}
	r.OnSend(0, 1)
	r.OnSend(0, 1)
	r.OnDeliver(1, 12)
	r.OnRecv(1)
	r.OnStall(0, 9)
	r.OnDrop(2)
	r.OnDup(2)
	r.Rel[0].Retransmits.Inc()
	r.AddSample(Sample{Time: 5, InFlightFrom: make([]int32, 3), InFlightTo: []int32{0, 4, 0},
		InboxDepth: make([]int32, 3), StallCycles: make([]int64, 3), Utilization: make([]float64, 3)})

	if r.Procs[0].Sends.Value() != 2 || r.Link(0, 1).Value() != 2 {
		t.Error("send accounting wrong")
	}
	if r.DeliveredTotal() != 1 || r.TotalStallCycles() != 9 {
		t.Error("totals wrong")
	}
	if r.PinnedInFraction(1) != 1 || r.PinnedInFraction(0) != 0 {
		t.Errorf("pinned fractions %v %v", r.PinnedInFraction(1), r.PinnedInFraction(0))
	}
	if r.MaxInFlightTo(1) != 4 {
		t.Errorf("max in-flight %d", r.MaxInFlightTo(1))
	}

	r.Begin(3, 4, 64)
	if r.Procs[0].Sends.Value() != 0 || r.Link(0, 1).Value() != 0 ||
		r.Rel[0].Retransmits.Value() != 0 || len(r.Samples) != 0 ||
		r.FlightCycles.Count() != 0 {
		t.Error("Begin did not reset")
	}
	if r.Every() != 64 {
		t.Errorf("interval %d, want 64", r.Every())
	}
}

// populated builds a small deterministic registry for the format tests.
func populated() *Registry {
	r := NewRegistry()
	r.Begin(2, 3, 16)
	r.OnSend(0, 1)
	r.OnSend(1, 0)
	r.OnDeliver(1, 6)
	r.OnDeliver(0, 6)
	r.OnRecv(1)
	r.OnRecv(0)
	r.OnStall(0, 5)
	r.SetSimTime(42)
	r.AddSample(Sample{Time: 16, InFlightFrom: []int32{1, 0}, InFlightTo: []int32{0, 1},
		InboxDepth: []int32{0, 1}, StallCycles: []int64{5, 0}, Delivered: 1, Utilization: []float64{0.5, 0.25}})
	return r
}

func TestWritePrometheusFormat(t *testing.T) {
	var b bytes.Buffer
	if err := WritePrometheus(&b, populated().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE logp_sends_total counter",
		`logp_sends_total{proc="0"} 1`,
		`logp_link_messages_total{from="0",to="1"} 1`,
		"logp_sim_time_cycles 42",
		"logp_capacity_ceiling 3",
		`logp_flight_cycles_bucket{le="+Inf"} 2`,
		"logp_flight_cycles_count 2",
		"logp_flight_cycles_sum 12",
		`logp_capacity_stall_cycles_total{proc="0"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "logp_reliable_") {
		t.Error("reliable families exported with no reliable traffic")
	}
}

func TestWritePrometheusReliableFamilies(t *testing.T) {
	r := populated()
	r.Rel[1].Retransmits.Inc()
	var b bytes.Buffer
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `logp_reliable_retransmits_total{proc="1"} 1`) {
		t.Errorf("missing reliable family:\n%s", b.String())
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSON(&b, populated().Snapshot()); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(got.Families) == 0 || len(got.Samples) != 1 {
		t.Errorf("families %d samples %d", len(got.Families), len(got.Samples))
	}
	if got.Samples[0].Time != 16 || got.Samples[0].Delivered != 1 {
		t.Errorf("sample %+v", got.Samples[0])
	}
}

func TestWriteCSVSections(t *testing.T) {
	var b bytes.Buffer
	if err := WriteCSV(&b, populated().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "metric,labels,value\n") {
		t.Errorf("missing header:\n%s", out)
	}
	for _, want := range []string{
		"logp_sends_total,proc=0,1",
		"logp_flight_cycles_count,,2",
		"time,delivered,in_flight_from_max,in_flight_to_max,inbox_depth_max,stall_cycles_total,utilization_mean",
		"16,1,1,1,1,5,0.3750",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestFmtValue(t *testing.T) {
	if fmtValue(3) != "3" || fmtValue(3.5) != "3.5" || fmtValue(-2) != "-2" {
		t.Errorf("fmtValue: %s %s %s", fmtValue(3), fmtValue(3.5), fmtValue(-2))
	}
	if v := fmtValue(math.Inf(1)); v != "+Inf" {
		t.Errorf("inf renders %q", v)
	}
}

func TestPinnedFractionEdgeCases(t *testing.T) {
	r := NewRegistry()
	r.Begin(1, 0, 8) // capacity disabled
	if r.PinnedInFraction(0) != 0 {
		t.Error("disabled capacity should report 0")
	}
	r.Begin(1, 2, 8) // no samples
	if r.PinnedInFraction(0) != 0 {
		t.Error("no samples should report 0")
	}
}

// TestSnapshotAllocs bounds the allocations of one snapshot of a P=64
// all-to-all (4,485 points). The per-processor families share one label
// slice per processor and the link points one label array, so the count
// stays far below one allocation per point.
func TestSnapshotAllocs(t *testing.T) {
	const p = 64
	r := NewRegistry()
	r.Begin(p, 2, 0)
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if from != to {
				r.OnSend(from, to)
				r.OnDeliver(to, 10)
				r.OnRecv(to)
			}
		}
	}
	points := 0
	for _, f := range r.Snapshot().Families {
		points += len(f.Points)
	}
	if points != 4485 {
		t.Fatalf("snapshot has %d points, want 4485", points)
	}
	allocs := testing.AllocsPerRun(20, func() { r.Snapshot() })
	t.Logf("%.0f allocations per snapshot", allocs)
	if allocs > 200 {
		t.Errorf("%.0f allocations per snapshot of %d points, want at most 200", allocs, points)
	}
}

// TestSnapshotLabelsIsolated checks that appending to one point's labels
// cannot overwrite another point's: the shared label slices are capped.
func TestSnapshotLabelsIsolated(t *testing.T) {
	r := NewRegistry()
	r.Begin(3, 2, 0)
	r.OnSend(0, 1)
	r.OnSend(1, 2)
	snap := r.Snapshot()
	for _, f := range snap.Families {
		for _, pt := range f.Points {
			_ = append(pt.Labels, Label{Name: "x", Value: "y"})
		}
	}
	var got []string
	for _, f := range snap.Families {
		for _, pt := range f.Points {
			for _, l := range pt.Labels {
				got = append(got, l.Name+"="+l.Value)
			}
		}
	}
	if s := strings.Join(got, ","); strings.Contains(s, "x=y") {
		t.Errorf("an append to one point's labels leaked into another: %s", s)
	}
}

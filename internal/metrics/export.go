package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Export model. A Snapshot is an ordered, format-independent view of a
// metric set: Registry.Snapshot builds one from a machine run, and other
// producers (the experiment runner's wall-time telemetry) can assemble one
// by hand. The three writers render the same Snapshot as Prometheus text
// exposition, JSON, or CSV, so every consumer sees identical numbers.

// Label is one name="value" pair attached to a point.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// HistogramSnapshot is an export-ready histogram: per-bucket counts plus
// the summary quantiles (estimated via internal/stats).
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1, trailing overflow bucket
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Point is one labeled value of a family. Histogram families set Hist and
// leave Value at zero.
type Point struct {
	Labels []Label            `json:"labels,omitempty"`
	Value  float64            `json:"value"`
	Hist   *HistogramSnapshot `json:"histogram,omitempty"`
}

// Family is one named metric with its typed points.
type Family struct {
	Name   string  `json:"name"`
	Help   string  `json:"help"`
	Kind   string  `json:"kind"` // "counter", "gauge" or "histogram"
	Points []Point `json:"points"`
}

// Snapshot is a full export: the metric families in a deterministic order,
// plus the sampler's time series.
type Snapshot struct {
	Families []Family `json:"families"`
	Samples  []Sample `json:"samples,omitempty"`
}

// histSnapshot freezes a histogram for export. Quantiles of an empty
// histogram are left at zero rather than NaN so the snapshot stays
// JSON-encodable.
func histSnapshot(h *Histogram) *HistogramSnapshot {
	s := &HistogramSnapshot{
		Bounds: append([]int64(nil), h.Bounds()...),
		Counts: append([]int64(nil), h.Counts()...),
		Sum:    h.Sum(), Count: h.Count(), Min: h.Min(), Max: h.Max(),
	}
	if s.Count > 0 {
		qs := h.Quantiles(0.5, 0.9, 0.99)
		s.P50, s.P90, s.P99 = qs[0], qs[1], qs[2]
	}
	return s
}

// HistSnapshot freezes a histogram for export: the exported form of the
// snapshot builder, for producers that assemble a Snapshot by hand (the
// daemon's wall-clock telemetry in internal/obs).
func HistSnapshot(h *Histogram) *HistogramSnapshot { return histSnapshot(h) }

// Snapshot freezes the registry's current state for export. Families are
// emitted in a fixed order and points in processor / link order, so two
// identical runs export byte-identical snapshots (the golden-test
// property). Reliable-layer families appear only when the protocol ran.
func (r *Registry) Snapshot() Snapshot {
	// Every label value is a processor index: format each one once.
	ids := make([]string, r.p)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	procLabel := func(i int) []Label { return []Label{{Name: "proc", Value: ids[i]}} }
	var fams []Family
	gauge := func(name, help string, v float64) {
		fams = append(fams, Family{Name: name, Help: help, Kind: "gauge", Points: []Point{{Value: v}}})
	}
	gauge("logp_sim_time_cycles", "Final simulated time of the run.", float64(r.simTime))
	gauge("logp_capacity_ceiling", "The ceil(L/g) in-transit bound (0 = constraint disabled).", float64(r.capacity))
	gauge("logp_sample_interval_cycles", "Sampling interval of the time series.", float64(r.every))

	perProc := func(name, help string, get func(pm *ProcMetrics) int64) {
		f := Family{Name: name, Help: help, Kind: "counter"}
		for i := range r.Procs {
			f.Points = append(f.Points, Point{Labels: procLabel(i), Value: float64(get(&r.Procs[i]))})
		}
		fams = append(fams, f)
	}
	perProc("logp_sends_total", "Message initiations per processor.", func(pm *ProcMetrics) int64 { return pm.Sends.Value() })
	perProc("logp_recvs_total", "Completed receptions per processor.", func(pm *ProcMetrics) int64 { return pm.Recvs.Value() })
	perProc("logp_delivered_total", "Messages arrived at each processor's inbox.", func(pm *ProcMetrics) int64 { return pm.Delivered.Value() })
	perProc("logp_dropped_total", "Messages to each processor lost by the fault layer.", func(pm *ProcMetrics) int64 { return pm.Dropped.Value() })
	perProc("logp_duplicated_total", "Network-made duplicate copies delivered per processor.", func(pm *ProcMetrics) int64 { return pm.Duplicated.Value() })
	perProc("logp_capacity_stall_events_total", "Sends that hit the capacity constraint.", func(pm *ProcMetrics) int64 { return pm.StallEvents.Value() })
	perProc("logp_capacity_stall_cycles_total", "Cycles lost to the capacity constraint.", func(pm *ProcMetrics) int64 { return pm.StallCycles.Value() })

	link := Family{Name: "logp_link_messages_total", Help: "Traffic matrix: messages initiated per directed link.", Kind: "counter"}
	for from := 0; from < r.p; from++ {
		for to := 0; to < r.p; to++ {
			if v := r.link[from*r.p+to].Value(); v != 0 {
				link.Points = append(link.Points, Point{
					Labels: []Label{{Name: "from", Value: ids[from]}, {Name: "to", Value: ids[to]}},
					Value:  float64(v),
				})
			}
		}
	}
	fams = append(fams, link)

	fams = append(fams,
		Family{Name: "logp_flight_cycles", Help: "Network flight time per delivered message.", Kind: "histogram",
			Points: []Point{{Hist: histSnapshot(r.FlightCycles)}}},
		Family{Name: "logp_capacity_stall_cycles", Help: "Length of each capacity stall.", Kind: "histogram",
			Points: []Point{{Hist: histSnapshot(r.StallCyclesHist)}}},
	)

	if r.reliableActive() {
		perRel := func(name, help string, get func(rm *ReliableMetrics) int64) {
			f := Family{Name: name, Help: help, Kind: "counter"}
			for i := range r.Rel {
				f.Points = append(f.Points, Point{Labels: procLabel(i), Value: float64(get(&r.Rel[i]))})
			}
			fams = append(fams, f)
		}
		perRel("logp_reliable_data_sends_total", "First-attempt reliable data frames.", func(rm *ReliableMetrics) int64 { return rm.DataSends.Value() })
		perRel("logp_reliable_retransmits_total", "Timeout-driven retransmissions.", func(rm *ReliableMetrics) int64 { return rm.Retransmits.Value() })
		perRel("logp_reliable_acks_sent_total", "Acknowledgements transmitted.", func(rm *ReliableMetrics) int64 { return rm.AcksSent.Value() })
		perRel("logp_reliable_acks_recv_total", "Acknowledgements received.", func(rm *ReliableMetrics) int64 { return rm.AcksRecv.Value() })
		perRel("logp_reliable_dedup_hits_total", "Duplicate data frames suppressed.", func(rm *ReliableMetrics) int64 { return rm.DedupHits.Value() })
		perRel("logp_reliable_timeouts_total", "Ack waits that expired.", func(rm *ReliableMetrics) int64 { return rm.Timeouts.Value() })
		perRel("logp_reliable_dead_peers_total", "Peers declared dead.", func(rm *ReliableMetrics) int64 { return rm.DeadPeers.Value() })
	}

	return Snapshot{Families: fams, Samples: r.Samples}
}

// reliableActive reports whether any reliable-layer counter moved.
func (r *Registry) reliableActive() bool {
	for i := range r.Rel {
		rm := &r.Rel[i]
		if rm.DataSends.Value() != 0 || rm.AcksSent.Value() != 0 || rm.AcksRecv.Value() != 0 ||
			rm.Retransmits.Value() != 0 || rm.DedupHits.Value() != 0 || rm.Timeouts.Value() != 0 ||
			rm.DeadPeers.Value() != 0 {
			return true
		}
	}
	return false
}

// fmtValue renders a float without trailing noise: integers print as
// integers (the common case for counters), everything else as %g.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// promLabels renders {a="x",b="y"} (empty string for no labels).
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, counter and gauge
// samples, and histograms as cumulative _bucket{le=...} series with _sum
// and _count. The time series is not included — Prometheus scrapes are
// point-in-time; use the CSV or JSON writers for the sampled series.
func WritePrometheus(w io.Writer, s Snapshot) error {
	for _, f := range s.Families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind); err != nil {
			return err
		}
		for _, p := range f.Points {
			if f.Kind == "histogram" && p.Hist != nil {
				var cum int64
				for i, b := range p.Hist.Bounds {
					cum += p.Hist.Counts[i]
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name,
						promLabels(p.Labels, Label{Name: "le", Value: fmtValue(float64(b))}), cum); err != nil {
						return err
					}
				}
				cum += p.Hist.Counts[len(p.Hist.Counts)-1]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %d\n%s_count%s %d\n",
					f.Name, promLabels(p.Labels, Label{Name: "le", Value: "+Inf"}), cum,
					f.Name, promLabels(p.Labels), p.Hist.Sum,
					f.Name, promLabels(p.Labels), p.Hist.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(p.Labels), fmtValue(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the full snapshot — families and the sampled time
// series — as indented JSON.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV renders the snapshot as two CSV sections separated by a blank
// line: a "metric,labels,value" table of every counter and gauge (plus
// histogram summary rows), then the sampled time series with per-processor
// state aggregated per row.
func WriteCSV(w io.Writer, s Snapshot) error {
	if _, err := fmt.Fprintln(w, "metric,labels,value"); err != nil {
		return err
	}
	labelStr := func(labels []Label) string {
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = l.Name + "=" + l.Value
		}
		return strings.Join(parts, " ")
	}
	for _, f := range s.Families {
		for _, p := range f.Points {
			if f.Kind == "histogram" && p.Hist != nil {
				h := p.Hist
				rows := []struct {
					suffix string
					v      float64
				}{
					{"_count", float64(h.Count)}, {"_sum", float64(h.Sum)},
					{"_min", float64(h.Min)}, {"_max", float64(h.Max)},
					{"_p50", h.P50}, {"_p90", h.P90}, {"_p99", h.P99},
				}
				for _, row := range rows {
					if _, err := fmt.Fprintf(w, "%s%s,%s,%s\n", f.Name, row.suffix, labelStr(p.Labels), fmtValue(row.v)); err != nil {
						return err
					}
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%s\n", f.Name, labelStr(p.Labels), fmtValue(p.Value)); err != nil {
				return err
			}
		}
	}
	if len(s.Samples) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "\ntime,delivered,in_flight_from_max,in_flight_to_max,inbox_depth_max,stall_cycles_total,utilization_mean"); err != nil {
		return err
	}
	for _, sm := range s.Samples {
		maxOf := func(xs []int32) int32 {
			var m int32
			for _, x := range xs {
				if x > m {
					m = x
				}
			}
			return m
		}
		var stall int64
		for _, c := range sm.StallCycles {
			stall += c
		}
		var util float64
		for _, u := range sm.Utilization {
			util += u
		}
		if n := len(sm.Utilization); n > 0 {
			util /= float64(n)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%.4f\n",
			sm.Time, sm.Delivered, maxOf(sm.InFlightFrom), maxOf(sm.InFlightTo),
			maxOf(sm.InboxDepth), stall, util); err != nil {
			return err
		}
	}
	return nil
}

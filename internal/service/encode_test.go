package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/topo"
)

// jsonEncode is the reflective encoder the canonical writer replaced: an
// encoding/json Encoder with SetIndent("", "  "). It is the writer's oracle.
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeChecker compares the canonical writer with the oracle on a series
// of values. Each comparison also checks that the body the writer returned
// before it is unchanged, so no returned body aliases the pooled scratch
// buffer that later encodes reuse.
type encodeChecker struct {
	t           *testing.T
	prev, saved []byte // the last body returned, and a copy taken then
}

func (c *encodeChecker) response(name string, r *Response) {
	c.t.Helper()
	got, err := r.Encode()
	c.compare(name, r, got, err)
}

func (c *encodeChecker) sweep(name string, r *SweepResponse) {
	c.t.Helper()
	var buf bytes.Buffer
	r.writeTo(&buf)
	c.compare(name, r, buf.Bytes(), nil)
}

func (c *encodeChecker) compare(name string, v any, got []byte, err error) {
	t := c.t
	t.Helper()
	want, wantErr := jsonEncode(v)
	if !bytes.Equal(c.prev, c.saved) {
		t.Fatalf("%s: encoding it changed the previous body", name)
	}
	c.prev, c.saved = got, bytes.Clone(got)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Errorf("%s: writer error %v, encoding/json error %v", name, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Errorf("%s: writer error %q, encoding/json error %q", name, err, wantErr)
		}
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(i-200, 0)
		t.Errorf("%s: bodies differ at byte %d of %d/%d:\n--- writer ---\n%s\n--- encoding/json ---\n%s",
			name, i, len(got), len(want), got[from:min(i+200, len(got))], want[from:min(i+200, len(want))])
	}
}

// TestEncodeMatchesJSON requires byte-identical bodies, or the same error
// text, from the canonical writer and encoding/json over real bodies (every
// case of TestEnginesAgreeOnBody's table, jobs-cold-like P=64 specs with
// metrics and two tiers), random values that fill every field (so a field
// added to a body type cannot drift silently), and hand cases for the
// corners the random values miss.
func TestEncodeMatchesJSON(t *testing.T) {
	c := &encodeChecker{t: t}

	for _, prog := range progs.Names() {
		for _, v := range bodyVariants {
			for _, p := range []int{8, 16} {
				resp, err := Run(bodyVariantSpec(prog, v.mut, p))
				if err != nil {
					if !v.mayFail {
						t.Errorf("%s/%s/P%d: %v", prog, v.name, p, err)
					}
					continue
				}
				c.response(fmt.Sprintf("%s/%s/P%d", prog, v.name, p), resp)
			}
		}
	}

	twoTier := &topo.Spec{ProcsPerNode: 4, Node: topo.Link{L: 2, O: 1, G: 1}}
	for _, prog := range progs.Names() {
		for _, block := range []string{"metrics", "two-tier", "both"} {
			spec := JobSpec{Program: prog, Seed: 11,
				Machine: MachineSpec{P: 64, L: 12, O: 2, G: 4, LatencyJitter: 2}}
			if block != "two-tier" {
				spec.Metrics = &MetricsSpec{Include: true}
			}
			if block != "metrics" {
				spec.Machine.Topology = twoTier
			}
			resp, err := Run(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog, block, err)
			}
			c.response(fmt.Sprintf("%s/P64/%s", prog, block), resp)
		}
	}

	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		for _, typ := range []reflect.Type{reflect.TypeOf(Response{}), reflect.TypeOf(SweepResponse{})} {
			v, ok := quick.Value(typ, rng)
			if !ok {
				t.Fatalf("quick.Value(%v) failed", typ)
			}
			switch r := v.Interface().(type) {
			case Response:
				c.response(fmt.Sprintf("random response %d", i), &r)
			case SweepResponse:
				c.sweep(fmt.Sprintf("random sweep %d", i), &r)
			}
		}
	}

	for name, r := range handResponses() {
		c.response(name, r)
	}
	for name, r := range map[string]*SweepResponse{
		"sweep nil points":   {},
		"sweep empty points": {Points: []SweepPoint{}},
		"sweep escaped hash": {Points: []SweepPoint{{SpecHash: "<&>\u2028\xff", P: -1, Seed: math.MinInt64}}},
	} {
		c.sweep(name, r)
	}
}

// handResponses are the corners random values miss: nil against empty
// slices, float formatting boundaries, strings that need escaping, and the
// values encoding/json refuses.
func handResponses() map[string]*Response {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1.5e-300, 1e20, 1e21, -1e21,
		123456789e12, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2, 0.1, -2.5, 1.0 / 3}
	strs := []string{"", "<&>", "a\u2028b\u2029c", "\x00\x01\b\f\n\r\t\x1f\x7f", `"quoted" \back\`,
		"\xff", "ok\xc3", "\xed\xa0\x80", "é日本\U0001F389", "</script>"}
	output := map[string]float64{}
	for i, f := range floats {
		output[fmt.Sprintf("f%02d", i)] = f
	}
	for i, s := range strs {
		output[s] = float64(i)
	}
	var labels []metrics.Label
	for _, s := range strs {
		labels = append(labels, metrics.Label{Name: s, Value: s + "!"})
	}
	full := func() *Response { // a fresh value each call, so cases can alter it
		return &Response{
			SpecHash: "<&>\u2028",
			Spec: JobSpec{Program: "a<b>&\u2029\xff", Machine: MachineSpec{P: 2, ComputeJitter: 1e-7, ProcSkew: 1e21},
				Faults: &FaultSpec{Drop: 5e-324, Fails: []FailStopSpec{}}},
			Result: ResultJSON{Time: math.MaxInt64, Messages: -1, Failed: []int{3, 1},
				Procs: []ProcStatsJSON{{Proc: 1, Finish: math.MinInt64}}},
			Output: maps.Clone(output),
			Metrics: &metrics.Snapshot{
				Families: []metrics.Family{
					{Name: strs[2], Help: strs[3], Kind: strs[4], Points: []metrics.Point{
						{Labels: labels, Value: math.Copysign(0, -1)},
						{Value: 9.99e-7, Hist: &metrics.HistogramSnapshot{Bounds: []int64{1, 2}, Counts: []int64{0, 5, 1},
							Min: -1, P50: 1e-6, P90: 1e21, P99: math.Copysign(0, -1)}},
					}},
				},
				Samples: []metrics.Sample{{Time: 1, InFlightFrom: []int32{math.MaxInt32, math.MinInt32},
					StallCycles: []int64{0}, Utilization: slices.Clone(floats)}},
			},
		}
	}
	cases := map[string]*Response{
		"zero":           {},
		"full":           full(),
		"empty":          {Result: ResultJSON{Failed: []int{}, Procs: []ProcStatsJSON{}}, Output: map[string]float64{}},
		"nil families":   {Metrics: &metrics.Snapshot{}},
		"empty families": {Metrics: &metrics.Snapshot{Families: []metrics.Family{}, Samples: []metrics.Sample{}}},
		"nil and empty inside metrics": {Metrics: &metrics.Snapshot{
			Families: []metrics.Family{{}, {Points: []metrics.Point{}}, {Points: []metrics.Point{
				{Labels: []metrics.Label{}, Hist: &metrics.HistogramSnapshot{}},
				{Hist: &metrics.HistogramSnapshot{Bounds: []int64{}, Counts: []int64{}}},
			}}},
			Samples: []metrics.Sample{{}, {InFlightFrom: []int32{}, InFlightTo: []int32{}, InboxDepth: []int32{},
				StallCycles: []int64{}, Utilization: []float64{}}},
		}},
	}
	bad := []struct {
		name string
		set  func(r *Response, f float64)
	}{
		{"output", func(r *Response, f float64) { r.Output["zz"] = f }},
		{"point value", func(r *Response, f float64) { r.Metrics.Families[0].Points[0].Value = f }},
		{"histogram p90", func(r *Response, f float64) { r.Metrics.Families[0].Points[1].Hist.P90 = f }},
		{"utilization", func(r *Response, f float64) { r.Metrics.Samples[0].Utilization[3] = f }},
		{"spec", func(r *Response, f float64) { r.Spec.Machine.ComputeJitter = f }},
	}
	for _, b := range bad {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := full()
			b.set(r, f)
			cases[fmt.Sprintf("%v in %s", f, b.name)] = r
		}
	}
	// Two unsupported values: the error names the first in field order.
	r := full()
	r.Output["zz"] = math.Inf(-1)
	r.Metrics.Samples[0].Utilization[0] = math.NaN()
	cases["-Inf then NaN"] = r
	return cases
}

// FuzzResponseEncode decodes the input into a Response and a SweepResponse
// and, for each that decodes, requires the same bytes from the canonical
// writer and encoding/json. The corpus is seeded with real bodies.
func FuzzResponseEncode(f *testing.F) {
	for _, spec := range []JobSpec{
		specBroadcast8(),
		{Program: "sum", N: 40, IncludeProcs: true, Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4}},
		{Program: "alltoall", Work: 3, Metrics: &MetricsSpec{Include: true, Every: 64},
			Machine: MachineSpec{P: 2, L: 6, O: 2, G: 4, ComputeJitter: 0.3}},
		{Program: "broadcast", Faults: &FaultSpec{Dup: 0.2, Fails: []FailStopSpec{{Proc: 5, At: 3}}},
			Machine: MachineSpec{P: 8, L: 6, O: 2, G: 4}},
	} {
		resp, err := Run(spec)
		if err != nil {
			f.Fatal(err)
		}
		body, err := resp.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"points":[{"spec_hash":"\u003c\u2028","p":8,"time":-0}]}`))
	f.Add([]byte(`{"output":{"a":-0,"b":1e-7,"c":1e21,"\u0000":5e-324}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &encodeChecker{t: t}
		var r Response
		if json.Unmarshal(data, &r) == nil {
			c.response("response", &r)
		}
		var sr SweepResponse
		if json.Unmarshal(data, &sr) == nil {
			c.sweep("sweep", &sr)
		}
	})
}

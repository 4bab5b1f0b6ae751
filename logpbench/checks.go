package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"github.com/logp-model/logp/internal/service"
)

// jobBody is the part of a job response the checks read. The metrics block,
// which can be hundreds of kilobytes, comes last and is never parsed.
type jobBody struct {
	SpecHash string
	Result   service.ResultJSON
	Output   map[string]float64
}

func parseJobBody(b []byte) (jobBody, error) {
	var jb jobBody
	dec := json.NewDecoder(bytes.NewReader(b))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return jb, fmt.Errorf("response is not a JSON object")
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return jb, err
		}
		switch t {
		case "spec_hash":
			err = dec.Decode(&jb.SpecHash)
		case "result":
			err = dec.Decode(&jb.Result)
		case "output":
			err = dec.Decode(&jb.Output)
		case "metrics":
			return jb, nil
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return jb, fmt.Errorf("decoding %v: %w", t, err)
		}
	}
	return jb, nil
}

// simOutcome is what an op simulated, in sim time only: the result and
// program output of a job, or each point's time and message count of a
// sweep. Spec and spec hash are left out, so the digest of all outcomes
// survives a change of the cache key.
type simOutcome struct {
	Result *service.ResultJSON `json:"result,omitempty"`
	Output map[string]float64  `json:"output,omitempty"`
	Points [][2]int64          `json:"points,omitempty"`
}

// messages and cycles are the fingerprint totals of one op.
func (s simOutcome) messages() int64 {
	if s.Result != nil {
		return int64(s.Result.Messages)
	}
	var m int64
	for _, p := range s.Points {
		m += p[1]
	}
	return m
}

func (s simOutcome) cycles() int64 {
	if s.Result != nil {
		return s.Result.Time
	}
	var c int64
	for _, p := range s.Points {
		c += p[0]
	}
	return c
}

// checkJob checks a /v1/jobs reply: status, cache verdict (unless
// wantCache is empty), spec hash against the benchmark's own, and the
// program digest.
func checkJob(o *op, r reply, wantCache string) (simOutcome, []string) {
	var fails []string
	if r.status != http.StatusOK {
		return simOutcome{}, []string{fmt.Sprintf("status %d: %.200s", r.status, r.body)}
	}
	if got := r.header.Get("X-Logpsimd-Cache"); wantCache != "" && got != wantCache {
		fails = append(fails, fmt.Sprintf("X-Logpsimd-Cache %q, want %q", got, wantCache))
	}
	jb, err := parseJobBody(r.body)
	if err != nil {
		return simOutcome{}, append(fails, err.Error())
	}
	if jb.SpecHash != o.hashes[0] || r.header.Get("X-Logpsimd-Spec-Hash") != o.hashes[0] {
		fails = append(fails, fmt.Sprintf("spec_hash %.12s, want %.12s", jb.SpecHash, o.hashes[0]))
	}
	fails = append(fails, checkDigest(o.specs[0], jb.Result, jb.Output)...)
	return simOutcome{Result: &jb.Result, Output: jb.Output}, fails
}

// checkDigest checks the program-level invariants of one run.
func checkDigest(spec service.JobSpec, res service.ResultJSON, out map[string]float64) []string {
	var fails []string
	want := func(key string, v float64) {
		if got, ok := out[key]; !ok || got != v {
			fails = append(fails, fmt.Sprintf("%s: output %s = %v, want %v", spec.Program, key, out[key], v))
		}
	}
	if res.Undelivered != 0 {
		fails = append(fails, fmt.Sprintf("%s: %d undelivered messages", spec.Program, res.Undelivered))
	}
	// Normalize fills the default n the program ran with.
	if err := spec.Normalize(service.Limits{}); err != nil {
		return append(fails, err.Error())
	}
	p, n := float64(spec.Machine.P), float64(spec.N)
	switch spec.Program {
	case "broadcast":
		want("reached", p)
	case "sum":
		want("root_ok", 1)
		want("root", out["values"])
		if out["values"] < n {
			fails = append(fails, fmt.Sprintf("sum: values %v < n %v", out["values"], n))
		}
	case "chain", "binomial":
		// Not "complete": it also demands in-order arrival, which latency
		// jitter on a two-tier machine legitimately breaks.
		want("received", n*p)
	case "fftremap":
		want("placed", n)
	case "bitonic":
		want("sorted", 1)
	case "alltoall":
		want("received", n*p*(p-1))
	case "pingpong":
		want("rounds", n)
	default:
		fails = append(fails, fmt.Sprintf("no digest check for program %q", spec.Program))
	}
	return fails
}

// checkSweep checks a hot /v1/sweep reply: every point a hit and the body
// byte-identical to the set-up reply, whose points parseSweep checked.
func checkSweep(o *op, r reply, setupBody []byte) []string {
	var fails []string
	if r.status != http.StatusOK {
		return []string{fmt.Sprintf("status %d: %.200s", r.status, r.body)}
	}
	hits, _ := strconv.Atoi(r.header.Get("X-Logpsimd-Cache-Hits"))
	misses, _ := strconv.Atoi(r.header.Get("X-Logpsimd-Cache-Misses"))
	if hits != len(o.specs) || misses != 0 {
		fails = append(fails, fmt.Sprintf("sweep %d hits %d misses, want %d hits", hits, misses, len(o.specs)))
	}
	if !bytes.Equal(r.body, setupBody) {
		fails = append(fails, "sweep body differs from its set-up body")
	}
	return fails
}

// parseSweep checks a sweep body's points against the benchmark's own spec
// hashes and returns the points' sim-time outcome.
func parseSweep(o *op, body []byte) (simOutcome, []string) {
	var sr service.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return simOutcome{}, []string{err.Error()}
	}
	if len(sr.Points) != len(o.hashes) {
		return simOutcome{}, []string{fmt.Sprintf("sweep has %d points, want %d", len(sr.Points), len(o.hashes))}
	}
	var fails []string
	out := simOutcome{Points: make([][2]int64, len(sr.Points))}
	for j, pt := range sr.Points {
		if pt.SpecHash != o.hashes[j] {
			fails = append(fails, fmt.Sprintf("point %d spec_hash %.12s, want %.12s", j, pt.SpecHash, o.hashes[j]))
		}
		out.Points[j] = [2]int64{pt.Time, int64(pt.Messages)}
	}
	return out, fails
}

// crossEngine re-runs spec on the other engine through service.Run and
// reports a disagreement with the daemon's result or output.
func crossEngine(spec service.JobSpec, res service.ResultJSON, out map[string]float64) []string {
	other := spec
	other.Engine = "flat"
	if spec.Engine == "flat" {
		other.Engine = "goroutine"
	}
	resp, err := service.Run(other)
	if err != nil {
		return []string{fmt.Sprintf("cross-engine %s: %v", classOf(other), err)}
	}
	got := mustJSON(simOutcome{Result: &resp.Result, Output: resp.Output})
	want := mustJSON(simOutcome{Result: &res, Output: out})
	if !bytes.Equal(got, want) {
		return []string{fmt.Sprintf("cross-engine %s disagrees: %s vs %s", classOf(other), got, want)}
	}
	return nil
}

// anchors are the paper's worked examples: the Figure 3 optimal broadcast
// and the Figure 4 optimal summation, exact in cycles.
var anchors = []struct {
	name  string
	spec  service.JobSpec
	cycle int64
}{
	{"fig3-broadcast", service.JobSpec{Program: "broadcast",
		Machine: service.MachineSpec{P: 8, L: 6, O: 2, G: 4}}, 24},
	{"fig4-sum", service.JobSpec{Program: "sum", N: 79,
		Machine: service.MachineSpec{P: 8, L: 5, O: 2, G: 4}}, 28},
}

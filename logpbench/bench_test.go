package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSpecsNormalize checks that every generated spec of every workload
// normalizes, for several seeds, and that the miss workloads never repeat a
// spec: a repeat would be a cache hit where the workload promises misses.
func TestSpecsNormalize(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, seed := range []uint64{1, 2, 977} {
			timed, warm := w.generate(seed, w.opCount(2))
			seen := map[string]bool{}
			for i, o := range append(timed, warm...) {
				if o.err != nil {
					t.Fatalf("%s seed %d op %d: %v", name, seed, i, o.err)
				}
				if len(o.hashes) != len(o.specs) || len(o.specs) == 0 {
					t.Fatalf("%s seed %d op %d: %d hashes for %d specs", name, seed, i, len(o.hashes), len(o.specs))
				}
				if o.path != "/v1/jobs" {
					continue
				}
				if seen[o.hashes[0]] {
					t.Fatalf("%s seed %d op %d repeats spec %.12s", name, seed, i, o.hashes[0])
				}
				seen[o.hashes[0]] = true
			}
		}
	}
}

// TestShortRuns runs each workload briefly, untraced and traced, and
// checks that every reply passes every check and that the metrics printed
// are exactly the ones BENCHMARK.json declares.
func TestShortRuns(t *testing.T) {
	declared := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := runConfig{w: w, seed: 5, ops: 2 * w.period, setups: 2, log: &log}
			if name == "sim-large" {
				cfg.ops = 4
			}
			run, want := runUntraced, declared.EndToEnd
			if traced {
				run, want = runTraced, declared.PerLayer
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 || (!traced && rep.value("ok_ratio") != 1) {
				t.Fatalf("%s traced=%v: %d of %d failed:\n%s", name, traced, rep.failed, rep.attempted, log.String())
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: BENCHMARK.json metric %s (%s) printed as %q", name, traced, m.Name, m.Unit, unit)
				}
				delete(got, m.Name)
			}
			for m := range got {
				t.Errorf("%s traced=%v: printed metric %s is not in BENCHMARK.json", name, traced, m)
			}
			if !traced {
				for _, m := range rep.metrics {
					if m.value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, m.value)
					}
				}
			}
		}
	}
}

// TestSameSeedSameOutcomes checks that the sim-time digest depends on the
// seed alone: two runs of one seed simulate identically.
func TestSameSeedSameOutcomes(t *testing.T) {
	w := workloads["jobs-cold"]
	var digests []string
	for k := 0; k < 2; k++ {
		cfg := runConfig{w: w, seed: 8, ops: w.period, setups: 1, log: &bytes.Buffer{}}
		rep, err := runUntraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, rep.digest)
	}
	if digests[0] != digests[1] || digests[0] == "" {
		t.Fatalf("same seed, different sim digests: %v", digests)
	}
}

func (r *report) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaredBenchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) declaredBenchmark {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaredBenchmark
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	for _, wl := range d.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", wl.Name)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(d.Workloads), len(workloads))
	}
	return d
}

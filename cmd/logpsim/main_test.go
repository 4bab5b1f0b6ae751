package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/logp-model/logp/internal/metrics"
	"github.com/logp-model/logp/internal/service"
)

// buildBinary compiles the command under test into a temp dir and returns
// the path. Exit-code assertions need the real binary: `go run` reports the
// child's failure as its own exit status 1, losing the code.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "logpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestMetricsFormatsSmoke runs the binary once per export format and checks
// each output parses: the Prometheus text has HELP/TYPE lines and the run's
// counters, the JSON round-trips into a metrics.Snapshot, and the CSV leads
// with its header row.
func TestMetricsFormatsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	bin := buildBinary(t)
	run := func(format string) string {
		out, err := exec.Command(bin,
			"-algo", "broadcast", "-P", "8", "-metrics", "-", "-metrics-format", format).CombinedOutput()
		if err != nil {
			t.Fatalf("logpsim -metrics-format %s: %v\n%s", format, err, out)
		}
		// The metrics block follows the human-readable run summary.
		return string(out)
	}

	prom := run("prom")
	for _, want := range []string{
		"# TYPE logp_sends_total counter",
		"# HELP logp_sim_time_cycles",
		`logp_delivered_total{proc="1"} 1`,
		"logp_flight_cycles_count 7",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q:\n%s", want, prom)
		}
	}

	jsonOut := run("json")
	start := strings.Index(jsonOut, "{")
	if start < 0 {
		t.Fatalf("no JSON object in output:\n%s", jsonOut)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(jsonOut[start:]), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jsonOut)
	}
	if len(snap.Families) == 0 || len(snap.Samples) == 0 {
		t.Errorf("JSON snapshot empty: %d families, %d samples", len(snap.Families), len(snap.Samples))
	}

	csvOut := run("csv")
	if !strings.Contains(csvOut, "metric,labels,value\n") {
		t.Errorf("csv output missing header:\n%s", csvOut)
	}
	if !strings.Contains(csvOut, "logp_sends_total,proc=0,") {
		t.Errorf("csv output missing counter rows:\n%s", csvOut)
	}
}

// TestBadMetricsFormatExit2 checks that an unknown format is a usage error.
func TestBadMetricsFormatExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-metrics", "-", "-metrics-format", "xml").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected exit 2 for bad format, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "unknown metrics format") {
		t.Errorf("no format diagnostic in output:\n%s", out)
	}
}

// TestJSONMatchesServiceBytes proves the -json satellite's contract: for a
// program-form algorithm, the CLI's stdout is byte-identical to what the
// daemon serves for the same spec (both run service.Run and the canonical
// encoder), and the printed spec hash is the daemon's cache key.
func TestJSONMatchesServiceBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	bin := buildBinary(t)
	got, err := exec.Command(bin, "-algo", "sum", "-P", "8", "-L", "5", "-n", "79", "-json").Output()
	if err != nil {
		t.Fatalf("logpsim -json: %v", err)
	}
	resp, err := service.Run(service.JobSpec{
		Program: "sum", N: 79,
		Machine: service.MachineSpec{P: 8, L: 5, O: 2, G: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("CLI bytes differ from the service encoding:\n--- cli ---\n%s--- service ---\n%s", got, want)
	}
	if !strings.Contains(string(got), `"spec_hash": "`+resp.SpecHash+`"`) {
		t.Error("spec hash missing from the CLI body")
	}
}

// TestJSONImperativeAlgo checks the CLI-only algorithms emit the service
// response shape with an empty (non-cacheable) spec hash. The subprocess
// runs without LOGP_ENGINE and LOGP_SHARDS: the imperative algorithms run
// on the goroutine engine only, and this test checks the -json shape, not
// the engine choice.
func TestJSONImperativeAlgo(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-algo", "sort", "-P", "8", "-n", "128", "-json")
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool {
		return strings.HasPrefix(kv, "LOGP_ENGINE=") || strings.HasPrefix(kv, "LOGP_SHARDS=")
	})
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("logpsim -algo sort -json: %v", err)
	}
	var resp service.Response
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("output does not parse as a service response: %v\n%s", err, out)
	}
	if resp.SpecHash != "" {
		t.Errorf("imperative algorithm carries spec hash %q, want empty", resp.SpecHash)
	}
	if resp.Spec.Program != "sort" || resp.Result.Time <= 0 || resp.Result.Messages <= 0 {
		t.Errorf("unexpected response: %+v", resp)
	}

	// -json refuses the flags whose output it cannot represent.
	if out, err := exec.Command(bin, "-algo", "sort", "-json", "-trace").CombinedOutput(); err == nil {
		t.Errorf("-json -trace accepted:\n%s", out)
	}
}

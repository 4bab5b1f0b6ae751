// Command benchstat2json runs the substrate microbenchmarks and writes
// their results as JSON, so the performance trajectory of the simulator
// (events/s, msgs/s, allocs/op) is tracked across PRs in a committed
// BENCH_<n>.json file.
//
// Usage:
//
//	go run ./cmd/benchstat2json -out BENCH_1.json
//	go run ./cmd/benchstat2json -bench 'BenchmarkKernel.*' -benchtime 10x
//
// The tool shells out to `go test -bench` (so the numbers are exactly what
// a developer sees) and parses the standard benchmark output format:
//
//	BenchmarkName  <N>  <value> ns/op  [<value> <unit>]...
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultBench selects the substrate microbenchmarks: the goroutine and
// flat engine throughput targets (same machine, same workload), the sharded
// flat core and the P=10^5 scale pin, the heap, handoff, and wait-elision
// paths, the hook-overhead pairs (profiler recorder and metrics registry,
// each detached vs attached), and the daemon's response encoding; from
// internal/flat, the fresh and re-seated staggered all-to-all at P=32 and
// P=256 (the sim-large job), with its per-message cost and storage, and the
// P=64 mix row, one machine re-seated for the all-to-all, the FFT remap and
// the broadcast in turn (the pool's pattern on jobs-cold); from
// internal/service, a 48-point sweep memo hit through the handler; and from
// internal/core, the sum program's schedule construction.
const defaultBench = "BenchmarkKernelEventThroughput|BenchmarkMachineMessageThroughput|BenchmarkFlatMachineMessageThroughput|BenchmarkFlatShardedMessageThroughput|BenchmarkFlatBroadcastP100k|BenchmarkHeapPushPop|BenchmarkContextSwitch|BenchmarkProcessWait|BenchmarkSendRecvRecorderOff|BenchmarkSendRecvRecorderOn|BenchmarkSendRecvMetricsOff|BenchmarkSendRecvMetricsOn|BenchmarkResponseEncode|BenchmarkFlatReset|BenchmarkSweepHit|BenchmarkSumSchedule"

// defaultPkgs are the packages holding the default benchmarks.
const defaultPkgs = ". ./internal/flat ./internal/service ./internal/core"

type benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics"`
}

type output struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Bench      string      `json:"bench_filter"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", defaultBench, "benchmark filter passed to go test -bench")
	benchtime := flag.String("benchtime", "5x", "value passed to go test -benchtime")
	count := flag.Int("count", 1, "value passed to go test -count")
	pkgs := flag.String("pkg", defaultPkgs, "space-separated packages containing the benchmarks")
	out := flag.String("out", "BENCH_1.json", "output file")
	flag.Parse()

	args := append([]string{"test", "-run", "^$",
		"-bench", *bench, "-benchmem",
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count)}, strings.Fields(*pkgs)...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstat2json: go test: %v\n", err)
		os.Exit(1)
	}
	benches, err := parse(string(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstat2json: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintf(os.Stderr, "benchstat2json: no benchmark lines matched %q\n", *bench)
		os.Exit(1)
	}
	res := output{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      *bench,
		Benchmarks: benches,
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchstat2json: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchstat2json: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(benches))
}

// parse extracts benchmark result lines from go test output. Repeated runs
// of the same benchmark (-count > 1) are averaged.
func parse(text string) ([]benchmark, error) {
	type acc struct {
		b    benchmark
		runs int64
	}
	var order []string
	byName := map[string]*acc{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -<GOMAXPROCS> suffix go test appends on parallel hosts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q", line)
		}
		a, ok := byName[name]
		if !ok {
			a = &acc{b: benchmark{Name: name, Metrics: map[string]float64{}}}
			byName[name] = a
			order = append(order, name)
		}
		a.runs++
		a.b.Iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			if fields[i+1] == "ns/op" {
				a.b.NsPerOp += v
			} else {
				a.b.Metrics[fields[i+1]] += v
			}
		}
	}
	out := make([]benchmark, 0, len(order))
	for _, name := range order {
		a := byName[name]
		a.b.NsPerOp /= float64(a.runs)
		for k := range a.b.Metrics {
			a.b.Metrics[k] /= float64(a.runs)
		}
		out = append(out, a.b)
	}
	return out, sc.Err()
}

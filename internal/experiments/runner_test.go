package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapIndexedOrderAndCoverage drives the runner at explicit worker
// bounds, including 0 (GOMAXPROCS) and bounds above the item count: every
// index is computed exactly once and lands in its own slot.
func TestMapIndexedOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 64, 100} {
		var calls atomic.Int64
		out := MapIndexed(workers, 37, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if len(out) != 37 || calls.Load() != 37 {
			t.Fatalf("workers=%d: %d results, %d calls", workers, len(out), calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if MapIndexed(workers, 0, func(int) int { return 0 }) != nil {
			t.Errorf("workers=%d: empty map should be nil", workers)
		}
	}
}

// TestRunAllMatchesCatalogOrder checks RunAll returns reports in catalog
// order on a small concurrent bound, and calls the observer once per entry.
func TestRunAllMatchesCatalogOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalog")
	}
	var mu sync.Mutex
	seen := map[string]int{}
	reports := RunAll(Options{Scale: 1, Workers: 4}, func(o Observation) {
		mu.Lock()
		seen[o.ID]++
		mu.Unlock()
	})
	cat := Catalog()
	if len(reports) != len(cat) {
		t.Fatalf("%d reports for %d catalog entries", len(reports), len(cat))
	}
	for i, r := range reports {
		if r.ID != cat[i].ID {
			t.Errorf("report %d: ID %q, want %q", i, r.ID, cat[i].ID)
		}
		if seen[cat[i].ID] != 1 {
			t.Errorf("%s: observed %d times, want once", cat[i].ID, seen[cat[i].ID])
		}
	}
}

// TestRunnerRaceSmoke drives a handful of cheap generators with many
// workers. It stays active under -short so `go test -race -short` still
// exercises the concurrent paths of the runner and the simulators beneath
// it.
func TestRunnerRaceSmoke(t *testing.T) {
	opts := Options{Scale: 1, Workers: 8}
	for _, r := range []Report{Multithreading(opts), LongMessages(opts), SurfaceToVolume(opts), TableAvgDistance(opts)} {
		if r.ID == "" {
			t.Error("empty report")
		}
	}
}

// TestParallelDeterminism is the regression test for the parallel runner's
// central claim: for every converted experiment generator, running the
// sweeps on many workers produces a Report identical (reflect.DeepEqual) to
// the sequential path, across at least three scales per generator. Scales
// that break a generator's preconditions (FFT sizes must be powers of two,
// so scale 3 does not divide) are included deliberately where cheap: the
// first-failure precedence of the parallel path must match the sequential
// early return too. The worker bound travels in Options, so the subtests
// run in parallel. The full matrix is a few minutes of simulation; -short
// skips it (TestRunnerRaceSmoke keeps race coverage).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism matrix is expensive")
	}
	t.Parallel()
	cases := []struct {
		name   string
		run    func(Options) Report
		scales []Scale
	}{
		{"Fig6", Fig6, []Scale{1, 2, 4}},
		{"Fig7", Fig7, []Scale{1, 2, 4}},
		{"Fig8", Fig8, []Scale{1, 2, 3}}, // 3: non-power-of-two error path
		{"BSPComparison", BSPComparison, []Scale{1, 2, 4}},
		{"NetworkSaturation", NetworkSaturation, []Scale{1, 2, 3}},
		{"CapacitySaturation", CapacitySaturation, []Scale{1, 2}},
		{"PatternGaps", PatternGaps, []Scale{1, 2, 3}},
		{"SurfaceToVolume", SurfaceToVolume, []Scale{1, 2, 3}},
		{"TableAvgDistance", TableAvgDistance, []Scale{1, 2, 3}},
		{"Multithreading", Multithreading, []Scale{1, 2, 3}},
		{"LongMessages", LongMessages, []Scale{1, 2, 3}},
		{"OverlapFFT", OverlapFFT, []Scale{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, s := range tc.scales {
				seq := tc.run(Options{Scale: s, Workers: 1})
				par := tc.run(Options{Scale: s, Workers: 8})
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("scale %d: parallel report differs from sequential\nseq: %+v\npar: %+v", s, seq, par)
				}
			}
		})
	}
}

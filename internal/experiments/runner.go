package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment harness runs many independent simulations per figure —
// problem-size sweeps, schedule variants, load sweeps. Each simulation is a
// self-contained Machine (or packet network) with its own kernel and its own
// seeded random source, so runs share no mutable state and can execute
// concurrently. MapIndexed is the one primitive every converted sweep uses:
// it evaluates f(0..n-1) on a bounded worker pool and assembles the results
// in input order. Because each f(i) is deterministic in i and the output
// slot is fixed by i, the assembled slice — and therefore every Report built
// from it — is bit-identical to what the sequential loop produced.
//
// The worker bound is an explicit value (Options.Workers, MapIndexed's
// workers argument), so independent callers — concurrent jobs inside the
// logpsimd daemon, tests — each pick their own bound; the package holds no
// mutable state.

// MapIndexed computes [f(0), f(1), ..., f(n-1)] with at most workers
// invocations in flight (workers <= 0 means GOMAXPROCS). Workers draw
// indices from an atomic counter, so no index is computed twice and the
// schedule adapts to uneven item costs; each result lands in its own slot,
// so the output order is the input order regardless of completion order.
func MapIndexed[T any](workers, n int, f func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// failure is the per-item error slot used by converted sweeps: the item that
// would have made the sequential loop return early records the Report it
// would have returned. After the map, callers scan the items in input order
// and return the first recorded failure, so the error a caller sees is the
// same one the sequential loop hit first.
type failure struct {
	rep *Report
}

func fail(id string, c Check) failure {
	return failure{rep: &Report{ID: id, Checks: []Check{c}}}
}

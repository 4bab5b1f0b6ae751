package flat_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// broadcastMachine builds a flat machine running the paper's optimal
// broadcast at P, the flight-recorder test workload (fan-out traffic that
// crosses shards).
func broadcastMachine(t testing.TB, p, shards int, nocap bool) *flat.Machine {
	t.Helper()
	params := core.Params{P: p, L: 8, O: 2, G: 3}
	sched, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flat.New(logp.Config{Params: params, DisableCapacity: nocap},
		progs.NewBroadcast(sched, 1, "datum"), shards)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlightRecorderResultIdentical pins the acceptance property: a recorded
// run's Result is bit-identical to an unrecorded one — the recorder observes
// wall-clock behavior and never steers sim time — on the sequential and
// the sharded kernel.
func TestFlightRecorderResultIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		nocap  bool
	}{
		{"sequential", 1, false},
		{"sharded-nocap", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := broadcastMachine(t, 64, tc.shards, tc.nocap)
			want, err := plain.Run()
			if err != nil {
				t.Fatal(err)
			}
			rec := broadcastMachine(t, 64, tc.shards, tc.nocap)
			rec.EnableFlightRecorder()
			got, err := rec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("recorded Result differs:\nplain    %+v\nrecorded %+v", want, got)
			}
			// And a re-Run resets the counters rather than accumulating.
			first := rec.ShardStats()
			if _, err := rec.Run(); err != nil {
				t.Fatal(err)
			}
			second := rec.ShardStats()
			for s := range first {
				if first[s].Events != second[s].Events {
					t.Errorf("shard %d: re-Run accumulated events (%d then %d)",
						s, first[s].Events, second[s].Events)
				}
			}
		})
	}
}

// TestShardStatsCounters sanity-checks the recorded traffic: every event
// dispatched was inserted somewhere (wheel or heap), and sharded runs count
// their windows and barrier merges.
func TestShardStatsCounters(t *testing.T) {
	m := broadcastMachine(t, 64, 4, true)
	m.EnableFlightRecorder()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	stats := m.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats() returned %d shards, want 4", len(stats))
	}
	var events, inserted, windows, merged int64
	for _, st := range stats {
		if st.Procs != 16 {
			t.Errorf("shard %d owns %d procs, want 16", st.Shard, st.Procs)
		}
		if st.Windows == 0 {
			t.Errorf("shard %d executed no windows", st.Shard)
		}
		events += st.Events
		inserted += st.WheelEvents + st.HeapEvents
		windows += st.Windows
		merged += st.MergedIn
	}
	if events == 0 || inserted < events {
		t.Errorf("dispatched %d events but inserted only %d", events, inserted)
	}
	if merged == 0 {
		t.Error("a 64-proc broadcast over 4 shards must merge cross-shard deliveries")
	}
	// All shards run every window together.
	if windows != 4*stats[0].Windows {
		t.Errorf("unequal window counts across shards: %v", stats)
	}

	// Recorder off: ShardStats is nil.
	off := broadcastMachine(t, 64, 4, true)
	if _, err := off.Run(); err != nil {
		t.Fatal(err)
	}
	if off.ShardStats() != nil || off.FlightRecorderEnabled() {
		t.Error("recorder-off machine must report no shard stats")
	}
}

// TestShardStatsOffZeroAllocPerMessage extends the zero-alloc pin to the
// flight recorder: with the recorder compiled in but off (the nil-hook
// default), the flat hot path must stay zero-alloc per message. Same
// differencing scheme as TestFlatZeroAllocPerMessage; the machine is built
// once per size so the recorder's construction-time state (none, when off)
// cannot hide per-message costs.
func TestShardStatsOffZeroAllocPerMessage(t *testing.T) {
	const (
		p     = 8
		small = 500
		large = 2500
	)
	measure := func(msgs int) float64 {
		m, err := flat.New(logp.Config{
			Params:          core.Params{P: p, L: 8, O: 2, G: 3},
			DisableCapacity: true,
		}, ringFlood(msgs, p), 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.FlightRecorderEnabled() {
			t.Fatal("recorder must be off by default")
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocSmall := measure(small)
	allocLarge := measure(large)
	perMsg := (allocLarge - allocSmall) / float64((large-small)*p)
	if perMsg > 0.01 {
		t.Errorf("recorder-off flat path allocates %.4f allocs/message (small run %.0f, large run %.0f)",
			perMsg, allocSmall, allocLarge)
	}
}

// TestShardStatsOnSteadyStateAllocFree pins the recorder-on path: after the
// first Run warms the machine's buffers, further recorded runs allocate
// (amortized) nothing per message — the counters are plain fields bumped
// through a pointer, and the snapshot is only built when ShardStats is
// called.
func TestShardStatsOnSteadyStateAllocFree(t *testing.T) {
	const msgs, p = 1000, 8
	m, err := flat.New(logp.Config{
		Params:          core.Params{P: p, L: 8, O: 2, G: 3},
		DisableCapacity: true,
	}, ringFlood(msgs, p), 1)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableFlightRecorder()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(10, func() {
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if perMsg := perRun / float64(msgs*p); perMsg > 0.01 {
		t.Errorf("recorder-on steady state allocates %.4f allocs/message (%.0f per run)", perMsg, perRun)
	}
}

// BenchmarkShardBalance is the kernel-tuning bench the shardbalance
// experiment complements: two capacity-off workloads — the optimal broadcast
// at P=256 and 4096, and the staggered all-to-all at P=1024 (one message per
// pair, 8 cycles of work per send, L=12 o=2 g=4, about 1.05M messages) —
// across GOMAXPROCS and shard counts with the flight recorder on. It reports
// the barrier-wait fraction, the share of shard-worker wall time spent idle
// at window barriers. Each point has a shards=1 row, the sequential kernel,
// so the speedup of a sharded row is the ratio of their ns/op. CI uploads
// this output as the shardbalance artifact.
func BenchmarkShardBalance(b *testing.B) {
	type workload struct {
		name string
		p    int
		mk   func(tb testing.TB, p, shards int) *flat.Machine
	}
	alltoall := func(tb testing.TB, p, shards int) *flat.Machine {
		params := core.Params{P: p, L: 12, O: 2, G: 4}
		m, err := flat.New(logp.Config{Params: params, DisableCapacity: true},
			progs.NewAllToAll(p, 1, 8, 1, true), shards)
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	broadcast := func(tb testing.TB, p, shards int) *flat.Machine {
		return broadcastMachine(tb, p, shards, true)
	}
	workloads := []workload{
		{"broadcast", 256, broadcast},
		{"broadcast", 4096, broadcast},
		{"alltoall", 1024, alltoall},
	}
	maxProcs := runtime.GOMAXPROCS(0)
	for _, w := range workloads {
		for _, procs := range []int{1, 2, 4} {
			if procs > maxProcs {
				continue
			}
			for _, shards := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/P=%d/gomaxprocs=%d/shards=%d", w.name, w.p, procs, shards)
				b.Run(name, func(b *testing.B) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					m := w.mk(b, w.p, shards)
					m.EnableFlightRecorder()
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						if _, err := m.Run(); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					var busy, wait int64
					for _, st := range m.ShardStats() {
						busy += st.BusyNs
						wait += st.BarrierWaitNs
					}
					if busy+wait > 0 {
						b.ReportMetric(float64(wait)/float64(busy+wait), "barrier-wait-frac")
					}
				})
			}
		}
	}
}

package flat

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// WheelBytes is the storage of m's timing-wheel buckets, for the external
// storage tests.
func WheelBytes(m *Machine) int64 {
	var n int
	for s := range m.sh {
		for b := range m.sh[s].wheel {
			n += cap(m.sh[s].wheel[b])
		}
	}
	return int64(n) * int64(unsafe.Sizeof(ent{}))
}

// runBuf is one buffer that seat trims: its capacity and the most entries
// the last run put in it. A wheel bucket carries its shard's number in
// wheel (else -1), since seat judges a shard's buckets together.
type runBuf struct {
	name      string
	cap, peak int
	wheel     int
}

// runBufs lists m's trimmed buffers in a fixed order.
func runBufs(m *Machine) []runBuf {
	var bs []runBuf
	for i := range m.procs {
		p := &m.procs[i]
		bs = append(bs,
			runBuf{fmt.Sprintf("proc %d inbox", i), cap(p.inbox), p.inboxPeak, -1},
			runBuf{fmt.Sprintf("proc %d inData", i), cap(p.inData), p.inDataPeak, -1},
			runBuf{fmt.Sprintf("proc %d ops", i), cap(p.ops), max(p.opsPeak, len(p.ops)), -1},
			runBuf{fmt.Sprintf("proc %d opData", i), cap(p.opData), max(p.opDataPeak, len(p.opData)), -1})
	}
	for s := range m.sh {
		q := &m.sh[s].queue
		for b := range q.wheel {
			peak := max(int(q.peaks[b]), len(q.wheel[b]))
			if peak > 0 {
				peak = max(peak, bucketMin)
			}
			bs = append(bs, runBuf{fmt.Sprintf("shard %d bucket %d", s, b), cap(q.wheel[b]), peak, s})
		}
		bs = append(bs,
			runBuf{fmt.Sprintf("shard %d heap", s), cap(q.heap), q.heapPeak, -1},
			runBuf{fmt.Sprintf("shard %d arena", s), cap(q.arena), len(q.arena), -1},
			runBuf{fmt.Sprintf("shard %d data", s), cap(q.data), len(q.data), -1},
			runBuf{fmt.Sprintf("shard %d dataFree", s), cap(q.dataFree), len(q.data), -1})
	}
	return bs
}

// classCap is the capacity doubling from nothing reaches to hold n entries.
func classCap(n int) int {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// checkSeat checks that seat applied the trim rule to the buffers the run
// before it left (before): each one is kept whole, or dropped if it holds
// more than trimFloor entries and over trimSlack times its peak. A shard's
// wheel buckets count as one buffer.
func checkSeat(t *testing.T, before, after []runBuf) {
	t.Helper()
	wheelCap, wheelPeak := map[int]int{}, map[int]int{}
	for _, b := range before {
		if b.wheel >= 0 {
			wheelCap[b.wheel] += b.cap
			wheelPeak[b.wheel] += b.peak
		}
	}
	for i, b := range before {
		drop := trims(b.cap, b.peak)
		if b.wheel >= 0 {
			drop = trims(wheelCap[b.wheel], wheelPeak[b.wheel])
		}
		want := b.cap
		if drop {
			want = 0
		}
		if after[i].cap != want {
			t.Errorf("%s: capacity %d after seat, want %d (it held %d, its run used %d)", b.name, after[i].cap, want, b.cap, b.peak)
		}
	}
}

// checkRun checks that a run grew no buffer past what doubling from its
// seated capacity gives (from bucketMin for a wheel bucket), whatever spares
// the pool held.
func checkRun(t *testing.T, seated, after []runBuf) {
	t.Helper()
	for i, b := range after {
		want := max(seated[i].cap, classCap(b.peak))
		if b.wheel >= 0 && b.peak > 0 {
			want = max(want, bucketMin)
		}
		if b.cap > want {
			t.Errorf("%s: capacity %d after a run that used %d, seated with %d; want at most %d", b.name, b.cap, b.peak, seated[i].cap, want)
		}
	}
}

// mixProg builds run i's program of the mix: the all-to-all, the FFT remap
// and the broadcast in turn.
func mixProg(t *testing.T, params core.Params, i int) logp.Program {
	t.Helper()
	inst, err := progs.Build([]string{"alltoall", "fftremap", "broadcast"}[i%3], params, progs.Args{})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Prog
}

// reseatMix re-seats m for runs programs of the mix, checking the trim rule
// at every seat and every run, and each Result against a fresh machine's.
func reseatMix(t *testing.T, m *Machine, cfg func(seed int64) logp.Config, runs int) {
	t.Helper()
	for i := 0; i < runs; i++ {
		before := runBufs(m)
		if err := m.Reset(cfg(int64(i)), mixProg(t, m.cfg.Params, i)); err != nil {
			t.Fatal(err)
		}
		seated := runBufs(m)
		checkSeat(t, before, seated)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, seated, runBufs(m))
		f, err := New(cfg(int64(i)), mixProg(t, m.cfg.Params, i), m.shards)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("run %d: re-seated machine's Result differs from a fresh machine's", i)
		}
	}
}

// TestSparesRegrowMix re-seats one P=64 machine for the all-to-all, the FFT
// remap and the broadcast in turn, the pattern the daemon's pool sees on
// varied jobs: each seat trims what the larger programs grew, and each run
// regrows it from the spare pool. Every seat must apply the trim rule and
// every run grow each buffer to no more than doubling from its seated
// capacity would, so StorageBytes follows the rule whatever the pool holds.
// With the garbage collector off, so the pool keeps its spares, and one
// processor, so every spare is visible to the test goroutine (a sync.Pool
// keeps one item per processor where only that processor finds it), a warm
// cycle allocates under 48 KB per run, programs included: 42,396 bytes with
// Go 1.24, against 701 KB before the pool (BenchmarkFlatReset/P=64/mix).
// The race detector drops pooled items at random, so the bound is skipped
// under it.
func TestSparesRegrowMix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	params := core.Params{P: 64, L: 12, O: 2, G: 4}
	cfg := func(seed int64) logp.Config { return logp.Config{Params: params, LatencyJitter: 2, Seed: seed} }
	m, err := New(cfg(0), mixProg(t, params, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	reseatMix(t, m, cfg, 6)

	// Two collections empty the pools, and the first ends pooling once the
	// sweeper's finalizer runs; with the collector then off, the cycles
	// below start from the same state whenever earlier collections ran.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); pooling.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("pooling still on after two collections with no trim between them")
		}
	}
	cycle := func(runs int) {
		for i := 0; i < runs; i++ {
			if err := m.Reset(cfg(int64(i)), mixProg(t, params, i)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(6) // warm the pool with the collector off
	const runs = 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle(runs)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes and %d allocations per run", perRun, (after.Mallocs-before.Mallocs)/runs)
	if !raceEnabled && perRun > 48_000 {
		t.Errorf("a warm re-seated run allocates %d bytes, want under 48000", perRun)
	}
}

// TestSparesRegrowMixSharded is the same cycle on four shards with the
// capacity constraint off, where the shards grow their queues' buffers, and
// return them to the pool, concurrently: each Result must equal a fresh
// four-shard machine's, and the trim rule must hold on every shard.
func TestSparesRegrowMixSharded(t *testing.T) {
	params := core.Params{P: 64, L: 12, O: 2, G: 4}
	cfg := func(seed int64) logp.Config { return logp.Config{Params: params, DisableCapacity: true, Seed: seed} }
	m, err := New(cfg(0), mixProg(t, params, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.shards != 4 {
		t.Fatalf("machine has %d shards, want 4", m.shards)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	reseatMix(t, m, cfg, 9)
}

// farWaits parks every processor once for cycles, past the wheel's horizon
// when cycles exceeds it, so the overflow heap holds a wake per processor.
type farWaits struct{ cycles int64 }

func (f farWaits) Start(n logp.Node)                   { n.Wait(f.cycles); n.Done() }
func (f farWaits) Message(n logp.Node, m logp.Message) {}

// TestResetTrimsOverflowHeap pins the trim rule on the overflow heap, which
// no program of the mix reaches: a run that parks 128 processors past the
// horizon grows it, a run that parks none leaves it to be dropped at the
// next seat, and regrowing it keeps to the rule.
func TestResetTrimsOverflowHeap(t *testing.T) {
	cfg := logp.Config{Params: core.Params{P: 128, L: 6, O: 2, G: 4}}
	m, err := New(cfg, farWaits{1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if c := cap(m.sh[0].heap); c < 128 {
		t.Fatalf("heap capacity %d after 128 far waits, want at least 128", c)
	}
	for _, cycles := range []int64{0, 0, 1000, 0, 0} {
		before := runBufs(m)
		if err := m.Reset(cfg, farWaits{cycles}); err != nil {
			t.Fatal(err)
		}
		seated := runBufs(m)
		checkSeat(t, before, seated)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		checkRun(t, seated, runBufs(m))
	}
	if c := cap(m.sh[0].heap); c != 0 {
		t.Errorf("heap capacity %d after two runs with no far waits, want 0", c)
	}
}

// pooled reports whether s holds a spare that the calling goroutine finds.
func (s *spares[T]) pooled() bool {
	for k := range s.class {
		if s.class[k].Get() != nil {
			return true
		}
	}
	return false
}

// TestRepeatedJobKeepsEveryBuffer pins the other side of the trim rule on
// sim-large's job, the staggered all-to-all at P=256 with latency jitter,
// and on small jobs whose buckets hold fewer entries than bucketMin:
// re-seating a job at a new seed drops no buffer, the wheel's buckets
// included, so a repeated job regrows nothing. Nor does it touch the spare
// pool: it never turns pooling on, and the buckets that new seeds outgrow
// go to the collector, so its growth sites allocate what they would
// without the pool.
func TestRepeatedJobKeepsEveryBuffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // every spare visible
	small := core.Params{P: 8, L: 6, O: 2, G: 4}
	for _, job := range []struct {
		prog   string
		params core.Params
		args   progs.Args
		jitter int64
	}{
		{"alltoall", core.Params{P: 256, L: 12, O: 2, G: 4}, progs.Args{N: 1, Work: 8, Staggered: true}, 4},
		{"pingpong", small, progs.Args{}, 2},
		{"broadcast", small, progs.Args{}, 2},
		{"sum", small, progs.Args{}, 2},
	} {
		t.Run(job.prog, func(t *testing.T) {
			cfg := func(seed int64) logp.Config {
				return logp.Config{Params: job.params, LatencyJitter: job.jitter, Seed: seed}
			}
			build := func() logp.Program {
				inst, err := progs.Build(job.prog, job.params, job.args)
				if err != nil {
					t.Fatal(err)
				}
				return inst.Prog
			}
			runtime.GC()
			runtime.GC() // the pools empty
			sweep(nil)   // and pooling off, as the first collection's finalizer leaves it
			m, err := New(cfg(1), build(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for seed := int64(2); seed <= 6; seed++ {
				before := runBufs(m)
				if err := m.Reset(cfg(seed), build()); err != nil {
					t.Fatal(err)
				}
				for i, b := range runBufs(m) {
					if b.cap != before[i].cap {
						t.Errorf("seed %d: %s: seat changed its capacity from %d to %d", seed, b.name, before[i].cap, b.cap)
					}
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if pooling.Load() {
				t.Error("the repeated job turned pooling on")
			}
			if opSpares.pooled() || anySpares.pooled() || int32Spares.pooled() || recordSpares.pooled() || entSpares.pooled() {
				t.Error("the repeated job left a spare in the pool")
			}
		})
	}
}

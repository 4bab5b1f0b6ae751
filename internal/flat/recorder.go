package flat

import "time"

// ShardStat is one shard's flight-recorder snapshot: where the sharded
// kernel's wall-clock time and event traffic went. Sim-time results are
// never derived from these fields — the recorder observes the kernel, it
// does not steer it — so a recorded run's Result is bit-identical to an
// unrecorded one.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Procs is the number of processors the shard owns.
	Procs int `json:"procs"`
	// Windows counts lookahead windows the shard executed (zero for the
	// sequential engine, which has no windows).
	Windows int64 `json:"windows"`
	// Events counts events this shard dispatched.
	Events int64 `json:"events"`
	// WheelEvents counts queue insertions that landed in the timing wheel
	// (the fast path: within the 128-cycle horizon).
	WheelEvents int64 `json:"wheel_events"`
	// HeapEvents counts queue insertions that overflowed to the 4-ary heap
	// (past the wheel horizon).
	HeapEvents int64 `json:"heap_events"`
	// MergedIn counts cross-shard deliveries merged into this shard's
	// queue at window barriers.
	MergedIn int64 `json:"merged_in"`
	// BusyNs is wall-clock nanoseconds the shard's worker spent executing
	// window events.
	BusyNs int64 `json:"busy_ns"`
	// BarrierWaitNs is wall-clock nanoseconds the shard's worker sat idle
	// at window barriers waiting for the slowest shard.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
}

// flightRecorder holds the per-shard counters while a recorded run executes.
// Each shard's queue carries a pointer into stats, so the hot paths bump
// counters through one nil-checked pointer — the same hook discipline as the
// metrics and profiler integrations, keeping the recorder-off path
// zero-overhead and the recorder-on path allocation-free.
type flightRecorder struct {
	stats  []ShardStat
	finish []time.Time // per-shard window finish stamps, read at the barrier
}

// EnableFlightRecorder starts collecting per-shard kernel statistics on
// subsequent Runs. Enable before Run; the counters reset with the machine at
// each re-Run and accumulate across windows within one run. The recorder
// adds two time stamps per shard per window and counter increments on the
// scheduling paths — it never touches sim state, so Results are unchanged.
func (m *Machine) EnableFlightRecorder() {
	if m.fr != nil {
		return
	}
	m.fr = &flightRecorder{
		stats:  make([]ShardStat, len(m.sh)),
		finish: make([]time.Time, len(m.sh)),
	}
	for s := range m.sh {
		m.sh[s].queue.rec = &m.fr.stats[s]
	}
}

// FlightRecorderEnabled reports whether EnableFlightRecorder has been called.
func (m *Machine) FlightRecorderEnabled() bool { return m.fr != nil }

// ShardStats snapshots the flight recorder after a Run: one entry per
// shard, in shard order, with the identity fields filled in. Nil when the
// recorder is off.
func (m *Machine) ShardStats() []ShardStat {
	if m.fr == nil {
		return nil
	}
	out := make([]ShardStat, len(m.fr.stats))
	copy(out, m.fr.stats)
	for s := range out {
		out[s].Shard = s
		out[s].Procs = m.sh[s].hi - m.sh[s].lo
	}
	return out
}

// resetRecorder zeroes the counters for a re-Run, keeping the queue hook
// pointers wired (the stats slice is reused in place).
func (m *Machine) resetRecorder() {
	if m.fr == nil {
		return
	}
	for s := range m.fr.stats {
		m.fr.stats[s] = ShardStat{}
	}
}

package flat

import (
	"testing"
	"unsafe"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// TestRecordSizes pins the compact message and operation records: every
// Start of a P-way exchange records about 2P ops, and the arena holds a
// record for every message queued at a receiver, so at P=256 these sizes set
// most of a machine's StorageBytes. A field added to any of them must pay
// for itself there.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 16 {
		t.Errorf("op record is %d bytes, want at most 16", n)
	}
	if n := unsafe.Sizeof(record{}); n > 32 {
		t.Errorf("arena record is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(proc{}.inbox[0]); n != 4 {
		t.Errorf("inbox entry is %d bytes, want 4", n)
	}
}

// TestSimLargeStorage pins the storage of the machine the daemon pools for
// its sim-large job, the staggered all-to-all with work 8 and latency jitter
// 4 at P=256, against what it kept with per-processor inboxes of 32-byte
// entries and a payload arena of in-flight messages only: 6606504 bytes
// after a run at seed 1 and 6629032 after a Reset and a run at seed 2. The
// arena now holds every queued message, and must not cost more than the
// inboxes it replaced.
func TestSimLargeStorage(t *testing.T) {
	params := core.Params{P: 256, L: 12, O: 2, G: 4}
	cfg := func(seed int64) logp.Config { return logp.Config{Params: params, LatencyJitter: 4, Seed: seed} }
	build := func() logp.Program {
		inst, err := progs.Build("alltoall", params, progs.Args{N: 1, Work: 8, Staggered: true})
		if err != nil {
			t.Fatal(err)
		}
		return inst.Prog
	}
	m, err := New(cfg(1), build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got, limit := m.StorageBytes(), int64(6606504); got > limit {
		t.Errorf("after a run the machine keeps %d bytes, want at most %d", got, limit)
	}
	if err := m.Reset(cfg(2), build()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got, limit := m.StorageBytes(), int64(6629032); got > limit {
		t.Errorf("after a Reset and a second run the machine keeps %d bytes, want at most %d", got, limit)
	}
}

// TestStorageBytesCountsPayloadTables: the payloads that the compact records
// leave out live in per-processor side tables, and the machine's reported
// storage, which the daemon's pool budget reads, must include them.
func TestStorageBytesCountsPayloadTables(t *testing.T) {
	params := core.Params{P: 8, L: 12, O: 2, G: 4}
	inst, err := progs.Build("fftremap", params, progs.Args{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(logp.Config{Params: params}, inst.Prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	before := m.StorageBytes()
	var tables int64
	for i := range m.procs {
		p := &m.procs[i]
		tables += int64(cap(p.inData)+cap(p.opData)) * int64(unsafe.Sizeof(any(nil)))
		p.inData, p.opData = nil, nil
	}
	if tables == 0 {
		t.Fatal("the remap left no payload tables: the check is vacuous")
	}
	if got := before - m.StorageBytes(); got != tables {
		t.Errorf("StorageBytes counts %d bytes of payload tables, want %d", got, tables)
	}
}

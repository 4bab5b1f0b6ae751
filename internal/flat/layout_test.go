package flat

import (
	"testing"
	"unsafe"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// TestRecordSizes pins the compact per-processor records: every Start of a
// P-way exchange records about 2P ops and every inbox can queue P-1
// arrivals, so at P=256 these two sizes set most of a machine's
// StorageBytes. A field added to either record must pay for itself there.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 24 {
		t.Errorf("op record is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(arrival{}); n > 32 {
		t.Errorf("inbox entry is %d bytes, want at most 32", n)
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

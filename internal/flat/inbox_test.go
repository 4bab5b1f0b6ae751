package flat

import (
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

// TestInboxShrinksAfterBurst pins the cap-aware compaction of the slot
// inbox: a one-off burst grows the inbox backing array far past
// inboxShrinkCap; a long streaming phase with a small steady-state backlog
// must then release it, instead of compacting in place over the oversized
// array forever. Slots come out in the order they went in.
func TestInboxShrinksAfterBurst(t *testing.T) {
	var p proc
	burst := inboxShrinkCap * 4
	for i := 0; i < burst; i++ {
		p.pushInbox(int32(i))
	}
	if cap(p.inbox) < burst {
		t.Fatalf("burst of %d grew cap to only %d", burst, cap(p.inbox))
	}
	for i := 0; i < burst; i++ {
		if got := p.popInbox(); got != int32(i) {
			t.Fatalf("popInbox order broken at %d: got slot %d", i, got)
		}
	}
	// Steady state: backlog of ~8 while streaming thousands through.
	next, want := 0, 0
	for i := 0; i < 4*inboxShrinkCap; i++ {
		p.pushInbox(int32(next))
		next++
		if p.pending() > 8 {
			if got := p.popInbox(); got != int32(want) {
				t.Fatalf("steady-state order broken: got slot %d, want %d", got, want)
			}
			want++
		}
	}
	if c := cap(p.inbox); c > inboxShrinkCap {
		t.Errorf("inbox cap %d after streaming with backlog 8; want <= %d", c, inboxShrinkCap)
	}
	for p.pending() > 0 {
		if got := p.popInbox(); got != int32(want) {
			t.Fatalf("drain order broken: got slot %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Errorf("received %d of %d messages", want, next)
	}
}

// burstThenStream floods processor 0 with one up-front burst from every
// peer, then streams a long compute-paced trickle through it (slower than
// the reception rate, so the backlog drains to a small steady state): the
// machine-level shape of the over-grown-inbox pathology.
type burstThenStream struct {
	burst, stream int
	got           int
}

func (b *burstThenStream) Start(n logp.Node) {
	if n.ID() == 0 {
		b.got = 0
		return
	}
	for i := 0; i < b.burst; i++ {
		n.Send(0, 1, nil)
	}
	if n.ID() == 1 {
		for i := 0; i < b.stream; i++ {
			n.Compute(16)
			n.Send(0, 2, nil)
		}
	}
	n.Done()
}

func (b *burstThenStream) Message(n logp.Node, m logp.Message) {
	b.got++
	if b.got == b.burst*(n.P()-1)+b.stream {
		n.Done()
	}
}

// TestInboxBoundedGrowthOnBurstyRun runs the pathology end to end and
// inspects the machine's storage afterwards: the burst peak must not linger
// in the inbox once the streaming phase has drained it. The arena, addressed
// by slot, keeps the burst's records until the run ends; seat releases them
// once a later run no longer needs them, so after Resets to the streaming
// phase alone the machine keeps no more than a fresh machine that ran it,
// wheel buckets included.
func TestInboxBoundedGrowthOnBurstyRun(t *testing.T) {
	prog := &burstThenStream{burst: 2048, stream: 40000}
	cfg := logp.Config{Params: core.Params{P: 5, L: 4, O: 1, G: 2}, DisableCapacity: true}
	m, err := New(cfg, prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := prog.got; got != 2048*4+40000 {
		t.Fatalf("received %d messages", got)
	}
	if c := cap(m.procs[0].inbox); c > inboxShrinkCap {
		t.Errorf("proc 0 inbox cap %d after bursty run; want <= %d (burst peak released)", c, inboxShrinkCap)
	}
	bursty := m.StorageBytes()

	stream := func() logp.Program { return &burstThenStream{stream: 40000} }
	for i := 0; i < 2; i++ {
		if err := m.Reset(cfg, stream()); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := New(cfg, stream(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.StorageBytes(), fresh.StorageBytes(); got > want {
		t.Errorf("after Resets to the stream alone the machine keeps %d bytes (bursty run %d), a fresh machine %d",
			got, bursty, want)
	}
}

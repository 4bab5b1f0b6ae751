package flat_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
)

// step is one operation of a script: cycles of compute or wait, or a send.
type step struct {
	kind byte  // 'c' compute, 'w' wait, 's' send
	n    int64 // cycles, or the destination of a send
}

// script is a deadlock-free program built from per-processor op lists:
// Start plays start[p], and p's i-th reception plays react[p][i]; p is done
// after its last reception (at once when it expects none). A reaction sends
// only to higher-numbered processors, so every expected message is sent.
type script struct {
	start [][]step
	react [][][]step
	got   []int
}

func (s *script) Start(n logp.Node) {
	me := n.ID()
	s.got[me] = 0
	play(n, s.start[me])
	if len(s.react[me]) == 0 {
		n.Done()
	}
}

func (s *script) Message(n logp.Node, m logp.Message) {
	me := n.ID()
	i := s.got[me]
	s.got[me]++
	play(n, s.react[me][i])
	if s.got[me] == len(s.react[me]) {
		n.Done()
	}
}

func play(n logp.Node, ops []step) {
	for _, o := range ops {
		switch o.kind {
		case 'c':
			n.Compute(o.n)
		case 'w':
			n.Wait(o.n)
		case 's':
			n.Send(int(o.n), 1, nil)
		}
	}
}

// randomScript draws a script for P processors whose computes and waits
// last up to maxCycles: Start records up to four operations, and each
// reception up to two.
func randomScript(rng *rand.Rand, P int, maxCycles int64) *script {
	s := &script{start: make([][]step, P), react: make([][][]step, P), got: make([]int, P)}
	in := make([]int, P)
	draw := func(me int, upward bool) step {
		switch k := rng.Intn(3); {
		case k == 2 && (!upward || me < P-1):
			to := rng.Intn(P - 1)
			if upward {
				to = me + 1 + rng.Intn(P-1-me)
			} else if to >= me {
				to++
			}
			in[to]++
			return step{'s', int64(to)}
		case k == 1:
			return step{'w', 1 + rng.Int63n(maxCycles)}
		default:
			return step{'c', 1 + rng.Int63n(maxCycles)}
		}
	}
	for p := 0; p < P; p++ {
		for i := rng.Intn(5); i > 0; i-- {
			s.start[p] = append(s.start[p], draw(p, false))
		}
	}
	// Every message to p comes from a Start or from a lower processor's
	// reaction, so in[p] is final when p's reactions are drawn.
	for p := 0; p < P; p++ {
		s.react[p] = make([][]step, in[p])
		for i := range s.react[p] {
			for j := rng.Intn(3); j > 0; j-- {
				s.react[p][i] = append(s.react[p][i], draw(p, true))
			}
		}
	}
	return s
}

// TestHeapEventFiresOnTime is the minimal program that caught the flat
// queue firing an overflow-heap event a wheel turn (128 cycles) late: proc
// 1's wake at 150 went to the heap, proc 2's in-place advance to 129
// brought it within the wheel's horizon without migrating it, and the
// delivery proc 2 then queued at 160 was popped first.
func TestHeapEventFiresOnTime(t *testing.T) {
	prog := &script{
		start: [][]step{{{'c', 200}}, {{'c', 150}}, {{'c', 129}, {'s', 0}}},
		react: [][][]step{{nil}, nil, nil},
		got:   make([]int, 3),
	}
	cfg := logp.Config{Params: core.Params{P: 3, L: 30, O: 1, G: 1}, DisableCapacity: true, CollectTrace: true}
	g, err := logp.RunProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if g.Procs[1].Finish != 150 {
		t.Fatalf("goroutine engine: proc 1 finished at %d, want 150", g.Procs[1].Finish)
	}
	f, err := flat.Run(cfg, prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Procs[1].Finish != 150 {
		t.Errorf("flat engine: proc 1 finished at %d, want 150", f.Procs[1].Finish)
	}
	if !reflect.DeepEqual(g, f) {
		t.Errorf("results differ:\n goroutine: %+v\n flat:      %+v", g, f)
	}
}

// TestRandomScriptsAgree is a seeded differential over random scripts whose
// computes and waits reach well past the wheel's horizon: the flat
// sequential kernel must reproduce the goroutine machine's Result and trace,
// and on capacity-off machines the 3-shard kernel the sequential one's.
func TestRandomScriptsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const programs = 4000
	var seqBad, shardBad []string
	for i := 0; i < programs; i++ {
		P := 2 + rng.Intn(5)
		params := core.Params{P: P, L: rng.Int63n(41), O: rng.Int63n(5), G: 1 + rng.Int63n(6)}
		prog := randomScript(rng, P, 400)
		cfg := logp.Config{Params: params, DisableCapacity: rng.Intn(2) == 0}
		traced := cfg
		traced.CollectTrace = true
		g, gErr := logp.RunProgram(traced, prog)
		f, fErr := flat.Run(traced, prog, 1)
		if fmt.Sprint(gErr) != fmt.Sprint(fErr) || !reflect.DeepEqual(g, f) {
			seqBad = append(seqBad, fmt.Sprintf("%v capacity off %v: goroutine %d (%v), flat %d (%v)",
				params, cfg.DisableCapacity, g.Time, gErr, f.Time, fErr))
		}
		if P < 3 || !cfg.DisableCapacity || params.O+params.L < 1 {
			continue
		}
		s, sErr := flat.Run(cfg, prog, 3)
		seq, seqErr := flat.Run(cfg, prog, 1)
		if fmt.Sprint(sErr) != fmt.Sprint(seqErr) || !reflect.DeepEqual(clearTransit(s), clearTransit(seq)) {
			shardBad = append(shardBad, fmt.Sprintf("%v: sequential %d (%v), 3 shards %d (%v)",
				params, seq.Time, seqErr, s.Time, sErr))
		}
	}
	for name, bad := range map[string][]string{"sequential": seqBad, "3 shards": shardBad} {
		if len(bad) > 0 {
			t.Errorf("%s: %d of %d random scripts disagree; first: %s", name, len(bad), programs, bad[0])
		}
	}
}

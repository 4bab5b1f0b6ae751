package logp_test

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

// A two-processor program: the completion time is the model's 2o+L.
func ExampleRun() {
	cfg := logp.Config{Params: core.Params{P: 2, L: 6, O: 2, G: 4}}
	res, err := logp.Run(cfg, func(p *logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, "hello")
		case 1:
			m := p.Recv()
			fmt.Printf("proc 1 got %q at cycle %d\n", m.Data, p.Now())
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("run time:", res.Time)
	// Output:
	// proc 1 got "hello" at cycle 10
	// run time: 10
}

// Consecutive sends respect the gap: initiations every max(g, o).
func ExampleProc_Send() {
	cfg := logp.Config{Params: core.Params{P: 2, L: 6, O: 2, G: 4}}
	res, err := logp.Run(cfg, func(p *logp.Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 3; i++ {
				p.Send(1, 0, i)
			}
			fmt.Println("sender done at", p.Now())
		case 1:
			for i := 0; i < 3; i++ {
				p.Recv()
			}
		}
	})
	if err != nil {
		panic(err)
	}
	_ = res
	// Output:
	// sender done at 10
}

// relay is a minimal reactive Program: processor 0 sends a token that each
// processor forwards to its successor; the last one records the arrival
// time. Handlers never block — they record operations on the Node and
// return — which is what lets the same Program run unchanged on the
// goroutine machine or the flat event core.
type relay struct{ arrived int64 }

func (r *relay) Start(n logp.Node) {
	if n.ID() == 0 {
		n.Send(1, 0, "token")
		n.Done() // sent; nothing more to receive
	}
}

func (r *relay) Message(n logp.Node, m logp.Message) {
	if n.ID() == n.P()-1 {
		r.arrived = n.Now()
	} else {
		n.Send(n.ID()+1, 0, m.Data)
	}
	n.Done() // the token passes each processor once
}

// A Program runs on the goroutine machine through RunProgram, and on the
// flat core through flat.Run: the caller picks the engine by calling it.
// Each hop costs 2o+L = 10; the handlers themselves are free.
func ExampleRunProgram() {
	prog := &relay{}
	cfg := logp.Config{Params: core.Params{P: 4, L: 6, O: 2, G: 4}}
	if _, err := logp.RunProgram(cfg, prog); err != nil {
		panic(err)
	}
	fmt.Println("token crossed 3 hops at cycle", prog.arrived)
	// Output:
	// token crossed 3 hops at cycle 30
}

// Bulk transfers with a coprocessor follow the LogGP long-message formula
// 2o + (k-1)g + L.
func ExampleProc_SendBulk() {
	cfg := logp.Config{Params: core.Params{P: 2, L: 6, O: 2, G: 4}, Coprocessor: true}
	_, err := logp.Run(cfg, func(p *logp.Proc) {
		switch p.ID() {
		case 0:
			p.SendBulk(1, 0, "payload", 10)
		case 1:
			m := p.Recv()
			fmt.Printf("%d words at cycle %d\n", m.Size, p.Now())
		}
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// 10 words at cycle 46
}

package collective_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// run is one way of running a broadcast: its Result (trace included) and
// the values every processor ended with.
type run struct {
	res logp.Result
	out [][]any
}

// runBlocking runs body on every processor inside logp.Run and collects the
// values it returns.
func runBlocking(t *testing.T, cfg logp.Config, body func(p *logp.Proc) []any) run {
	t.Helper()
	out := make([][]any, cfg.P)
	res, err := logp.Run(cfg, func(p *logp.Proc) { out[p.ID()] = body(p) })
	if err != nil {
		t.Fatal(err)
	}
	return run{res, out}
}

// runProgram runs prog through logp.RunProgram and copies out, the
// program's Out, which its next run overwrites.
func runProgram(t *testing.T, cfg logp.Config, prog logp.Program, out *[][]any) run {
	t.Helper()
	res, err := logp.RunProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	r := run{res: res, out: make([][]any, len(*out))}
	for i, row := range *out {
		r.out[i] = append([]any(nil), row...)
	}
	return r
}

// TestBlockingMatchesProgramForms pins the two collectives that exist both
// as blocking functions, which imperative algorithms call from inside their
// bodies, and as Programs, which every engine runs: on each machine the
// blocking PipelinedChainBroadcast and PipelinedBinomialBroadcast inside
// logp.Run must produce the Result, trace and values of progs.PipelinedChain
// and progs.PipelinedBinomial through logp.RunProgram. BinomialBroadcast
// must match the one-value binomial Program, and PipelinedChainBroadcast the
// group form over root, root+1, ….
func TestBlockingMatchesProgramForms(t *testing.T) {
	const tag = 3
	rng := rand.New(rand.NewSource(7))
	vals := func(i int) any { return i * i }
	for i := 0; i < 252; i++ {
		params := core.Params{P: 1 + rng.Intn(13), L: rng.Int63n(11), O: rng.Int63n(3), G: 1 + rng.Int63n(4)}
		m := 1 + rng.Intn(17)
		cfg := logp.Config{Params: params, CollectTrace: true}
		for _, root := range []int{0, rng.Intn(params.P)} {
			members := make([]int, params.P)
			for j := range members {
				members[j] = (root + j) % params.P
			}
			chain := progs.NewPipelinedChain(params.P, root, tag, m, vals)
			binom := progs.NewPipelinedBinomial(params.P, root, tag, m, vals)
			one := progs.NewPipelinedBinomial(params.P, root, tag, 1, func(int) any { return "x" })
			pairs := []struct {
				name      string
				got, want run
			}{
				{"chain", runBlocking(t, cfg, func(p *logp.Proc) []any {
					return collective.PipelinedChainBroadcast(p, root, tag, m, vals)
				}), runProgram(t, cfg, chain, &chain.Out)},
				{"chain group", runBlocking(t, cfg, func(p *logp.Proc) []any {
					return collective.PipelinedChainBroadcastGroup(p, members, tag, m, vals)
				}), runProgram(t, cfg, chain, &chain.Out)},
				{"binomial", runBlocking(t, cfg, func(p *logp.Proc) []any {
					return collective.PipelinedBinomialBroadcast(p, root, tag, m, vals)
				}), runProgram(t, cfg, binom, &binom.Out)},
				{"one-value binomial", runBlocking(t, cfg, func(p *logp.Proc) []any {
					return []any{collective.BinomialBroadcast(p, root, tag, "x")}
				}), runProgram(t, cfg, one, &one.Out)},
			}
			for _, pr := range pairs {
				name := fmt.Sprintf("%s on %v, root %d, m=%d", pr.name, params, root, m)
				if !reflect.DeepEqual(pr.got.res, pr.want.res) {
					t.Fatalf("%s: results differ:\n blocking: %+v\n program:  %+v", name, pr.got.res, pr.want.res)
				}
				if !reflect.DeepEqual(pr.got.out, pr.want.out) {
					t.Fatalf("%s: values differ:\n blocking: %v\n program:  %v", name, pr.got.out, pr.want.out)
				}
			}
		}
	}
}

package flat

import (
	"fmt"
	"os"
	"strconv"

	"github.com/logp-model/logp/internal/logp"
)

// Engine is the logp.Engine adapter for the flat core. Shards is the number
// of event-kernel shards: 1 (or 0) runs the sequential core, which supports
// every Config; N > 1 runs the windowed parallel core when the capacity
// constraint is off, and the sequential core when it is on (see
// ShardCount). Shards == 0
// additionally consults the LOGP_SHARDS environment variable, so the CI
// engine matrix can select a sharded run without touching call sites.
type Engine struct{ Shards int }

// Name identifies the engine: "flat", or "flat<N>" for a fixed shard count.
func (e Engine) Name() string {
	if e.Shards > 1 {
		return fmt.Sprintf("flat%d", e.Shards)
	}
	return "flat"
}

func (e Engine) shards() int {
	if e.Shards > 0 {
		return e.Shards
	}
	if env := os.Getenv("LOGP_SHARDS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// Run executes prog on a flat machine built from cfg.
func (e Engine) Run(cfg logp.Config, prog logp.Program) (logp.Result, error) {
	m, err := New(cfg, prog, e.shards())
	if err != nil {
		return logp.Result{}, err
	}
	return m.Run()
}

// Run executes prog on a flat machine with the given shard count: the
// convenience counterpart of logp.RunProgram.
func Run(cfg logp.Config, prog logp.Program, shards int) (logp.Result, error) {
	return Engine{Shards: shards}.Run(cfg, prog)
}

func init() { logp.RegisterEngine(Engine{}) }

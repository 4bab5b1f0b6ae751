package flat

import "github.com/logp-model/logp/internal/logp"

// Run executes prog on a flat machine with the given shard count: the
// convenience counterpart of logp.RunProgram. Shards of 0 or 1 run the
// sequential core, which supports every Config; N > 1 runs the windowed
// parallel core when the capacity constraint is off, and the sequential
// core when it is on (see ShardCount).
func Run(cfg logp.Config, prog logp.Program, shards int) (logp.Result, error) {
	m, err := New(cfg, prog, shards)
	if err != nil {
		return logp.Result{}, err
	}
	return m.Run()
}

// Package collective provides the blocking communication operations that
// imperative algorithms call from inside their processor bodies on the
// goroutine machine: the binomial and pipelined broadcasts, the binomial
// reduction, the all-to-all exchange with the naive and staggered schedules
// of Section 4.1.2, an inclusive scan, and a message-based dissemination
// barrier. The paper's optimal broadcast and summation schedules (Figures 3
// and 4) are logp.Programs in internal/progs, which every engine runs.
//
// All operations are SPMD: every processor of the machine calls the same
// function, and the simulator charges the model costs.
package collective

import "github.com/logp-model/logp/internal/logp"

// BinomialBroadcast is the classic binomial-tree broadcast, the baseline
// schedule natural under models that lack the gap parameter: the one-value
// case of PipelinedBinomialBroadcast. Returns the datum on every processor.
func BinomialBroadcast(p *logp.Proc, root, tag int, data any) any {
	return PipelinedBinomialBroadcast(p, root, tag, 1, func(int) any { return data })[0]
}

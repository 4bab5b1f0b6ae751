package collective

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/logp"
)

// PipelinedChainBroadcast streams m values from root through a linear chain
// of processors: root -> root+1 -> ... -> root+P-1 (mod P). Each processor
// forwards every value as it arrives, so for long streams the time
// approaches m*max(g,o) plus a (P-1)*(2o+L) pipeline fill — the regime of
// Section 3.1 where "messages are sent in long streams which are pipelined
// through the network, so that message transmission time is dominated by the
// inter-message gaps, and the latency may be disregarded".
//
// Every processor calls it; values(i) supplies the i-th value at the root;
// the function returns all m values everywhere.
func PipelinedChainBroadcast(p *logp.Proc, root, tag, m int, values func(i int) any) []any {
	members := make([]int, p.P())
	for i := range members {
		members[i] = (root + i) % p.P()
	}
	return PipelinedChainBroadcastGroup(p, members, tag, m, values)
}

// PipelinedChainBroadcastGroup streams m values through an explicit chain of
// member processors (members[0] is the source). Only the members call it;
// values(i) supplies the i-th value at the source. Used for broadcasts
// within processor-grid rows and columns, whose members are not contiguous
// processor IDs.
func PipelinedChainBroadcastGroup(p *logp.Proc, members []int, tag, m int, values func(i int) any) []any {
	pos := -1
	for i, id := range members {
		if id == p.ID() {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("collective: proc %d not in group %v", p.ID(), members))
	}
	next := -1
	if pos < len(members)-1 {
		next = members[pos+1]
	}
	out := make([]any, m)
	for i := 0; i < m; i++ {
		var v any
		if pos == 0 {
			v = values(i)
		} else {
			v = p.RecvTag(tag).Data
		}
		out[i] = v
		if next >= 0 {
			p.Send(next, tag, v)
		}
	}
	return out
}

// PipelinedBinomialBroadcast streams m values down the binomial broadcast
// tree, forwarding each value independently. The root pays ceil(log2 P)
// sends per value, so the chain broadcast wins for long streams while this
// wins for short ones (lower pipeline-fill latency).
func PipelinedBinomialBroadcast(p *logp.Proc, root, tag, m int, values func(i int) any) []any {
	P := p.P()
	r := (p.ID() - root + P) % P
	children := core.AppendBinomialChildren(nil, r, root, P)
	out := make([]any, m)
	for i := 0; i < m; i++ {
		var v any
		if r == 0 {
			v = values(i)
		} else {
			v = p.RecvTag(tag).Data
		}
		out[i] = v
		for _, c := range children {
			p.Send(c, tag, v)
		}
	}
	return out
}

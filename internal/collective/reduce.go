package collective

import "github.com/logp-model/logp/internal/logp"

// BinomialReduce folds values with op up a binomial tree to the root: the
// natural baseline reduction. Each combining step charges one cycle of
// computation. Returns the reduction on the root with ok=true.
func BinomialReduce(p *logp.Proc, root, tag int, value any, op func(a, b any) any) (any, bool) {
	P := p.P()
	r := (p.ID() - root + P) % P
	mask := 1
	for ; mask < P; mask <<= 1 {
		if r&mask != 0 {
			p.Send((r-mask+root)%P, tag, value)
			return value, false
		}
		if src := r + mask; src < P {
			m := p.RecvTag(tag)
			value = op(value, m.Data)
			p.Compute(1)
		}
	}
	return value, true
}

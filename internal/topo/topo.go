// Package topo supplies hierarchical cost models for the LogP machine: a
// pluggable mapping from a (source, destination) processor pair to the link
// parameters (L, o, g) that govern that message, plus optional per-processor
// compute-rate scaling.
//
// The paper fits one global (L, o, g) to the whole machine. Real clusters
// are tiered — intra-node links are an order of magnitude faster than
// inter-node ones, and rack-local links sit in between — and a schedule
// derived from the flat fit stops being optimal once the tiers diverge (see
// the hiertree experiment). A Model keeps the machine's processor-centric
// cost rules intact and changes only where each cost's magnitude comes from:
// a send across link (i, j) pays that link's o, spaces at that link's
// max(o, g), and flies for that link's L.
//
// Three constructors cover the common shapes:
//
//   - Flat: every link carries the base parameters. Machines built with a
//     Flat model are cycle-identical to machines built with no model at all
//     (the equivalence suite pins this).
//   - TwoTier: processors group into nodes of a fixed size; intra-node
//     messages use the node link, inter-node messages use the base (cluster)
//     parameters.
//   - ThreeTier: nodes additionally group into racks; same-rack inter-node
//     messages use the rack link.
//
// The capacity constraint stays global: the in-flight ceiling is ceil(L/g)
// of the base parameters, modeling the network-interface buffer depth, which
// is a property of the endpoint rather than of any one link.
//
// Models are immutable after construction and safe for concurrent readers,
// which the sharded flat kernel relies on.
package topo

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
)

// Link is the cost of one directed processor pair: latency L, per-endpoint
// overhead O, and gap G (minimum spacing between consecutive transmissions on
// links of this class from one processor).
type Link struct {
	L int64 `json:"l"` // latency: cycles a message spends in flight on this link
	O int64 `json:"o"` // overhead: cycles an endpoint is busy sending or receiving
	G int64 `json:"g"` // gap: minimum cycles between consecutive transmissions
}

// Validate reports whether the link is usable: no negative parameter.
func (lk Link) Validate() error {
	if lk.L < 0 || lk.O < 0 || lk.G < 0 {
		return fmt.Errorf("topo: negative link parameter in (L=%d, o=%d, g=%d)", lk.L, lk.O, lk.G)
	}
	return nil
}

// Interval is the minimum spacing between consecutive send (or receive)
// initiations over this link class at one processor: max(o, g).
func (lk Link) Interval() int64 {
	if lk.O > lk.G {
		return lk.O
	}
	return lk.G
}

// Model maps processor pairs to link costs. Implementations must be pure:
// Link(i, j) returns the same value every call, performs no allocation, and
// is safe for concurrent use — the engines call it on the per-message hot
// path and from concurrently executing shards.
type Model interface {
	// P is the machine size the model describes.
	P() int
	// Link returns the cost of the directed link src -> dst (src != dst).
	Link(src, dst int) Link
	// Rate returns processor proc's compute-time multiplier: 1 is the
	// baseline, 2 means local work takes twice as long. Engines apply it
	// before the stochastic skew and jitter factors.
	Rate(proc int) float64
	// MinOL is the minimum o+L over all links: the sharded flat kernel's
	// conservative lookahead window must shrink to it.
	MinOL() int64
	// MinL is the minimum L over all links: latency jitter must not exceed
	// it.
	MinL() int64
}

// flat is the Model of the unmodified machine: one link class everywhere.
type flat struct {
	p  int
	lk Link
}

// Flat returns the model in which every link carries the base parameters.
// A machine configured with Flat(params) is cycle-identical to one with no
// topology at all; it exists so code can treat "no topology" and "trivial
// topology" uniformly.
func Flat(base core.Params) Model {
	return &flat{p: base.P, lk: Link{L: base.L, O: base.O, G: base.G}}
}

func (f *flat) P() int                 { return f.p }
func (f *flat) Link(src, dst int) Link { return f.lk }
func (f *flat) Rate(proc int) float64  { return 1 }
func (f *flat) MinOL() int64           { return f.lk.O + f.lk.L }
func (f *flat) MinL() int64            { return f.lk.L }

// twoTier groups processors into nodes of ppn consecutive IDs; the last node
// may be short when ppn does not divide P.
type twoTier struct {
	p       int
	ppn     int
	node    Link
	cluster Link
}

// TwoTier returns a node/cluster model: processors i and j share a node when
// i/procsPerNode == j/procsPerNode, and their messages then use the node
// link; all other messages use the base parameters as the cluster link. The
// base parameters double as the top tier so the flat fit of cmd/calibrate
// remains the model's pessimistic summary. procsPerNode must be in [1, P]
// (1 puts every processor in its own node, making every link a cluster
// link).
func TwoTier(base core.Params, procsPerNode int, node Link) (Model, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	if procsPerNode < 1 || procsPerNode > base.P {
		return nil, fmt.Errorf("topo: procsPerNode %d outside [1, P=%d]", procsPerNode, base.P)
	}
	return &twoTier{
		p:       base.P,
		ppn:     procsPerNode,
		node:    node,
		cluster: Link{L: base.L, O: base.O, G: base.G},
	}, nil
}

func (t *twoTier) P() int { return t.p }

func (t *twoTier) Link(src, dst int) Link {
	if src/t.ppn == dst/t.ppn {
		return t.node
	}
	return t.cluster
}

func (t *twoTier) Rate(proc int) float64 { return 1 }

func (t *twoTier) MinOL() int64 {
	return minInt64(t.node.O+t.node.L, t.cluster.O+t.cluster.L)
}

func (t *twoTier) MinL() int64 { return minInt64(t.node.L, t.cluster.L) }

// threeTier adds a rack tier: nodesPerRack consecutive nodes form a rack.
type threeTier struct {
	p       int
	ppn     int
	ppr     int // processors per rack = ppn * nodesPerRack
	node    Link
	rack    Link
	cluster Link
}

// ThreeTier returns a node/rack/cluster model: intra-node messages use the
// node link, same-rack inter-node messages use the rack link, and cross-rack
// messages use the base parameters as the cluster link. Racks group
// nodesPerRack consecutive nodes of procsPerNode consecutive processors.
func ThreeTier(base core.Params, procsPerNode, nodesPerRack int, node, rack Link) (Model, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	if err := rack.Validate(); err != nil {
		return nil, err
	}
	if procsPerNode < 1 || procsPerNode > base.P {
		return nil, fmt.Errorf("topo: procsPerNode %d outside [1, P=%d]", procsPerNode, base.P)
	}
	if nodesPerRack < 1 {
		return nil, fmt.Errorf("topo: nodesPerRack %d < 1", nodesPerRack)
	}
	return &threeTier{
		p:       base.P,
		ppn:     procsPerNode,
		ppr:     procsPerNode * nodesPerRack,
		node:    node,
		rack:    rack,
		cluster: Link{L: base.L, O: base.O, G: base.G},
	}, nil
}

func (t *threeTier) P() int { return t.p }

func (t *threeTier) Link(src, dst int) Link {
	if src/t.ppn == dst/t.ppn {
		return t.node
	}
	if src/t.ppr == dst/t.ppr {
		return t.rack
	}
	return t.cluster
}

func (t *threeTier) Rate(proc int) float64 { return 1 }

func (t *threeTier) MinOL() int64 {
	return minInt64(t.node.O+t.node.L, minInt64(t.rack.O+t.rack.L, t.cluster.O+t.cluster.L))
}

func (t *threeTier) MinL() int64 {
	return minInt64(t.node.L, minInt64(t.rack.L, t.cluster.L))
}

// rated wraps a Model with per-processor compute-rate multipliers.
type rated struct {
	Model
	rates []float64
}

// WithRates attaches per-processor compute-rate multipliers to a model:
// processor i's Compute calls stretch by rates[i] (1 is the baseline; values
// above 1 slow the processor down, mirroring a heterogeneous cluster). The
// slice is copied; it must have length m.P() and every rate must be >= 1 so
// a rate never shortens the model's unit cost below one cycle.
func WithRates(m Model, rates []float64) (Model, error) {
	if len(rates) != m.P() {
		return nil, fmt.Errorf("topo: %d rates for P=%d processors", len(rates), m.P())
	}
	for i, r := range rates {
		if r < 1 {
			return nil, fmt.Errorf("topo: rate %v for processor %d below 1", r, i)
		}
	}
	return &rated{Model: m, rates: append([]float64(nil), rates...)}, nil
}

// Rate returns the wrapped processor's multiplier.
func (r *rated) Rate(proc int) float64 { return r.rates[proc] }

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

package experiments

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/network"
	"github.com/logp-model/logp/internal/stats"
)

// PatternGaps regenerates Section 5.6: "various network interconnection
// topologies are known to have specific contention-free routing patterns
// ... whereas other communication patterns will saturate intermediate
// routers", motivating the suggested extension of "multiple g's, where the
// one appropriate to the particular communication pattern is used in the
// analysis". The packet simulator drives good and bad permutations through
// a 2D mesh and a butterfly and reports each pattern's mean latency and an
// effective per-pattern gap (cycles per delivered packet per processor).
func PatternGaps(opts Options) Report {
	s := opts.Scale.clamp()
	cfg := network.LoadConfig{
		RouterDelay: 2,
		Load:        0.25,
		Horizon:     int64(3000 * s),
		Warmup:      int64(500 * s),
		Seed:        11,
	}
	patterns := []network.TrafficPattern{
		network.ShiftTraffic,
		network.UniformTraffic,
		network.BitReverseTraffic,
		network.TransposeTraffic,
	}
	tops := []*network.Topology{
		network.Mesh2D(8, 8, false),
		network.Butterfly(6),
	}
	// The effective gap of a pattern is the reciprocal of the offered load
	// at which it saturates: a pattern that saturates at load 0.1 supports
	// one packet per 10 cycles per processor.
	kneeLoads := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
	effectiveG := func(top *network.Topology, pat network.TrafficPattern) (float64, error) {
		c := cfg
		c.Pattern = pat
		sweep, err := network.SaturationSweep(top, kneeLoads, c)
		if err != nil {
			return 0, err
		}
		knee := network.SaturationLoad(sweep)
		if knee != knee { // NaN: never saturated inside the sweep
			knee = kneeLoads[len(kneeLoads)-1]
		}
		return 1 / knee, nil
	}
	tb := stats.Table{Header: []string{"topology", "pattern", "mean latency @0.25", "effective g (1/saturation load)"}}
	lat := map[string]float64{}
	effg := map[string]float64{}
	// One item per (topology, pattern) cell; topologies are read-only, so
	// concurrent drives over the same one are safe.
	type cell struct {
		lat, effg float64
		fail      failure
	}
	cells := MapIndexed(opts.Workers, len(tops)*len(patterns), func(i int) cell {
		top := tops[i/len(patterns)]
		pat := patterns[i%len(patterns)]
		c := cfg
		c.Pattern = pat
		r, err := network.RunLoad(top, c)
		if err != nil {
			return cell{fail: fail("patterns", check("run", false, "%s/%v: %v", top.Name, pat, err))}
		}
		g, err := effectiveG(top, pat)
		if err != nil {
			return cell{fail: fail("patterns", check("knee", false, "%s/%v: %v", top.Name, pat, err))}
		}
		return cell{lat: r.MeanLatency, effg: g}
	})
	for i, c := range cells {
		if c.fail.rep != nil {
			return *c.fail.rep
		}
		top := tops[i/len(patterns)]
		pat := patterns[i%len(patterns)]
		key := top.Name + "/" + pat.String()
		lat[key] = c.lat
		effg[key] = c.effg
		tb.Add(top.Name, pat.String(), c.lat, c.effg)
	}
	meshShift := lat["2d-mesh(8x8)/shift"]
	meshTrans := lat["2d-mesh(8x8)/transpose"]
	bflyShift := lat["butterfly(k=6)/shift"]
	bflyTrans := lat["butterfly(k=6)/transpose"]
	gSpread := effg["2d-mesh(8x8)/transpose"] / effg["2d-mesh(8x8)/shift"]
	text := tb.String()
	text += fmt.Sprintf("\nmesh effective-g spread shift vs transpose: %.1fx — one g cannot describe both;\n", gSpread)
	text += "Section 5.6 suggests multiple g's chosen per communication pattern.\n"
	return Report{
		ID:    "patterns",
		Title: "Good and bad permutations: pattern-dependent effective g (Section 5.6)",
		Text:  text,
		Checks: []Check{
			check("shift is contention-free on the mesh", meshShift < lat["2d-mesh(8x8)/uniform"], "%.1f vs uniform %.1f", meshShift, lat["2d-mesh(8x8)/uniform"]),
			check("transpose saturates the mesh", meshTrans > 3*meshShift, "%.1f vs %.1f", meshTrans, meshShift),
			check("the butterfly tolerates both far better", bflyTrans/bflyShift < meshTrans/meshShift, "bfly ratio %.1f vs mesh ratio %.1f", bflyTrans/bflyShift, meshTrans/meshShift),
			check("effective g varies by pattern", gSpread > 1.5, "%.1fx", gSpread),
		},
	}
}

// ParameterSpace regenerates the closing argument of Section 7: "the model
// defines a four dimensional parameter space of potential machines ... a
// framework for classifying algorithms and identifying which are most
// attractive in various regions of the machine parameter space". For a grid
// of (o, g) points at fixed L and P, it evaluates the optimal broadcast
// time, the minimum time to sum 10k values, and the predicted efficiency of
// the hybrid FFT (computation over computation plus communication).
func ParameterSpace() Report {
	const L, P = 40, 64
	const n = 1 << 16
	os := []int64{1, 4, 16, 64}
	gs := []int64{1, 4, 16, 64}
	tb := stats.Table{Header: []string{"o \\ g", "g=1", "g=4", "g=16", "g=64"}}
	// FFT efficiency: compute = (n/P) log2 n butterfly cycles (1 cycle per
	// butterfly pair of nodes, i.e. the model's unit); communication =
	// hybrid remap g*(n/P - n/P^2) + L, with o charged per message at both
	// ends when it exceeds half the gap.
	lgn := 0
	for v := n; v > 1; v >>= 1 {
		lgn++
	}
	computeCycles := float64(n/P) * float64(lgn) / 2
	effAt := func(o, g int64) float64 {
		perMsg := float64(g)
		if 2*float64(o) > perMsg {
			perMsg = 2 * float64(o)
		}
		comm := perMsg*float64(n/P-n/(P*P)) + float64(L)
		return computeCycles / (computeCycles + comm)
	}
	var rows [][]float64
	for _, o := range os {
		cells := make([]any, 0, len(gs)+1)
		cells = append(cells, fmt.Sprintf("o=%d", o))
		var row []float64
		for _, g := range gs {
			p := core.Params{P: P, L: L, O: o, G: g}
			b := core.BroadcastTime(p)
			eff := effAt(o, g)
			row = append(row, eff)
			cells = append(cells, fmt.Sprintf("bc %d / eff %.2f", b, eff))
		}
		rows = append(rows, row)
		tb.Add(cells...)
	}
	text := "optimal broadcast time and predicted hybrid-FFT efficiency across the (o, g) plane (L=40, P=64, n=2^16):\n\n"
	text += tb.String()
	text += "\nmachines with large g are \"only effective for algorithms with a large ratio of computation to communication\" (Section 7).\n"
	// Checks: efficiency decreases along both axes; the best corner is
	// (o=1, g=1), the worst (o=64, g=64).
	monotone := true
	for i := range rows {
		for j := 1; j < len(rows[i]); j++ {
			if rows[i][j] > rows[i][j-1]+1e-12 {
				monotone = false
			}
		}
	}
	for j := range gs {
		for i := 1; i < len(rows); i++ {
			if rows[i][j] > rows[i-1][j]+1e-12 {
				monotone = false
			}
		}
	}
	return Report{
		ID:    "paramspace",
		Title: "The machine parameter space (Section 7)",
		Text:  text,
		Checks: []Check{
			check("efficiency falls as o and g grow", monotone, ""),
			check("corner contrast is large", rows[0][0] > 0.75 && rows[len(rows)-1][len(gs)-1] < 0.15,
				"best %.2f, worst %.2f", rows[0][0], rows[len(rows)-1][len(gs)-1]),
		},
	}
}

package experiments

import (
	"fmt"
	"math"

	"github.com/logp-model/logp/internal/machine"
	"github.com/logp-model/logp/internal/network"
	"github.com/logp-model/logp/internal/stats"
)

// TableAvgDistance regenerates the Section 5.1 average-distance table:
// asymptotic formulas evaluated at P=1024 (the paper's column) next to BFS
// measurements on constructible configurations. The point of the table: for
// practical configurations the topologies differ by only about a factor of
// two (excepting the primitive 2D networks).
func TableAvgDistance(opts Options) Report {
	rows := []struct {
		display  string
		kind     string
		paper    float64
		topology *network.Topology
		measP    int
	}{
		{"Hypercube", "hypercube", 5, network.Hypercube(6), 64},
		{"Butterfly", "butterfly", 10, network.Butterfly(6), 64},
		{"4deg Fat Tree", "fat-tree-4", 9.33, network.FatTree(4, 3), 64},
		{"3D Torus", "3d-torus", 7.5, network.Mesh3D(4, 4, 4, true), 64},
		{"3D Mesh", "3d-mesh", 10, network.Mesh3D(4, 4, 4, false), 64},
		{"2D Torus", "2d-torus", 16, network.Mesh2D(8, 8, true), 64},
		{"2D Mesh", "2d-mesh", 21, network.Mesh2D(8, 8, false), 64},
	}
	tb := stats.Table{Header: []string{"network", "formula @1024", "paper @1024", "measured (BFS, P=64)", "formula @64"}}
	allClose, measuredTracks := true, true
	var mins, maxs float64 = math.Inf(1), 0
	// The BFS measurement dominates each row's cost; rows are independent.
	type rowOut struct {
		at1024, at64, measured float64
		fail                   failure
	}
	outs := MapIndexed(opts.Workers, len(rows), func(i int) rowOut {
		r := rows[i]
		at1024, err := network.AnalyticAverageDistance(r.kind, 1024)
		if err != nil {
			return rowOut{fail: fail("table-dist", check("formula", false, "%v", err))}
		}
		at64, _ := network.AnalyticAverageDistance(r.kind, r.measP)
		return rowOut{at1024: at1024, at64: at64, measured: r.topology.AverageDistance()}
	})
	for i, o := range outs {
		if o.fail.rep != nil {
			return *o.fail.rep
		}
		r := rows[i]
		tb.Add(r.display, o.at1024, r.paper, o.measured, o.at64)
		if math.Abs(o.at1024-r.paper) > 0.45 {
			allClose = false
		}
		if math.Abs(o.measured-o.at64) > 0.35*o.at64 {
			measuredTracks = false
		}
		if o.at1024 < mins {
			mins = o.at1024
		}
		if o.at1024 > maxs && r.kind != "2d-torus" && r.kind != "2d-mesh" {
			maxs = o.at1024
		}
	}
	text := tb.String()
	text += fmt.Sprintf("\nspread at P=1024 excluding 2D networks: %.1f..%.1f (factor %.1f)\n", mins, maxs, maxs/mins)
	return Report{
		ID:    "table-dist",
		Title: "Average inter-node distance by topology (Section 5.1)",
		Text:  text,
		Checks: []Check{
			check("formulas match the paper's column", allClose, ""),
			check("BFS measurements track the formulas", measuredTracks, ""),
			check("topology spread is about a factor of two", maxs/mins <= 2.05, "%.2f", maxs/mins),
		},
	}
}

// Table1 regenerates the unloaded message time table: the T(M=160) column
// recomputed from the primary hardware columns with T = (Tsnd+Trcv) +
// ceil(M/w) + H*r, plus the derived LogP parameters.
func Table1() Report {
	tb := stats.Table{Header: []string{"machine", "network", "cycle ns", "w", "Tsnd+Trcv", "r", "avg H", "T(160) paper", "T(160) model", "derived o us", "derived L us"}}
	allClose := true
	amFasterThanVendor := true
	var vendorCM5, amCM5 float64
	for _, s := range machine.Table1() {
		model := s.UnloadedTime(160, s.AvgHops)
		p := machine.DeriveLogP(s, 1024, 160, s.AvgHops)
		tb.Add(s.Name, s.Network, s.CycleNs, s.WidthW, s.Overhead, s.RouterR, s.AvgHops,
			s.TM160, model, float64(p.O)*s.CycleNs/1000, float64(p.L)*s.CycleNs/1000)
		if math.Abs(model-float64(s.TM160)) > 2 {
			allClose = false
		}
		if s.Name == "CM-5" {
			vendorCM5 = model
		}
		if s.Name == "CM-5 (AM)" {
			amCM5 = model
		}
	}
	if amCM5 >= vendorCM5 {
		amFasterThanVendor = false
	}
	text := tb.String()
	text += "\noverheads dominate: the vendor layers spend 10-100x more in software than in the network\n"
	return Report{
		ID:    "table1",
		Title: "Network timing parameters for a one-way message (Table 1)",
		Text:  text,
		Checks: []Check{
			check("recomputed T(160) matches the published column", allClose, ""),
			check("Active Messages an order of magnitude under the vendor layer", amFasterThanVendor && vendorCM5/amCM5 > 10, "%.0f vs %.0f", vendorCM5, amCM5),
		},
	}
}

// NetworkSaturation regenerates the Section 5.3 behaviour: mean packet
// latency versus offered load on a mesh and a fat tree, flat below the knee
// and exploding past it; hotspot traffic saturates far earlier than uniform.
// (The machine-level capacity knee is the separate "saturation" experiment
// in saturation.go.)
func NetworkSaturation(opts Options) Report {
	s := opts.Scale.clamp()
	horizon := int64(3000 * s)
	loads := []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
	base := network.LoadConfig{RouterDelay: 2, Pattern: network.UniformTraffic, Horizon: horizon, Warmup: horizon / 6, Seed: 42}

	mesh := network.Mesh2D(8, 8, false)
	ft := network.FatTree(4, 3)
	hot := base
	hot.Pattern = network.HotspotTraffic
	// The three load sweeps are independent simulations; run them
	// concurrently and keep the sequential error precedence.
	sweeps := []struct {
		name  string
		top   *network.Topology
		loads []float64
		cfg   network.LoadConfig
	}{
		{"mesh sweep", mesh, loads, base},
		{"fat tree sweep", ft, loads, base},
		{"hotspot sweep", mesh, loads[:5], hot},
	}
	type sweepOut struct {
		res  []network.LoadResult
		fail failure
	}
	outs := MapIndexed(opts.Workers, len(sweeps), func(i int) sweepOut {
		s := sweeps[i]
		res, err := network.SaturationSweep(s.top, s.loads, s.cfg)
		if err != nil {
			return sweepOut{fail: fail("netsat", check(s.name, false, "%v", err))}
		}
		return sweepOut{res: res}
	})
	for _, o := range outs {
		if o.fail.rep != nil {
			return *o.fail.rep
		}
	}
	meshRes, ftRes, hotRes := outs[0].res, outs[1].res, outs[2].res

	xs := make([]float64, len(loads))
	meshY := make([]float64, len(loads))
	ftY := make([]float64, len(loads))
	for i := range loads {
		xs[i] = loads[i]
		meshY[i] = meshRes[i].MeanLatency
		ftY[i] = ftRes[i].MeanLatency
	}
	hotY := make([]float64, len(hotRes))
	for i := range hotRes {
		hotY[i] = hotRes[i].MeanLatency
	}
	text := stats.CSV("load",
		stats.Series{Name: "mesh8x8_latency", X: xs, Y: meshY},
		stats.Series{Name: "fattree64_latency", X: xs, Y: ftY},
		stats.Series{Name: "mesh_hotspot_latency", X: xs[:len(hotY)], Y: hotY},
	)
	knee := network.SaturationLoad(meshRes)
	text += fmt.Sprintf("\nmesh saturation knee at offered load ~%.2f\n", knee)

	flatMesh := meshRes[1].MeanLatency < meshRes[0].MeanLatency*1.3
	blowup := meshRes[len(meshRes)-1].MeanLatency > meshRes[0].MeanLatency*4
	hotWorse := hotRes[len(hotRes)-1].MeanLatency > meshRes[4].MeanLatency
	return Report{
		ID:    "netsat",
		Title: "Packet latency vs offered load (Section 5.3)",
		Text:  text,
		Checks: []Check{
			check("latency flat below saturation", flatMesh, "%.1f vs %.1f", meshRes[1].MeanLatency, meshRes[0].MeanLatency),
			check("latency increases sharply at saturation", blowup, "%.1f vs %.1f", meshRes[len(meshRes)-1].MeanLatency, meshRes[0].MeanLatency),
			check("knee exists inside the sweep", !math.IsNaN(knee) && knee > loads[0] && knee < loads[len(loads)-1], "knee %.2f", knee),
			check("hotspot traffic saturates earlier", hotWorse, "hotspot %.1f vs uniform %.1f at load 0.35", hotRes[len(hotRes)-1].MeanLatency, meshRes[4].MeanLatency),
		},
	}
}

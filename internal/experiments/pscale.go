package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/stats"
)

// PScaling sweeps the machine size across four orders of magnitude and runs
// the paper's optimal broadcast tree (Section 4.1) on the goroutine-free
// flat engine at each P. The point is the model's central scaling claim made
// executable at realistic machine sizes: the broadcast completion time grows
// roughly logarithmically in P while the message count grows linearly, and a
// P = 10^6 machine — three orders of magnitude past what one goroutine per
// processor handles comfortably — simulates in seconds. Every run is
// cross-checked against the schedule's analytic finish time, the sharded
// parallel kernel must reproduce the sequential kernel's Result exactly with
// the capacity constraint off, turning the constraint on must not move the
// schedule's timing, and the smallest size is additionally replayed on the
// goroutine engine, which must agree cycle-for-cycle.
func PScaling(opts Options) Report {
	const id = "pscale"
	base := core.Params{L: 8, O: 2, G: 3}
	sizes := []int{1_000, 10_000, 100_000, 1_000_000 * opts.Scale.clamp()}

	type outcome struct {
		predicted int64
		res       logp.Result
		wall      time.Duration
		capWall   time.Duration
		shardedOK bool
		capOK     bool
		failMsg   string
	}
	runs := MapIndexed(opts.Workers, len(sizes), func(i int) outcome {
		params := base
		params.P = sizes[i]
		sched, err := core.OptimalBroadcast(params, 0)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		cfg := logp.Config{Params: params, DisableCapacity: true}
		prog := progs.NewBroadcast(sched, 1, "datum")
		start := time.Now()
		res, err := flat.Run(cfg, prog, 1)
		wall := time.Since(start)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		sharded, err := flat.Run(cfg, progs.NewBroadcast(sched, 1, "datum"), 4)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		// Sharded runs do not track the in-transit high-water marks (settling
		// would cross shards); compare everything else exactly.
		norm := res
		norm.MaxInTransitFrom, norm.MaxInTransitTo = 0, 0
		o := outcome{
			predicted: sched.Finish,
			res:       res,
			wall:      wall,
			shardedOK: reflect.DeepEqual(norm, sharded),
		}
		// Capacity on: the same broadcast under the ceil(L/g) in-flight bound.
		// A one-message-per-link tree never hits it, so the schedule timing
		// must not move.
		start = time.Now()
		capRes, err := flat.Run(logp.Config{Params: params}, progs.NewBroadcast(sched, 1, "datum"), 1)
		o.capWall = time.Since(start)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		o.capOK = capRes.Time == res.Time
		return o
	})
	for _, o := range runs {
		if o.failMsg != "" {
			return Report{ID: id, Checks: []Check{check("runs completed", false, "%s", o.failMsg)}}
		}
	}

	// Cross-engine spot check at the smallest size: the goroutine reference
	// machine must produce the identical Result.
	smallParams := base
	smallParams.P = sizes[0]
	smallSched, err := core.OptimalBroadcast(smallParams, 0)
	if err != nil {
		return Report{ID: id, Checks: []Check{check("runs completed", false, "%s", err.Error())}}
	}
	gRes, err := logp.RunProgram(logp.Config{Params: smallParams, DisableCapacity: true},
		progs.NewBroadcast(smallSched, 1, "datum"))
	if err != nil {
		return Report{ID: id, Checks: []Check{check("runs completed", false, "%s", err.Error())}}
	}
	crossOK := gRes.Time == runs[0].res.Time && gRes.Messages == runs[0].res.Messages

	ps := make([]float64, len(sizes))
	predicted := make([]float64, len(sizes))
	simulated := make([]float64, len(sizes))
	wallMS := make([]float64, len(sizes))
	rate := make([]float64, len(sizes))
	matched, counted, shardedOK, capOK := true, true, true, true
	for i, o := range runs {
		ps[i] = float64(sizes[i])
		predicted[i] = float64(o.predicted)
		simulated[i] = float64(o.res.Time)
		wallMS[i] = float64(o.wall.Milliseconds())
		rate[i] = float64(o.res.Messages) / o.wall.Seconds()
		if o.res.Time != o.predicted {
			matched = false
		}
		if o.res.Messages != sizes[i]-1 {
			counted = false
		}
		if !o.shardedOK {
			shardedOK = false
		}
		if !o.capOK {
			capOK = false
		}
	}
	last := len(sizes) - 1
	// Completion time must scale like the tree depth, not the machine size:
	// across a 1000x (or larger) P range it may grow by a small constant
	// factor only.
	logGrowth := simulated[last] < 4*simulated[0]
	bigWall := runs[last].wall
	if runs[last].capWall > bigWall {
		bigWall = runs[last].capWall
	}
	ciTime := bigWall < 60*time.Second

	var b strings.Builder
	fmt.Fprintf(&b, "optimal broadcast, L=%d o=%d g=%d, flat engine: capacity off (sequential + 4 shards) and on (sequential)\n\n",
		base.L, base.O, base.G)
	b.WriteString(stats.CSV("P",
		stats.Series{Name: "predicted_finish", X: ps, Y: predicted},
		stats.Series{Name: "simulated_time", X: ps, Y: simulated},
		stats.Series{Name: "wall_ms", X: ps, Y: wallMS},
		stats.Series{Name: "sim_msgs_per_sec", X: ps, Y: rate},
	))
	return Report{
		ID:    id,
		Title: "Machine-size scaling: optimal broadcast to P = 10^6 on the flat engine",
		Checks: []Check{
			check("simulated time matches the schedule's analytic finish at every P", matched,
				"simulated %v vs predicted %v", simulated, predicted),
			check("every processor reached: P-1 messages at every P", counted, "messages %v", runs[last].res.Messages),
			check("sharded kernel reproduces the sequential Result at every P", shardedOK, "4 shards vs 1"),
			check("capacity on leaves the schedule timing unchanged at every P", capOK,
				"sequential kernel, capacity on vs off"),
			check("goroutine engine agrees at P=1000", crossOK,
				"goroutine (time %d, msgs %d) vs flat (time %d, msgs %d)",
				gRes.Time, gRes.Messages, runs[0].res.Time, runs[0].res.Messages),
			check("completion time grows logarithmically, not linearly, in P", logGrowth,
				"time %.0f at P=%.0f vs %.0f at P=%.0f", simulated[0], ps[0], simulated[last], ps[last]),
			check("P=10^6 machine simulates within CI time", ciTime, "%v wall (max of capacity off/on)", bigWall),
		},
		Text: b.String(),
	}
}

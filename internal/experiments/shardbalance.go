package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/stats"
)

// ShardBalance turns the flight recorder on the sharded kernel itself: the
// optimal broadcast with the capacity constraint off (the mode that shards;
// see flat.ShardCount) at a fixed large P, swept across shard counts, with
// the per-shard wall-clock split (busy vs barrier wait) and the scheduling
// traffic (wheel/heap insertions, barrier merges) recorded for every run. The observable of interest is the
// barrier-wait fraction — the share of shard-worker time spent idle at
// window barriers waiting for the slowest shard — which bounds the speedup
// the windowed core can extract at the host's GOMAXPROCS. The recorder must
// be invisible in sim time: every recorded run is checked bit-identical to
// an unrecorded run of the same configuration.
func ShardBalance(opts Options) Report {
	const id = "shardbalance"
	params := core.Params{P: 100_000 * opts.Scale.clamp(), L: 8, O: 2, G: 3}
	shardCounts := []int{1, 2, 4, 8}

	sched, err := core.OptimalBroadcast(params, 0)
	if err != nil {
		return Report{ID: id, Checks: []Check{check("runs completed", false, "%s", err.Error())}}
	}
	cfg := logp.Config{Params: params, DisableCapacity: true}

	type outcome struct {
		stats    []flat.ShardStat
		wall     time.Duration
		recordOK bool
		failMsg  string
	}
	runs := MapIndexed(opts.Workers, len(shardCounts), func(i int) outcome {
		shards := shardCounts[i]
		plain, err := flat.Run(cfg, progs.NewBroadcast(sched, 1, "datum"), shards)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		m, err := flat.New(cfg, progs.NewBroadcast(sched, 1, "datum"), shards)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		m.EnableFlightRecorder()
		start := time.Now()
		rec, err := m.Run()
		wall := time.Since(start)
		if err != nil {
			return outcome{failMsg: err.Error()}
		}
		return outcome{
			stats:    m.ShardStats(),
			wall:     wall,
			recordOK: reflect.DeepEqual(plain, rec),
		}
	})
	for _, o := range runs {
		if o.failMsg != "" {
			return Report{ID: id, Checks: []Check{check("runs completed", false, "%s", o.failMsg)}}
		}
	}

	xs := make([]float64, len(shardCounts))
	busyMS := make([]float64, len(shardCounts))
	waitMS := make([]float64, len(shardCounts))
	waitFrac := make([]float64, len(shardCounts))
	wallMS := make([]float64, len(shardCounts))
	merged := make([]float64, len(shardCounts))
	recordOK, conserved, balanced, wellFormed := true, true, true, true
	for i, o := range runs {
		xs[i] = float64(shardCounts[i])
		var busy, wait, events, inserted, windows int64
		for _, st := range o.stats {
			busy += st.BusyNs
			wait += st.BarrierWaitNs
			events += st.Events
			inserted += st.WheelEvents + st.HeapEvents
			merged[i] += float64(st.MergedIn)
			windows += st.Windows
		}
		busyMS[i] = float64(busy) / 1e6
		waitMS[i] = float64(wait) / 1e6
		wallMS[i] = float64(o.wall.Milliseconds())
		if busy+wait > 0 {
			waitFrac[i] = float64(wait) / float64(busy+wait)
		}
		if !o.recordOK {
			recordOK = false
		}
		if events == 0 || inserted < events {
			conserved = false
		}
		// Sharded kernels run every window on every shard together; the
		// sequential kernel has no windows at all.
		if shardCounts[i] > 1 && windows != int64(shardCounts[i])*o.stats[0].Windows {
			balanced = false
		}
		if waitFrac[i] < 0 || waitFrac[i] > 1 {
			wellFormed = false
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "optimal broadcast, capacity off, P=%d, L=%d o=%d g=%d, GOMAXPROCS=%d, flight recorder on\n\n",
		params.P, params.L, params.O, params.G, runtime.GOMAXPROCS(0))
	b.WriteString(stats.CSV("shards",
		stats.Series{Name: "busy_ms", X: xs, Y: busyMS},
		stats.Series{Name: "barrier_wait_ms", X: xs, Y: waitMS},
		stats.Series{Name: "barrier_wait_frac", X: xs, Y: waitFrac},
		stats.Series{Name: "wall_ms", X: xs, Y: wallMS},
		stats.Series{Name: "merged_in", X: xs, Y: merged},
	))
	return Report{
		ID:    id,
		Title: "Shard balance: where the windowed kernel's wall-clock time goes",
		Checks: []Check{
			check("recorded Result is bit-identical to the unrecorded run at every shard count", recordOK,
				"flight recorder must not steer sim time"),
			check("every dispatched event was first inserted (wheel + heap covers dispatches)", conserved,
				"insertions vs dispatches per shard count"),
			check("all shards of a windowed run execute every window together", balanced,
				"per-shard window counts must be equal"),
			check("barrier-wait fractions are well-formed", wellFormed, "fractions %v", waitFrac),
		},
		Text: b.String(),
	}
}

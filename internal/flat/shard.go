package flat

import (
	"math"
	"sync"
	"time"
)

// runSharded executes the machine in conservative lookahead windows. Each
// round: find M, the earliest pending event machine-wide; let every shard
// execute its events in [M, M+W) concurrently, where W is the horizon
// min(o+L) over all links (the global o+L without a topology); then merge
// the cross-shard deliveries each shard buffered, in fixed (destination,
// source, append) order, and advance to the next window.
//
// Safety: within a window a shard touches only its own processors, its own
// queue, and metric cells owned by its processors (sender-side counters and
// link rows on sends, destination-side counters on deliveries, a shard-local
// flight histogram), so shards share no mutable state. Every cross-shard
// delivery buffered during a window lands at or after the window end — after
// the merge point — because outbox entries are emitted only at points where
// the full o+L lookahead of the message's own link lies ahead, and every
// link's o+L is at least the minOL the window spans: an inline injection at
// time t >= M follows an overhead charge that began at initiation >= t-o...
// >= M, putting its delivery at initiation+o+L >= M+minOL, and a send that
// parks for its overhead buffers its delivery at park time
// (bufferParkedSend), with t_deliver = initiation+o+L >= M+minOL. The park
// case is load-bearing: an rSendPaid wake can fire in a later window, where
// only L cycles — less than the window span — separate it from delivery, so
// injecting there could land the message behind a destination shard whose
// clock ran ahead via Wait/WaitUntil/Compute. Sharded runs have no latency
// jitter, no capacity stalls (see ShardCount) and no faults but fail-stops,
// so the park-time flight is exact.
// Under a tiered topology the window is set by the *cheapest* link class —
// typically the intra-node tier — even though most shard boundaries carry
// only expensive cluster links: the partition is by contiguous ID block, so
// a node can straddle a boundary and put fast links cross-shard, and minOL
// is the only bound that is sound for every partition.
//
// Determinism: each shard's window execution is sequential, so its outbox
// order is a pure function of its pre-window state, and the merge order is
// fixed; therefore the run is bit-identical for any GOMAXPROCS setting,
// including 1.
func (m *Machine) runSharded() error {
	var wg sync.WaitGroup
	for {
		M := int64(math.MaxInt64)
		found := false
		for s := range m.sh {
			if t, ok := m.sh[s].nextTime(); ok && (!found || t < M) {
				M = t
				found = true
			}
		}
		if !found {
			break
		}
		wend := M + m.horizon
		if wend < M { // saturate on overflow: the last window runs to the end of the clock
			wend = math.MaxInt64
		}
		wg.Add(len(m.sh))
		for s := range m.sh {
			sh := &m.sh[s]
			go func() {
				defer wg.Done()
				sh.deadline = wend - 1
				var e ent
				if sh.rec == nil {
					for sh.popNext(wend, &e) {
						m.dispatch(sh, &e)
					}
					return
				}
				// Flight recorder on: stamp the window's busy span and the
				// finish instant the barrier differencing reads. Wall clock
				// only — sim state is untouched, so the Result is identical.
				sh.rec.Windows++
				t0 := time.Now()
				for sh.popNext(wend, &e) {
					m.dispatch(sh, &e)
				}
				end := time.Now()
				sh.rec.BusyNs += end.Sub(t0).Nanoseconds()
				m.fr.finish[sh.idx] = end
			}()
		}
		wg.Wait()
		if m.fr != nil {
			// Per-shard barrier wait: the gap between a shard's own window
			// finish and the moment the slowest shard released the barrier.
			bend := time.Now()
			for s := range m.sh {
				m.fr.stats[s].BarrierWaitNs += bend.Sub(m.fr.finish[s]).Nanoseconds()
			}
		}
		for d := range m.sh {
			dst := &m.sh[d]
			for s := range m.sh {
				buf := m.sh[s].out[d]
				if dst.rec != nil {
					dst.rec.MergedIn += int64(len(buf))
				}
				for i := range buf {
					b := &buf[i]
					*dst.deliverAt(b.t, b.to, b.data, b.drop) = b.rec
					b.data = nil
				}
				m.sh[s].out[d] = buf[:0]
			}
		}
		if m.met != nil {
			// Window-barrier sampling: the per-event sampler of sequential
			// runs cannot fire inside a window (it reads machine-wide state),
			// so sharded runs sample at the barrier for every interval the
			// window covered. Deterministic for a given shard count.
			live := 0
			for s := range m.sh {
				live += m.sh[s].live
			}
			for m.nextSample < wend {
				if live > 0 {
					m.takeSample(m.nextSample)
				}
				m.nextSample += m.every
			}
		}
	}
	return m.checkDeadlock()
}

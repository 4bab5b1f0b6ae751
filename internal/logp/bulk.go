package logp

import (
	"fmt"

	"github.com/logp-model/logp/internal/sim"
	"github.com/logp-model/logp/internal/trace"
)

// Long messages (Section 5.4). The basic model gives no special treatment
// to long messages: "the overhead o is paid for each word (or small number
// of words)". Machines with a DMA device attached to the network interface
// pay the setup overhead once and stream the message at the network rate,
// overlapping the transfer with computation — "tantamount to providing two
// processors on each node, one to handle messages and one to do the
// computation", which "can at best double the performance of each node".
//
// SendBulk implements both regimes, selected by Config.Coprocessor:
//
//	without coprocessor (PIO): the processor is engaged o per word, words
//	spaced by max(g,o); the receiver is likewise engaged o per word.
//	total, idle endpoints: (k-1)*max(g,o) + 2o + L.
//
//	with coprocessor (DMA): the processor pays o once to set up the
//	device, which streams the words at the gap; the receiver's device
//	collects them and its processor pays o once to consume the message.
//	total: 2o + (k-1)*g + L — the LogGP long-message formula.
//
// Either way the k words travel as one message train delivered as a single
// Message with Size = k, and count one unit against the capacity
// constraint.

// Coprocessor configuration lives in Config (machine.go); this file holds
// the bulk-transfer mechanics.

// SendBulk transmits words words of payload to processor to as one message
// train. See the package notes above for the cost model. words must be
// positive; SendBulk(.., 1) costs exactly Send.
func (p *Proc) SendBulk(to, tag int, data any, words int) {
	if words < 1 {
		panic(fmt.Sprintf("logp: bulk send of %d words", words))
	}
	if to == p.id {
		panic(fmt.Sprintf("logp: proc %d sending to itself", p.id))
	}
	if to < 0 || to >= p.m.cfg.P {
		panic(fmt.Sprintf("logp: proc %d sending to %d out of range", p.id, to))
	}
	p.checkFail()
	cfg := &p.m.cfg
	lkL, lkO, lkG := p.m.link(p.id, to)
	start := p.Now()
	if p.nextSend < 0 {
		p.overflow(GapOverflow(p.id, "send", p.nextSend, start))
	}
	initiation := start
	if p.nextSend > initiation {
		initiation = p.nextSend
	}

	var engaged, portBusy, lastInjection int64
	if cfg.Coprocessor {
		// Set up the DMA device: o cycles, then the device streams the
		// words at the gap while the processor is free.
		engaged = lkO
		lastInjection = lkO + int64(words-1)*lkG
		portBusy = lkO + int64(words)*lkG
	} else {
		// Programmed I/O: o per word, spaced by the send interval.
		iv := lkO
		if lkG > iv {
			iv = lkG
		}
		engaged = int64(words-1)*iv + lkO
		lastInjection = engaged
		portBusy = int64(words) * iv
	}
	// One park covers the gap wait and the engaged stretch.
	p.ps.WaitUntil(sim.Time(initiation + engaged))
	p.stats.SendOverhead += engaged
	p.stats.MsgsSent++
	if initiation > start {
		p.record(trace.Idle, start, initiation)
	}
	p.record(trace.SendOverhead, initiation, p.Now())
	if p.m.met != nil {
		p.m.met.OnSend(p.id, to)
	}
	p.nextSend = initiation + portBusy

	// Capacity: the train takes one in-transit unit from injection of its
	// last word to arrival.
	if p.m.outCap != nil {
		start := p.Now()
		p.m.outCap[p.id].Acquire(p.ps)
		p.m.inCap[to].Acquire(p.ps)
		if d := p.Now() - start; d > 0 {
			p.stats.Stall += d
			p.record(trace.Stall, start, p.Now())
			if p.m.met != nil {
				p.m.met.OnStall(p.id, d)
			}
		}
	}
	p.m.inTransitFrom[p.id]++
	p.m.inTransitTo[to]++
	if u := p.m.inTransitFrom[p.id]; u > p.m.maxOut {
		p.m.maxOut = u
	}
	if u := p.m.inTransitTo[to]; u > p.m.maxIn {
		p.m.maxIn = u
	}

	lat := lkL
	if cfg.LatencyJitter > 0 {
		lat -= p.m.kernel.Rand().Int63n(cfg.LatencyJitter + 1)
	}
	// The whole train shares one fate draw: it is one message in the
	// capacity books, so it drops or duplicates as a unit.
	var drop, dup bool
	var dupLat int64
	if p.m.faults != nil {
		lat, drop, dup, dupLat = p.m.faults.messageFate(p.id, to, lat)
	}
	if p.m.rec != nil {
		p.m.rec.SendBulk(p.id, to, tag, words, lat)
		if drop {
			p.m.rec.DropLast(p.id)
		}
	}
	// The train's last word was injected at initiation+lastInjection; the
	// message is complete at the destination L later. (The DMA processor
	// may already be past this point in simulated time; the arrival event
	// is scheduled from absolute times.)
	arriveAt := initiation + lastInjection + lat
	now := int64(p.m.kernel.Now())
	delay := arriveAt - now
	if delay < 0 {
		delay = 0
	}
	d := p.m.newDelivery()
	d.msg = Message{From: p.id, To: to, Tag: tag, Data: data, Size: words, SentAt: initiation}
	d.drop = drop
	d.flight = lat
	p.m.kernel.AfterRun(sim.Time(delay), d)
	if dup {
		if p.m.rec != nil {
			p.m.rec.Dup(p.id, to, tag, words, dupLat)
		}
		dupDelay := arriveAt - lat + dupLat - now
		if dupDelay < 0 {
			dupDelay = 0
		}
		d2 := p.m.newDelivery()
		d2.msg = Message{From: p.id, To: to, Tag: tag, Data: data, Size: words, SentAt: initiation, dup: true}
		d2.dup = true
		d2.flight = dupLat
		p.m.kernel.AfterRun(sim.Time(dupDelay), d2)
	}
}

// recvCost is the processor engagement for consuming msg: o per word
// without a coprocessor, o once with one. lkO is the overhead of the link
// the message arrived on (the global o without a topology).
func (p *Proc) recvCost(msg Message, lkO int64) int64 {
	words := msg.Size
	if words < 1 {
		words = 1
	}
	if p.m.cfg.Coprocessor {
		return lkO
	}
	return int64(words) * lkO
}

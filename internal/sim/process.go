package sim

import "fmt"

// Process is a simulated thread of control. Its body runs in a dedicated
// goroutine, but the kernel resumes processes one at a time: whenever the
// body calls a blocking Process method the goroutine parks and hands control
// back to the kernel, which runs other events until it is this process's turn
// again. Simulated time only advances between those hand-offs, so process
// code observes a coherent clock via Now.
//
// Control transfer uses a single unbuffered handoff channel. Because the
// kernel and the process alternate strictly (the kernel only runs while the
// process is parked, and vice versa), sends and receives on the one channel
// pair up deterministically: kernel-send resumes the process, process-send
// returns control to the kernel.
type Process struct {
	k       *Kernel
	name    string
	handoff chan struct{} // strict kernel <-> process control transfer
	done    bool
	blocked bool // parked with no scheduled wake-up (waiting on a Signal)
}

// Spawn creates a process running body and schedules it to start at the
// current simulated time. The name appears in deadlock reports.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{
		k:       k,
		name:    name,
		handoff: make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	go func() {
		<-p.handoff // wait for the kernel to start us
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(processAbort); !ok {
					panic(r)
				}
			}
			p.done = true
			p.handoff <- struct{}{}
		}()
		body(p)
	}()
	k.AfterRun(0, p)
	return p
}

// RunEvent wakes the process at its scheduled time. Process implements
// Runner so that every wake-up (Spawn, Wait, Unblock, Yield) is scheduled
// through the kernel without allocating a closure.
func (p *Process) RunEvent() { p.wake() }

// wake transfers control to the process goroutine and blocks the kernel until
// the process parks again. This strict hand-off is what makes the simulation
// deterministic.
func (p *Process) wake() {
	if p.done {
		return
	}
	p.handoff <- struct{}{}
	<-p.handoff
}

// processAbort is the panic value that unwinds a process the kernel is
// aborting after a deadlock (Kernel.abort); only the Spawn wrapper
// recovers it.
type processAbort struct{}

// park returns control to the kernel and blocks until woken. A process
// woken by Kernel.abort unwinds from here instead of returning.
func (p *Process) park() {
	p.handoff <- struct{}{}
	<-p.handoff
	if p.k.aborting {
		panic(processAbort{})
	}
}

// advance tries to move the simulated clock to t without a kernel round
// trip. While process code runs it holds the control token (the kernel is
// blocked in wake), so if no queued event precedes t this process is
// necessarily the next thing the kernel would dispatch — waking it at t. In
// that case the park and both goroutine switches are pure overhead: the
// process may simply set the clock forward and keep running. The elision is
// suppressed past the active RunUntil deadline and after Stop, where control
// must return to the kernel.
func (p *Process) advance(t Time) bool {
	k := p.k
	if k.stopped || t > k.deadline || k.fifoHead != len(k.fifo) {
		return false
	}
	if len(k.events) > 0 && k.events[0].t <= t {
		return false
	}
	k.now = t
	return true
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Process) Kernel() *Kernel { return p.k }

// Now reports the current simulated time.
func (p *Process) Now() Time { return p.k.Now() }

// Wait advances this process's clock by d cycles of simulated time.
func (p *Process) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative duration %d", p.name, d))
	}
	if d == 0 {
		return
	}
	t := p.k.now + d
	if p.advance(t) {
		return
	}
	p.k.AtRun(t, p)
	p.park()
}

// WaitUntil advances this process's clock to absolute time t. Waiting for a
// time in the past is a no-op.
func (p *Process) WaitUntil(t Time) {
	if t <= p.k.Now() {
		return
	}
	if p.advance(t) {
		return
	}
	p.k.AtRun(t, p)
	p.park()
}

// Block parks the process indefinitely; some other event must call Unblock to
// resume it. Use Signal or Gate for higher-level coordination.
func (p *Process) Block() {
	p.blocked = true
	p.park()
}

// Unblock schedules a blocked process to resume at the current simulated
// time and marks it unblocked immediately, so a second Unblock before the
// process actually resumes is detected as the bug it is: a spurious extra
// wake-up would hand control to the process at an arbitrary later park and
// corrupt the simulation. Calling Unblock on a process that is not blocked
// panics.
func (p *Process) Unblock() {
	if !p.blocked {
		panic(fmt.Sprintf("sim: Unblock of process %q which is not blocked (double unblock?)", p.name))
	}
	p.blocked = false
	p.k.AfterRun(0, p)
}

// Yield parks the process and immediately reschedules it at the current time,
// letting other events scheduled for this instant run first.
func (p *Process) Yield() {
	p.k.AfterRun(0, p)
	p.park()
}

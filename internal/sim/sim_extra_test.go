package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTimeHelpers(t *testing.T) {
	if Time(42).String() != "42" {
		t.Errorf("String() = %q", Time(42).String())
	}
	if Max(3, 7) != 7 || Max(7, 3) != 7 {
		t.Error("Max wrong")
	}
	if Min(3, 7) != 3 || Min(7, 3) != 3 {
		t.Error("Min wrong")
	}
}

func TestKernelRandDeterministic(t *testing.T) {
	a := NewKernel(5).Rand().Int63()
	b := NewKernel(5).Rand().Int63()
	c := NewKernel(6).Rand().Int63()
	if a != b {
		t.Error("same seed gave different draws")
	}
	if a == c {
		t.Error("different seeds gave the same first draw")
	}
}

func TestAfterNegativePanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestProcessWaitNegativePanics(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Process) {
		defer func() {
			if recover() == nil {
				t.Error("negative wait did not panic")
			}
		}()
		p.Wait(-5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessAccessors(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("worker", func(p *Process) {
		if p.Name() != "worker" {
			t.Errorf("Name() = %q", p.Name())
		}
		if p.Kernel() != k {
			t.Error("Kernel() wrong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnblockNotBlockedPanics(t *testing.T) {
	k := NewKernel(1)
	var target *Process
	target = k.Spawn("idle", func(p *Process) { p.Wait(10) })
	k.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("Unblock of non-blocked process did not panic")
			}
		}()
		target.Unblock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s := NewSemaphore(1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire succeeded at capacity")
	}
	if s.InUse() != 1 || s.Capacity() != 1 {
		t.Errorf("InUse=%d Capacity=%d", s.InUse(), s.Capacity())
	}
	s.Release()
	if s.InUse() != 0 {
		t.Error("release did not free the unit")
	}
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	s := NewSemaphore(1)
	defer func() {
		if recover() == nil {
			t.Error("release without acquire did not panic")
		}
	}()
	s.Release()
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSemaphore(0) },
		func() { NewBarrier(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	e := &DeadlockError{Time: 9, Blocked: []string{"a", "b"}}
	if !strings.Contains(e.Error(), "time 9") || !strings.Contains(e.Error(), "2 process(es)") {
		t.Errorf("error = %q", e.Error())
	}

	// Past 16 names the message lists the first 16 and counts the rest;
	// Blocked itself stays complete.
	var names []string
	for i := 0; i < 40; i++ {
		names = append(names, fmt.Sprintf("proc%d", i))
	}
	e = &DeadlockError{Time: 3, Blocked: names}
	want := "sim: deadlock at time 3: 40 process(es) blocked forever: " +
		fmt.Sprint(names[:16]) + " and 24 more"
	if got := e.Error(); got != want {
		t.Errorf("error = %q\nwant    %q", got, want)
	}
	if len(e.Blocked) != 40 {
		t.Errorf("Blocked trimmed to %d names", len(e.Blocked))
	}
	e = &DeadlockError{Time: 3, Blocked: names[:16]}
	if want := fmt.Sprintf("sim: deadlock at time 3: 16 process(es) blocked forever: %v", names[:16]); e.Error() != want {
		t.Errorf("16-name error = %q, want %q", e.Error(), want)
	}
}

// TestDeadlockReleasesGoroutines pins that a deadlocked run unwinds its
// blocked processes: their goroutines exit, and the deferred code in their
// bodies runs.
func TestDeadlockReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	var sig Signal
	unwound := 0
	for i := 0; i < 50; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			defer func() { unwound++ }()
			p.Wait(Time(i))
			sig.Wait(p)
			t.Error("a deadlocked process resumed normally")
		})
	}
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 50 {
		t.Fatalf("err = %v, want a deadlock of 50 processes", err)
	}
	if unwound != 50 {
		t.Errorf("%d of 50 process bodies unwound", unwound)
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits, up to a generous bound, for the goroutine count to
// fall back to base: a process goroutine exits just after its final handoff.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestWakeAfterDoneIsNoop(t *testing.T) {
	// A process that finishes before a scheduled wake-up: the stale wake
	// must not panic or hang.
	k := NewKernel(1)
	var pr *Process
	pr = k.Spawn("quick", func(p *Process) {})
	k.At(5, func() {
		// Re-schedule a wake on the finished process via the kernel's own
		// mechanism: nothing should happen.
		_ = pr
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A second Unblock before the woken process actually resumes is the classic
// double-unblock hazard: the spurious wake-up would pair with some later
// park and corrupt the handoff. Unblock clears blocked immediately, so the
// second call must panic.
func TestDoubleUnblockPanics(t *testing.T) {
	k := NewKernel(1)
	target := k.Spawn("sleeper", func(p *Process) { p.Block() })
	k.At(1, func() {
		target.Unblock() // legitimate wake-up
		defer func() {
			if recover() == nil {
				t.Error("second Unblock before resume did not panic")
			}
		}()
		target.Unblock() // the process has not resumed yet: must panic
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A process waiting past pending events must not skip them: the in-place
// clock advance is only legal when the process is provably the next thing
// to run.
func TestWaitObservesInterveningEvents(t *testing.T) {
	k := NewKernel(1)
	var order []Time
	k.At(5, func() { order = append(order, k.Now()) })
	k.Spawn("waiter", func(p *Process) {
		p.Wait(10) // an event at t=5 is pending: no elision
		order = append(order, p.Now())
		p.Wait(7) // queue now empty: elided, but time still advances
		order = append(order, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{5, 10, 17}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// RunUntil's deadline must bound in-place clock advances too: a process
// waiting beyond the deadline parks, and the clock stops at the deadline.
func TestRunUntilBoundsProcessWaits(t *testing.T) {
	k := NewKernel(1)
	resumed := false
	k.Spawn("long", func(p *Process) {
		p.Wait(100)
		resumed = true
	})
	if err := k.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("process ran past the deadline")
	}
	if k.Now() != 50 {
		t.Errorf("clock at %d, want 50", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed || k.Now() != 100 {
		t.Errorf("resumed=%v now=%d after draining", resumed, k.Now())
	}
}

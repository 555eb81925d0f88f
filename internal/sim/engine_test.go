package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Post(30*Nanosecond, func() { order = append(order, 3) })
	e.Post(10*Nanosecond, func() { order = append(order, 1) })
	e.Post(20*Nanosecond, func() { order = append(order, 2) })
	mustRun(t, e)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 30*Nanosecond {
		t.Errorf("final time = %v, want 30ns", e.Now())
	}
}

func TestSameTimeEventsFireInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Post(5*Microsecond, func() { order = append(order, i) })
	}
	mustRun(t, e)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Post(100*Nanosecond, func() {
		e.Post(e.Now()+50*Nanosecond, func() { at = e.Now() })
	})
	mustRun(t, e)
	if at != 150*Nanosecond {
		t.Errorf("fired at %v, want 150ns", at)
	}
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Post(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post in the past should panic")
			}
		}()
		e.Post(5*Nanosecond, func() {})
	})
	mustRun(t, e)
}

func TestProcRunsAndFinishes(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("worker", func(p *Proc) { ran = true })
	mustRun(t, e)
	if !ran {
		t.Error("proc body never ran")
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		wake = p.Now()
		p.Sleep(3 * Microsecond)
		wake = p.Now()
	})
	mustRun(t, e)
	if wake != 10*Microsecond {
		t.Errorf("woke at %v, want 10us", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(1 * Microsecond)
				}
			})
		}
		mustRun(t, e)
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: trace %v != first %v", i, got, first)
		}
	}
	// Spawn order is preserved at each time step.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("trace = %v, want %v", first, want)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(1 * Microsecond)
			childTime = c.Now()
		})
	})
	mustRun(t, e)
	if childTime != 6*Microsecond {
		t.Errorf("child finished at %v, want 6us", childTime)
	}
}

func TestYieldLetsOthersRun(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	mustRun(t, e)
	want := []string{"a1", "b1", "a2"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	var w Waiter
	e.Spawn("stuck", func(p *Proc) {
		w.Wait(p, "never woken")
	})
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if d.NumLive != 1 || len(d.Parked) != 1 || d.Parked[0] != "stuck: never woken" {
		t.Errorf("diagnostics = %+v", d)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("looper", func(p *Proc) {
		for {
			count++
			if count == 3 {
				e.Stop()
			}
			p.Sleep(1 * Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestHandlerWakesProc(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var woke Time
	e.Spawn("waiter", func(p *Proc) {
		w.Wait(p, "signal")
		woke = p.Now()
	})
	e.Post(42*Microsecond, func() { w.WakeAll() })
	mustRun(t, e)
	if woke != 42*Microsecond {
		t.Errorf("woke at %v, want 42us", woke)
	}
}

func TestReadyIsIdempotent(t *testing.T) {
	e := NewEngine()
	var w Waiter
	wakes := 0
	var pr *Proc
	e.Spawn("w", func(p *Proc) {
		pr = p
		w.Wait(p, "once")
		wakes++
	})
	e.Post(1*Microsecond, func() {
		w.WakeAll()
		e.Ready(pr) // duplicate; must be a no-op
		e.Ready(pr)
	})
	mustRun(t, e)
	if wakes != 1 {
		t.Errorf("woke %d times, want 1", wakes)
	}
}

func TestParkOutsideProcPanics(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var pr *Proc
	e.Spawn("p", func(p *Proc) { pr = p })
	mustRun(t, e)
	defer func() {
		if recover() == nil {
			t.Error("park outside proc should panic")
		}
	}()
	w.Wait(pr, "illegal")
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Post(10*Microsecond, func() {
		fired = append(fired, 1)
		// Posted during the run at exactly the deadline: it must fire.
		e.Post(20*Microsecond, func() { fired = append(fired, 4) })
	})
	e.Post(20*Microsecond, func() { fired = append(fired, 2) })
	e.Post(30*Microsecond, func() { fired = append(fired, 3) })
	if err := e.RunUntil(20 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.EventsFired() != 3 {
		t.Fatalf("EventsFired = %d, want 3", e.EventsFired())
	}
	if e.Now() != 20*Microsecond {
		t.Fatalf("Now = %v after RunUntil, want the deadline", e.Now())
	}
	// Resume to the end.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || e.EventsFired() != 4 {
		t.Fatalf("fired %v (%d events) after resume", fired, e.EventsFired())
	}
	// An idle engine still advances to the deadline; a past one panics.
	if err := e.RunUntil(50 * Microsecond); err != nil || e.Now() != 50*Microsecond {
		t.Fatalf("idle RunUntil: err=%v now=%v", err, e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil with a past deadline should panic")
		}
	}()
	e.RunUntil(40 * Microsecond)
}

func TestRunUntilWithParkedProc(t *testing.T) {
	e := NewEngine()
	var w Waiter
	woke := false
	e.Spawn("sleeper", func(p *Proc) {
		w.Wait(p, "beyond horizon")
		woke = true
	})
	e.Post(100*Microsecond, func() { w.WakeAll() })
	if err := e.RunUntil(50 * Microsecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if woke {
		t.Error("proc woke before its event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("proc never woke after resume")
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 5; i++ {
		e.Post(Time(i)*Microsecond, func() {})
	}
	mustRun(t, e)
	if e.EventsFired() != 5 {
		t.Errorf("EventsFired = %d, want 5", e.EventsFired())
	}
}

// TestProcRegistryPrune is the regression test for the Spawn registry leak:
// after a large transient fleet dies, the registry backing array must shrink
// instead of pinning the high-water capacity forever.
func TestProcRegistryPrune(t *testing.T) {
	e := NewEngine()
	const fleet = 4096
	for i := 0; i < fleet; i++ {
		e.Spawn("transient", func(p *Proc) {})
	}
	var parked *Proc
	e.Spawn("keeper", func(p *Proc) { p.park("held") })
	if err := e.Run(); err == nil {
		t.Fatal("want deadlock (keeper parked)")
	}
	if got := cap(e.procRegistry); got >= fleet/4 {
		t.Fatalf("registry not pruned: cap=%d after %d procs died", got, fleet)
	}
	if len(e.procRegistry) != 1 || e.procRegistry[0].name != "keeper" {
		t.Fatalf("survivor lost during pruning: %d entries", len(e.procRegistry))
	}
	if e.procRegistry[0].regIdx != 0 {
		t.Fatalf("bad regIdx after pruning: %d", e.procRegistry[0].regIdx)
	}
	_ = parked
}

// TestProcRegistryPruneKeepsDiagnostics interleaves dying and surviving
// procs so swap-removal plus shrinking must preserve every survivor's
// registry slot.
func TestProcRegistryPruneKeepsDiagnostics(t *testing.T) {
	e := NewEngine()
	const n = 512
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			e.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) { p.park("survivor") })
		} else {
			e.Spawn("t", func(p *Proc) {})
		}
	}
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if want := n / 8; de.NumLive != want || len(de.Parked) != want {
		t.Fatalf("diagnostics lost procs: live=%d parked=%d want %d", de.NumLive, len(de.Parked), want)
	}
	for i, p := range e.procRegistry {
		if p.regIdx != i {
			t.Fatalf("registry index desync at %d", i)
		}
	}
}

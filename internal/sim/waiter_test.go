package sim

import (
	"reflect"
	"testing"
)

func TestWaiterFIFOWakeOne(t *testing.T) {
	e := NewEngine()
	var w Waiter
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			w.Wait(p, "queueing")
			order = append(order, name)
		})
	}
	e.Post(1*Microsecond, func() {
		if w.Len() != 3 {
			t.Errorf("Len = %d, want 3", w.Len())
		}
		w.WakeOne()
	})
	e.Post(2*Microsecond, func() { w.WakeOne() })
	e.Post(3*Microsecond, func() { w.WakeOne() })
	mustRun(t, e)
	if want := []string{"first", "second", "third"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestWaiterWakeOneEmptyReportsFalse(t *testing.T) {
	var w Waiter
	if w.WakeOne() {
		t.Error("WakeOne on empty waiter = true")
	}
}

func TestWaitForPredicateLoop(t *testing.T) {
	e := NewEngine()
	var w Waiter
	n := 0
	done := false
	e.Spawn("consumer", func(p *Proc) {
		w.WaitFor(p, "n==3", func() bool { return n == 3 })
		done = true
		if p.Now() != 3*Microsecond {
			t.Errorf("predicate satisfied at %v, want 3us", p.Now())
		}
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Post(Time(i)*Microsecond, func() {
			n = i
			w.WakeAll()
		})
	}
	mustRun(t, e)
	if !done {
		t.Error("WaitFor never returned")
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEngine()
	var q Queue[int]
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p, "item"))
		}
	})
	e.Post(1*Microsecond, func() { q.Put(10); q.Put(20) })
	e.Post(2*Microsecond, func() { q.Put(30) })
	mustRun(t, e)
	if want := []int{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQueueGetBeforePut(t *testing.T) {
	e := NewEngine()
	var q Queue[string]
	var at Time
	var v string
	e.Spawn("consumer", func(p *Proc) {
		v = q.Get(p, "waiting")
		at = p.Now()
	})
	e.Post(5*Microsecond, func() { q.Put("x") })
	mustRun(t, e)
	if v != "x" || at != 5*Microsecond {
		t.Errorf("got %q at %v, want \"x\" at 5us", v, at)
	}
}

func TestQueueTryGet(t *testing.T) {
	var q Queue[int]
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue = ok")
	}
	q.Put(7)
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Errorf("TryGet = %d,%v want 7,true", v, ok)
	}
	if q.Len() != 0 {
		t.Errorf("Len after TryGet = %d, want 0", q.Len())
	}
}

func TestWaiterSkipsDeadProcs(t *testing.T) {
	// A proc that dies while queued on a Waiter must not be woken.
	e := NewEngine()
	var w Waiter
	// This proc parks and is then forcibly forgotten when the engine stops;
	// instead we validate the simpler contract: WakeOne skips procs that
	// finished between enqueue and wake. Construct via two waiters is not
	// possible (a parked proc can't finish), so assert the defensive branch
	// directly.
	p := &Proc{eng: e, name: "ghost", dead: true}
	w.ps.Push(p)
	if w.WakeOne() {
		t.Error("WakeOne woke a dead proc")
	}
}

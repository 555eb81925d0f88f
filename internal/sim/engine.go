package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine is a deterministic discrete-event simulation core.
//
// Two kinds of code execute under an Engine:
//
//   - event handlers, scheduled with Post/PostCall, which run inline on the
//     engine goroutine and must never block;
//   - processes (Proc), goroutines that the engine schedules one at a time,
//     coroutine style, and that may park on Waiters, Sleep, etc.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64

	pq   []*timer // 4-ary min-heap ordered by (at, seq); see event.go
	free []*timer // recycled timer nodes

	ready  Ring[*Proc] // FIFO ready queue
	cur    *Proc       // proc currently holding the baton (nil in handlers)
	yield  chan struct{}
	nprocs int // live (spawned, not yet finished) procs

	stopped bool
	running bool
	fired   uint64 // events executed (telemetry)

	procRegistry []*Proc // every spawned proc, for deadlock diagnostics
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Proc is a simulated process: a goroutine that runs only while it holds the
// engine's baton. All blocking is via park/Ready handoff, so at most one proc
// (or the engine itself) executes at any moment.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	queued bool   // in the ready queue
	parked bool   // waiting to be Ready'd
	dead   bool   // body returned
	why    string // reason for the current park (diagnostics)
	regIdx int    // position in Engine.procRegistry (for swap-removal on death)
	body   func(*Proc)
}

// Name reports the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine reports the engine that owns p.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the engine's current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn registers a new process. The body starts running at the engine's
// current time (time zero if the engine has not started). Spawn may be called
// before Run, from handlers, or from other procs.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), body: body}
	e.nprocs++
	p.regIdx = len(e.procRegistry)
	e.procRegistry = append(e.procRegistry, p)
	e.enqueue(p)
	go func() {
		<-p.resume
		p.body(p)
		p.dead = true
		e.yield <- struct{}{}
	}()
	return p
}

func (e *Engine) enqueue(p *Proc) {
	if p.queued || p.dead {
		return
	}
	p.queued = true
	p.parked = false
	p.why = ""
	e.ready.Push(p)
}

// Ready moves a parked proc to the back of the ready queue. Readying a proc
// that is already queued, running, or dead is a no-op, so wake-ups are
// naturally idempotent.
func (e *Engine) Ready(p *Proc) {
	if p == e.cur || !p.parked {
		return
	}
	e.enqueue(p)
}

// park suspends the calling proc until somebody calls Engine.Ready(p).
// why is recorded for deadlock diagnostics.
func (p *Proc) park(why string) {
	e := p.eng
	if e.cur != p {
		panic("sim: park called outside the owning proc (handlers must not block)")
	}
	p.parked = true
	p.why = why
	e.yield <- struct{}{}
	<-p.resume
}

// Sleep suspends the calling proc for d ticks of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		p.Yield()
		return
	}
	e := p.eng
	e.postProc(e.now+d, p)
	p.park("sleep")
}

// Yield places the calling proc at the back of the ready queue, letting other
// ready procs and same-time events run first.
func (p *Proc) Yield() {
	e := p.eng
	// Re-enqueue via a zero-delay event so that all currently ready procs
	// and already-scheduled same-time events get their turn.
	e.postProc(e.now, p)
	p.park("yield")
}

// DeadlockError is returned by Run when live procs remain but no events are
// pending: every proc is parked forever.
type DeadlockError struct {
	Time    Time
	Parked  []string // "name: reason" for each parked proc
	NumLive int
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d live procs, all parked [%s]",
		d.Time, d.NumLive, strings.Join(d.Parked, "; "))
}

// Run executes the simulation until no work remains: all procs have finished
// and the event queue is empty. It returns a *DeadlockError if procs remain
// parked with no pending events, and nil on a clean completion. Run must not
// be called reentrantly.
func (e *Engine) Run() error { return e.run(Forever) }

// run is Run bounded by a horizon: it returns nil, with later events still
// pending, once the next event is due after deadline.
func (e *Engine) run(deadline Time) error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped {
		// Drain the ready queue first: all work at the current instant
		// completes before the clock advances.
		e.drainReady()
		if e.stopped {
			break
		}
		// Advance the clock to the next pending event.
		if e.fireNext(deadline) {
			continue
		}
		if len(e.pq) > 0 {
			return nil // the next event lies past the deadline
		}
		// No ready procs, no events.
		if e.nprocs > 0 {
			return e.deadlock()
		}
		return nil
	}
	return nil
}

// runProc hands the baton to p until it parks, yields, or dies.
func (e *Engine) runProc(p *Proc) {
	p.queued = false
	e.cur = p
	p.resume <- struct{}{}
	<-e.yield
	e.cur = nil
	if p.dead {
		e.nprocs--
		e.unregister(p)
	}
}

// drainReady runs every ready proc until the queue empties: all work at the
// current instant completes before the clock advances.
func (e *Engine) drainReady() {
	for e.ready.Len() > 0 && !e.stopped {
		e.runProc(e.ready.Pop())
	}
}

// fireNext pops and fires the next pending event if it is due at or before
// deadline, reporting whether one ran.
func (e *Engine) fireNext(deadline Time) bool {
	if len(e.pq) == 0 || e.pq[0].at > deadline {
		return false
	}
	tm := e.heapPop()
	e.now = tm.at
	// Pull the action out and recycle the node before firing, so the
	// handler's own scheduling can reuse it immediately.
	fn, afn, a := tm.fn, tm.afn, tm.a
	i0, i1, i2 := tm.i0, tm.i1, tm.i2
	p := tm.proc
	e.recycle(tm)
	switch {
	case p != nil:
		e.Ready(p)
	case afn != nil:
		afn(a, i0, i1, i2)
	default:
		fn()
	}
	e.fired++
	return true
}

// registryShrinkFloor is the minimum registry capacity before pruning kicks
// in; below it the slack is cheaper to keep than to reallocate around.
const registryShrinkFloor = 64

// unregister prunes a dead proc from the diagnostics registry (swap-remove),
// so long multi-run simulations do not retain every finished rank's record.
// When live procs fall below a quarter of the registry's capacity the
// backing array is reallocated at half size, so a simulation that spawned a
// large transient fleet does not pin the high-water array forever.
func (e *Engine) unregister(p *Proc) {
	i := p.regIdx
	last := len(e.procRegistry) - 1
	e.procRegistry[i] = e.procRegistry[last]
	e.procRegistry[i].regIdx = i
	e.procRegistry[last] = nil
	e.procRegistry = e.procRegistry[:last]
	if c := cap(e.procRegistry); c >= registryShrinkFloor && last < c/4 {
		shrunk := make([]*Proc, last, c/2)
		copy(shrunk, e.procRegistry)
		e.procRegistry = shrunk
	}
}

func (e *Engine) deadlock() *DeadlockError {
	d := &DeadlockError{Time: e.now, NumLive: e.nprocs}
	for _, p := range e.procRegistry {
		if !p.dead && p.parked {
			d.Parked = append(d.Parked, p.name+": "+p.why)
		}
	}
	sort.Strings(d.Parked)
	return d
}

// EventsFired reports how many events have executed (telemetry for
// performance analysis of the simulator itself).
func (e *Engine) EventsFired() uint64 { return e.fired }

// LiveProcs reports spawned procs whose bodies have not returned. A nonzero
// value after RunUntil means the run did not complete within the horizon —
// the virtual-time watchdog signal used by the chaos harness.
func (e *Engine) LiveProcs() int { return e.nprocs }

// ParkedProcs lists "name: reason" for every live parked proc, sorted, for
// watchdog diagnostics.
func (e *Engine) ParkedProcs() []string {
	var out []string
	for _, p := range e.procRegistry {
		if !p.dead && p.parked {
			out = append(out, p.name+": "+p.why)
		}
	}
	sort.Strings(out)
	return out
}

// RunUntil executes the simulation until the clock would pass the deadline:
// all events at times ≤ deadline run, including those scheduled during the
// call; the engine then stops with pending later events intact and the
// clock at the deadline. It returns nil even if procs remain parked (they
// may be waiting for events beyond the horizon). A deadline in the past
// panics.
func (e *Engine) RunUntil(deadline Time) error {
	if deadline < e.now {
		panic("sim: RunUntil called with a deadline in the past")
	}
	err := e.run(deadline)
	if !e.stopped {
		e.now = deadline
	}
	e.stopped = false
	if _, ok := err.(*DeadlockError); ok {
		// Within a bounded window a parked-forever proc is not
		// distinguishable from one waiting past the horizon.
		return nil
	}
	return err
}

// Stop halts the simulation after the currently executing entity yields.
// Procs that have not finished stay suspended; Run returns nil.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

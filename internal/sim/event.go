package sim

// Event machinery for the hot path: a hand-inlined 4-ary min-heap over
// pooled timer nodes.
//
// The original implementation used container/heap over a slice of timer
// pointers, which costs an interface-boxing allocation per operation and
// one heap allocation per scheduled event; profile-wise those two were the
// largest single source of both CPU (sift comparisons through interface
// dispatch) and garbage in full-figure simulations. Here the heap is
// specialized:
//
//   - 4-ary layout: shallower than binary (fewer cache-missing levels) with
//     the 4 children adjacent in memory, a standard DES event-queue trick;
//   - every event is handle-free (Post, PostCall, Sleep, Yield), so timer
//     nodes come from a per-engine free list and are recycled as soon as
//     they fire: steady-state scheduling allocates nothing.
//
// Event order is the total order (at, seq) — identical to the previous
// implementation, so virtual timelines are bit-for-bit unchanged (the
// determinism digests in internal/adi assert this).

// timer is one scheduled event.
type timer struct {
	at  Time
	seq uint64

	// Exactly one of the three fire actions is set: a plain closure, a
	// closure-free call (afn applied to the stashed args), or a proc to
	// ready (the Sleep/Yield fast path).
	fn         func()
	afn        func(a any, i0, i1, i2 int64)
	a          any
	i0, i1, i2 int64
	proc       *Proc
}

// timerLess is the global total order on events: (at, seq).
func timerLess(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---- 4-ary heap (methods on Engine; the heap lives in e.pq) ----

func (e *Engine) heapPush(tm *timer) {
	e.pq = append(e.pq, tm)
	e.siftUp(len(e.pq) - 1)
}

func (e *Engine) heapPop() *timer {
	h := e.pq
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.pq = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.pq
	tm := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(tm, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = tm
}

func (e *Engine) siftDown(i int) {
	h := e.pq
	n := len(h)
	tm := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h[j], h[m]) {
				m = j
			}
		}
		if !timerLess(h[m], tm) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = tm
}

// ---- free list ----

// alloc returns a recycled node, or a fresh one.
func (e *Engine) alloc() *timer {
	if n := len(e.free); n > 0 {
		tm := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return tm
	}
	return &timer{}
}

// recycle returns a fired node to the free list. Only the reference fields
// are cleared: the fire-action triple must be empty for correct dispatch on
// reuse (and for GC), while the scalars are overwritten by whichever
// schedule call next claims the node.
func (e *Engine) recycle(tm *timer) {
	tm.fn, tm.afn, tm.a, tm.proc = nil, nil, nil, nil
	e.free = append(e.free, tm)
}

// ---- scheduling ----

// sched stamps tm with its (at, seq) key and pushes it onto the heap.
// Scheduling in the past (t < Now) is a programming error and panics.
func (e *Engine) sched(tm *timer, t Time) {
	if t < e.now {
		panic("sim: event scheduled at a time in the past")
	}
	tm.at, tm.seq = t, e.seq
	e.seq++
	e.heapPush(tm)
}

// Post schedules fn to run when the virtual clock reaches t. Handlers run
// on the engine's goroutine and must not block or park. Events cannot be
// cancelled; the timer node is pooled, so steady-state use allocates only
// fn's own closure (if any). Scheduling in the past panics.
func (e *Engine) Post(t Time, fn func()) {
	tm := e.alloc()
	tm.fn = fn
	e.sched(tm, t)
}

// PostCall schedules fn(a, i0, i1, i2) at t with no closure: the arguments
// ride in the pooled timer node, so hot paths that would otherwise allocate
// a capturing closure per event allocate nothing.
func (e *Engine) PostCall(t Time, fn func(a any, i0, i1, i2 int64), a any, i0, i1, i2 int64) {
	tm := e.alloc()
	tm.afn, tm.a, tm.i0, tm.i1, tm.i2 = fn, a, i0, i1, i2
	e.sched(tm, t)
}

// postProc schedules p to be readied at t — the allocation-free core of
// Sleep and Yield.
func (e *Engine) postProc(t Time, p *Proc) {
	tm := e.alloc()
	tm.proc = p
	e.sched(tm, t)
}

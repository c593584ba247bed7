package sim

import "fmt"

// Env is a simulation environment: a virtual clock plus an event calendar.
// An Env is not safe for concurrent use; all mutation happens either from the
// goroutine driving Run or from the single simulation process the scheduler
// has handed control to.
//
// The calendar is one heap ordered by (time, seq): entries due at the same
// instant dispatch in the order they were scheduled.
type Env struct {
	now     Time
	seq     uint64
	cal     []item     // binary min-heap on (at, seq), entries by value
	current *Proc      // process currently holding the hand-off token, if any
	idle    []*carrier // coroutines with no process bound, for Spawn to reuse

	running bool
	limit   Time    // the running RunUntil's limit
	nprocs  int     // live (not yet finished) processes
	procs   []*Proc // all spawned processes, for Deadlocked reporting
	trap    *ProcPanic

	// Observer, when non-nil, receives a structured event per scheduling
	// decision (callback dispatch, process resume) with its virtual
	// timestamp. internal/trace implements this to fold scheduler activity
	// into the unified trace; it must read time only, never advance it.
	Observer SchedObserver

	// OnProcPanic, when non-nil, is consulted before a trapped process
	// panic is re-raised on the Run caller's goroutine. Returning true
	// consumes the panic — the simulation keeps running with the panicked
	// process simply gone, which is how a supervisor models "a thread in
	// the driver VM oopsed" without tearing the whole experiment down.
	// Returning false preserves the default re-panic behavior. The handler
	// runs in scheduler context and must not block.
	OnProcPanic func(*ProcPanic) bool
}

// SchedObserver receives one structured event per scheduling decision. Both
// methods run in scheduler context and must not block, mutate simulation
// state, or advance the clock.
type SchedObserver interface {
	// SchedCallback fires when a calendar callback is dispatched at time at.
	SchedCallback(at Time)
	// SchedResume fires when process proc is handed the token at time at.
	SchedResume(at Time, proc string)
}

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// CurrentProc returns the process currently holding the hand-off token, or
// nil when called from scheduler/callback context.
func (e *Env) CurrentProc() *Proc { return e.current }

type item struct {
	at  Time
	seq uint64
	fn  func() // callback to run (scheduler context), or nil
	p   *Proc  // process to resume (mutually exclusive with fn)
	gen uint64 // resume generation; stale if != p.resumeGen when popped
}

func (it *item) before(o *item) bool {
	return it.at < o.at || (it.at == o.at && it.seq < o.seq)
}

// schedule stamps it with the next sequence number and sifts it up the
// calendar heap. Entries are stored by value: container/heap would box each
// one, and scheduling must not allocate.
func (e *Env) schedule(it item) {
	if it.at < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", it.at, e.now))
	}
	it.seq = e.seq
	e.seq++
	c := append(e.cal, item{})
	j := len(c) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !it.before(&c[i]) {
			break
		}
		c[j] = c[i]
		j = i
	}
	c[j] = it
	e.cal = c
}

// pop removes the calendar's earliest entry.
func (e *Env) pop() {
	c := e.cal
	n := len(c) - 1
	last := c[n]
	c[n] = item{}
	c = c[:n]
	if n > 0 {
		i := 0
		for {
			j := 2*i + 1
			if j >= n {
				break
			}
			if r := j + 1; r < n && c[r].before(&c[j]) {
				j = r
			}
			if !c[j].before(&last) {
				break
			}
			c[i] = c[j]
			i = j
		}
		c[i] = last
	}
	e.cal = c
}

// peek discards stale resumes (dead process or superseded wake-up) from the
// head of the calendar, without letting them advance the clock, and returns
// the earliest live entry, or nil when none is left. The pointer is valid
// until the calendar next changes.
func (e *Env) peek() *item {
	for len(e.cal) > 0 {
		it := &e.cal[0]
		if it.p == nil || (!it.p.finished && it.gen == it.p.resumeGen) {
			return it
		}
		e.pop()
	}
	return nil
}

// At schedules fn to run at absolute time t in scheduler context.
// fn must not block or advance time; to do timed work, spawn a process.
func (e *Env) At(t Time, fn func()) {
	e.schedule(item{at: t, fn: fn})
}

// After schedules fn to run d from now in scheduler context.
func (e *Env) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Run executes scheduled work until the calendar is empty, then returns.
// Processes still blocked on events when the calendar drains remain blocked;
// Deadlocked reports them.
func (e *Env) Run() {
	e.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes scheduled work up to and including time limit.
func (e *Env) RunUntil(limit Time) {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	e.limit = limit
	defer func() {
		e.running = false
		// A drained Env keeps a goroutine only for each process still
		// blocked: stop the idle coroutines.
		for i, c := range e.idle {
			c.stop()
			e.idle[i] = nil
		}
		e.idle = e.idle[:0]
	}()
	for {
		it := e.peek()
		if it == nil || it.at > limit {
			break
		}
		fn, p := it.fn, it.p
		e.now = it.at
		e.pop()
		if fn != nil {
			if e.Observer != nil {
				e.Observer.SchedCallback(e.now)
			}
			fn()
		} else {
			p.queued = false
			e.resume(p)
		}
	}
	if limit < Time(1<<62-1) && e.now < limit {
		e.now = limit
	}
}

// resume hands control to p and returns when it blocks or finishes. A
// finished process's carrier goes back on the idle list.
func (e *Env) resume(p *Proc) {
	if e.Observer != nil {
		e.Observer.SchedResume(e.now, p.name)
	}
	e.current = p
	c := p.c
	c.next()
	e.current = nil
	if !p.finished {
		return
	}
	e.nprocs--
	p.c, c.p, c.fn = nil, nil, nil
	e.idle = append(e.idle, c)
	if e.trap != nil {
		// The process panicked: re-raise on the Run caller's goroutine so
		// a harness can recover (and report, say, the reproducing seed)
		// instead of the whole program dying on a goroutine nobody can
		// recover from — unless a registered OnProcPanic handler (a
		// supervisor) consumes it first.
		tr := e.trap
		e.trap = nil
		if e.OnProcPanic == nil || !e.OnProcPanic(tr) {
			panic(tr)
		}
	}
}

// ProcPanic is the value re-panicked on the goroutine driving Run when a
// simulation process panics: the process name, the original panic value,
// and the stack captured at the panic site.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

func (pp *ProcPanic) String() string { return pp.Error() }

// Deadlocked returns the names of processes that are still alive but have no
// pending calendar entry — i.e. they are waiting on events that will never
// fire. Useful in tests after Run returns.
func (e *Env) Deadlocked() []string {
	if e.nprocs == 0 {
		return nil
	}
	var names []string
	for _, p := range e.procs {
		if !p.finished && !p.queued {
			names = append(names, p.name)
		}
	}
	return names
}

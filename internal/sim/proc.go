//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulation process. Its body runs on a pooled coroutine and only
// while the scheduler has handed it control, so at most one Proc executes at
// any instant and process bodies may freely mutate shared simulation state
// without locks.
//
// A body that calls runtime.Goexit ends the goroutine that called Run too:
// the coroutine hand-off (iter.Pull) propagates Goexit to its caller.
type Proc struct {
	env       *Env
	name      string
	c         *carrier // coroutine running the body; nil once finished
	finished  bool
	queued    bool   // has a pending calendar resume entry
	resumeGen uint64 // bumped per scheduled resume; stale entries are skipped
}

// A carrier is one iter.Pull coroutine that runs process bodies one after
// another. Between bodies it waits on Env.idle for the next Spawn.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc
	fn    func(*Proc)
}

// Spawn creates a process running fn, scheduled to start now.
// fn receives the process handle for sleeping and waiting.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	var c *carrier
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &carrier{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, c.fn = p, fn
	p.c = c
	e.nprocs++
	e.procs = append(e.procs, p)
	p.scheduleResume(e.now)
	return p
}

// loop runs each bound body to its end, then yields as idle until the
// scheduler rebinds it (yield returns true) or stops it.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

func (c *carrier) run() {
	p := c.p
	defer func() {
		p.finished = true
		if r := recover(); r != nil {
			// Capture the panic for the scheduler to re-raise on the Run
			// caller's goroutine (see Env.resume); recovering here keeps the
			// carrier reusable.
			p.env.trap = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
	}()
	c.fn(p)
}

// RunFunc spawns fn as a process and runs the environment until the calendar
// drains. It is a convenience for tests and sequential experiments.
func (e *Env) RunFunc(name string, fn func(p *Proc)) {
	e.Spawn(name, fn)
	e.Run()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

func (p *Proc) scheduleResume(at Time) {
	p.queued = true
	p.resumeGen++
	p.env.schedule(item{at: at, p: p, gen: p.resumeGen})
}

// block yields control to the scheduler and returns when resumed. When the
// earliest live calendar entry is this process's own resume, due within the
// RunUntil limit, block does what the scheduler would do with it and
// continues in place.
func (p *Proc) block() {
	e := p.env
	if e.current != p {
		panic(fmt.Sprintf("sim: %s yielding while not current", p.name))
	}
	if it := e.peek(); it != nil && it.p == p && it.at <= e.limit {
		e.now = it.at
		e.pop()
		p.queued = false
		if e.Observer != nil {
			e.Observer.SchedResume(e.now, p.name)
		}
		return
	}
	p.c.yield(struct{}{})
}

// Sleep suspends the process for d of simulated time.
// Other processes and callbacks scheduled within the window run meanwhile.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.scheduleResume(p.env.now.Add(d))
	p.block()
}

// Advance is Sleep under a name that reads better when the elapsed time
// models work being performed (a hypercall, a memory copy, wire time).
func (p *Proc) Advance(d Duration) { p.Sleep(d) }

// Yield cedes the processor without advancing time, letting any other work
// scheduled at the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

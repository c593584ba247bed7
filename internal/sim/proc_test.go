package sim

import (
	"runtime"
	"testing"
)

// A lone process that sleeps resumes itself in place: scheduling and taking
// its own calendar entry allocates nothing.
func TestSleepAllocatesNothing(t *testing.T) {
	e := NewEnv()
	var allocs float64
	e.RunFunc("lone", func(p *Proc) {
		p.Sleep(Nanosecond) // let the calendar reach its working size
		allocs = testing.AllocsPerRun(100, func() { p.Sleep(Nanosecond) })
	})
	if allocs != 0 {
		t.Fatalf("Sleep allocates %v times per call, want 0", allocs)
	}
}

// A process that runs to completion costs its *Proc and nothing more: the
// coroutine it ran on is pooled and the calendar stores entries by value.
func TestSpawnAllocatesOnlyTheProc(t *testing.T) {
	e := NewEnv()
	var allocs float64
	body := func(*Proc) {}
	e.RunFunc("parent", func(p *Proc) {
		e.Spawn("warm", body)
		p.Yield()
		allocs = testing.AllocsPerRun(100, func() {
			e.Spawn("child", body)
			p.Yield() // the child runs to completion before we resume
		})
	})
	if allocs > 1 {
		t.Fatalf("Spawn+run allocates %v times, want <= 1", allocs)
	}
}

// When OnProcPanic consumes a panic the simulation keeps running, and the
// panicked process's coroutine is reused by the next Spawn.
func TestConsumedPanicKeepsRunningAndReusesCarrier(t *testing.T) {
	e := NewEnv()
	var trapped []*ProcPanic
	e.OnProcPanic = func(pp *ProcPanic) bool {
		trapped = append(trapped, pp)
		return true
	}
	bomb := e.Spawn("bomb", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("oops")
	})
	c := bomb.c
	var reused bool
	var end Time
	e.Spawn("survivor", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		next := e.Spawn("next", func(q *Proc) { q.Sleep(Microsecond) })
		reused = next.c == c
		p.Sleep(3 * Microsecond)
		end = p.Now()
	})
	e.Run()
	if len(trapped) != 1 || trapped[0].Proc != "bomb" || trapped[0].Value != "oops" {
		t.Fatalf("trapped = %v, want one panic from bomb", trapped)
	}
	if !reused {
		t.Fatal("Spawn after a consumed panic did not reuse the panicked process's carrier")
	}
	if end != Time(5*Microsecond) {
		t.Fatalf("survivor ended at %v, want 5µs", end)
	}
	if dl := e.Deadlocked(); dl != nil {
		t.Fatalf("deadlocked: %v", dl)
	}
}

// A drained Env keeps one goroutine per process still blocked and none for
// finished processes: idle coroutines are stopped when Run returns.
func TestDrainedEnvKeepsOnlyBlockedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	never := e.NewEvent("never")
	const blocked = 3
	for i := 0; i < blocked; i++ {
		e.Spawn("stuck", func(p *Proc) { p.Wait(never) })
	}
	for i := 0; i < 5; i++ {
		e.Spawn("done", func(p *Proc) {
			p.Sleep(Microsecond)
			e.Spawn("child", func(q *Proc) { q.Yield() })
		})
	}
	e.Run()
	if got := runtime.NumGoroutine() - before; got != blocked {
		t.Fatalf("%d goroutines left after Run, want %d (one per blocked process)", got, blocked)
	}
	if got := len(e.Deadlocked()); got != blocked {
		t.Fatalf("%d deadlocked, want %d", got, blocked)
	}
}

// runtime.Goexit in a process ends the goroutine that called Run too: the
// coroutine hand-off propagates it, as iter.Pull does.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEnv()
	e.Spawn("exiter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
}

// BenchmarkHandoff measures one ping-pong cycle between two processes
// waiting on each other's Events: two process switches per op.
func BenchmarkHandoff(b *testing.B) {
	e := NewEnv()
	ping, pong := e.NewEvent("ping"), e.NewEvent("pong")
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Trigger()
			p.Wait(pong)
			pong.Reset()
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(ping)
			ping.Reset()
			pong.Trigger()
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSelfResume measures a lone process's Sleep, whose own resume is
// always the next calendar entry.
func BenchmarkSelfResume(b *testing.B) {
	e := NewEnv()
	e.Spawn("lone", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawn measures spawning a process that runs to completion.
func BenchmarkSpawn(b *testing.B) {
	e := NewEnv()
	body := func(*Proc) {}
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Spawn("child", body)
			p.Yield()
		}
	})
	b.ResetTimer()
	e.Run()
}

package sim

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"
)

// dispatchLog records every scheduling decision the Observer sees, in order.
type dispatchLog struct{ w io.Writer }

func (l dispatchLog) SchedCallback(at Time)            { fmt.Fprintf(l.w, "%d cb\n", at) }
func (l dispatchLog) SchedResume(at Time, proc string) { fmt.Fprintf(l.w, "%d %s\n", at, proc) }

// randomMix runs a seeded, randomized mix of processes and callbacks —
// Sleep, Wait, WaitTimeout (timeouts that expire and timeouts that go stale
// when the event wins), Resource, OnFire, nested Spawn and several RunUntil
// cut points — and returns a hash of the dispatch sequence, the final clock
// and the processes left deadlocked.
func randomMix(seed int64) uint64 {
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	e.Observer = dispatchLog{h}

	evs := make([]*Event, 4)
	for i := range evs {
		evs[i] = e.NewEvent(fmt.Sprintf("ev%d", i))
	}
	res := e.NewResource("res", 1+rng.Intn(2))
	const horizon = Time(400 * Microsecond)

	// A ticker fires (and re-arms) a random event every few microseconds
	// until the horizon, so waiters are eventually woken.
	var tick func()
	tick = func() {
		ev := evs[rng.Intn(len(evs))]
		if ev.Fired() {
			ev.Reset()
		} else {
			ev.Trigger()
		}
		if e.Now() < horizon {
			e.After(Duration(1+rng.Intn(7))*Microsecond, tick)
		}
	}
	e.After(0, tick)

	var body func(depth int) func(p *Proc)
	body = func(depth int) func(p *Proc) {
		return func(p *Proc) {
			steps := 10 + rng.Intn(20)
			for s := 0; s < steps; s++ {
				switch op := rng.Intn(9); op {
				case 0:
					p.Sleep(Duration(rng.Intn(5)) * Microsecond)
				case 1:
					p.Yield()
				case 2:
					p.Wait(evs[rng.Intn(len(evs))])
				case 3:
					// Short timeout: often expires.
					p.WaitTimeout(evs[rng.Intn(len(evs))], Duration(1+rng.Intn(3))*Microsecond)
				case 4:
					// Long timeout: usually goes stale when the event wins.
					p.WaitTimeout(evs[rng.Intn(len(evs))], Duration(50+rng.Intn(50))*Microsecond)
				case 5:
					res.Acquire(p)
					p.Sleep(Duration(rng.Intn(3)) * Microsecond)
					res.Release()
				case 6:
					evs[rng.Intn(len(evs))].OnFire(func() {
						if rng.Intn(2) == 0 {
							e.After(Duration(rng.Intn(2))*Microsecond, func() {})
						}
					})
				case 7:
					if depth < 2 {
						e.Spawn(fmt.Sprintf("%s.%d", p.Name(), s), body(depth+1))
					}
				case 8:
					ev := evs[rng.Intn(len(evs))]
					if rng.Intn(2) == 0 {
						ev.Trigger()
					} else {
						ev.TriggerAfter(Duration(rng.Intn(4)) * Microsecond)
					}
				}
			}
		}
	}
	for i := 0; i < 6+rng.Intn(6); i++ {
		e.Spawn(fmt.Sprintf("p%d", i), body(0))
	}
	for cut := Time(0); cut < horizon; cut += Time(1+rng.Intn(60)) * Time(Microsecond) {
		e.RunUntil(cut)
		fmt.Fprintf(h, "cut %d\n", e.Now())
	}
	e.Run()
	fmt.Fprintf(h, "end %d %v\n", e.Now(), e.Deadlocked())
	return h.Sum64()
}

// TestDispatchOrderGolden pins the exact scheduling order of randomMix. The
// hashes were captured on the goroutine-per-process engine; any engine
// change must reproduce them bit for bit.
func TestDispatchOrderGolden(t *testing.T) {
	want := map[int64]uint64{
		1: 0x5d7a16832785e6aa,
		2: 0x336b3f73c7546198,
		3: 0x261b3075a67966f7,
		4: 0xeda68e4ae4972a09,
		5: 0xbe1abd3c310d1bfe,
		6: 0x248d8dddf5bfc3cc,
		7: 0xb86e859c3e5d39e2,
		8: 0x9b7d838d2ff83495,
	}
	for seed := int64(1); seed <= 8; seed++ {
		if got := randomMix(seed); got != want[seed] {
			t.Errorf("seed %d: dispatch hash %#x, want %#x", seed, got, want[seed])
		}
	}
}

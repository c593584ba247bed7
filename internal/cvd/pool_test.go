package cvd

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// poolRig is a driver VM with a worker pool serving two guest channels to
// the same test device — the smallest topology where the pool's fairness
// and per-channel ordering contracts are observable.
type poolRig struct {
	env     *sim.Env
	pool    *Pool
	driverK *kernel.Kernel
	guests  [2]*kernel.Kernel
	fes     [2]*Frontend
	bes     [2]*Backend
}

func newPoolRig(t *testing.T, workers, quantum int) *poolRig {
	t.Helper()
	env := sim.NewEnv()
	h := hv.New(env, 256<<20)
	driverVM, err := h.CreateVM("driver", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK := kernel.New("driver", kernel.Linux, env, driverVM.Space, driverVM.RAM)
	drv := &testDriver{k: driverK, wq: driverK.NewWaitQueue("testdrv")}
	driverK.RegisterDevice("/dev/testdev", drv, drv)
	pool := NewPool(driverK, workers, quantum)

	r := &poolRig{env: env, pool: pool, driverK: driverK}
	for i, name := range []string{"guest0", "guest1"} {
		vm, err := h.CreateVM(name, 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(name, kernel.Linux, env, vm.Space, vm.RAM)
		fe, be, err := Connect(Config{
			HV: h, GuestVM: vm, GuestK: k,
			DriverVM: driverVM, DriverK: driverK,
			DevicePath: "/dev/testdev", Pool: pool,
			Transport: Transport{Mode: Polling},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.guests[i], r.fes[i], r.bes[i] = k, fe, be
	}
	return r
}

// Per-channel FIFO: however many workers race over the queues, one
// channel's operations must be STARTED in post order — the same guarantee
// the thread-per-op dispatcher gives (it spawns handlers in slot-scan
// order). seq is the frontend's monotonic post counter, so the serve-order
// trace per backend must be strictly increasing.
func TestPoolPerChannelFIFO(t *testing.T) {
	r := newPoolRig(t, 3, 2)
	type serve struct {
		be  *Backend
		seq uint32
	}
	var serves []serve
	r.pool.onServe = func(b *Backend, seq uint32) {
		serves = append(serves, serve{b, seq})
	}

	for gi := 0; gi < 2; gi++ {
		gi := gi
		p, err := r.guests[gi].NewProcess("burst")
		if err != nil {
			t.Fatal(err)
		}
		// Several tasks per guest so posts from one channel overlap in the
		// ring while the pool is backed up.
		for ti := 0; ti < 3; ti++ {
			p.SpawnTask("t", func(tk *kernel.Task) {
				fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
				if err != nil {
					t.Error(err)
					return
				}
				buf, _ := p.Alloc(256)
				for n := 0; n < 20; n++ {
					if _, err := tk.Write(fd, buf, 256); err != nil {
						t.Error(err)
						return
					}
				}
				tk.Close(fd)
			})
		}
	}
	r.env.Run()

	if r.pool.Served == 0 {
		t.Fatal("pool served nothing — operations bypassed it")
	}
	last := map[*Backend]uint32{}
	for i, s := range serves {
		if prev, seen := last[s.be]; seen && s.seq <= prev {
			t.Fatalf("serve %d: channel %s seq %d after %d — per-channel FIFO broken",
				i, s.be.guestVM.Name, s.seq, prev)
		}
		last[s.be] = s.seq
	}
	if len(last) != 2 {
		t.Fatalf("served %d channels, want 2", len(last))
	}
}

// Deficit round-robin: with both channels backlogged and quantum q, the
// serve trace must never run more than q consecutive operations from one
// channel — the hot channel cannot monopolize the workers.
func TestPoolQuantumBound(t *testing.T) {
	const quantum = 2
	r := newPoolRig(t, 1, quantum) // one worker: the serve trace is the schedule
	var trace []*Backend
	r.pool.onServe = func(b *Backend, seq uint32) { trace = append(trace, b) }

	for gi := 0; gi < 2; gi++ {
		gi := gi
		p, err := r.guests[gi].NewProcess("flood")
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < 4; ti++ {
			p.SpawnTask("t", func(tk *kernel.Task) {
				fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
				if err != nil {
					t.Error(err)
					return
				}
				buf, _ := p.Alloc(64)
				for n := 0; n < 25; n++ {
					if _, err := tk.Write(fd, buf, 64); err != nil {
						t.Error(err)
						return
					}
				}
				tk.Close(fd)
			})
		}
	}
	r.env.Run()

	// Only the steady middle of the trace is load-bearing: while BOTH
	// channels hold backlog, runs are bounded by the quantum. (Head and
	// tail, where one channel hasn't started or has finished, are exempt —
	// DRR lets a lone channel run freely.)
	both := map[*Backend]bool{}
	firstBoth, lastBoth := -1, -1
	for i, b := range trace {
		both[b] = true
		if len(both) == 2 {
			if firstBoth < 0 {
				firstBoth = i
			}
			lastBoth = i
		}
	}
	if firstBoth < 0 {
		t.Fatal("trace never contains both channels")
	}
	run, maxRun := 0, 0
	for i := firstBoth; i < lastBoth; i++ {
		if i > firstBoth && trace[i] == trace[i-1] {
			run++
		} else {
			run = 1
		}
		if run > maxRun {
			maxRun = run
		}
	}
	// A channel's queue can drain mid-run and refill (pacing gaps), which
	// legally restarts its deficit; allow one extra quantum of slack but
	// catch monopolization.
	if maxRun > 2*quantum {
		t.Fatalf("max consecutive serves from one channel = %d, want <= %d (quantum %d)",
			maxRun, 2*quantum, quantum)
	}
	if r.pool.MaxDepth == 0 {
		t.Fatal("queues never backed up — the bound was not exercised")
	}
}

// Leave drops a departing channel's backlog and the stats stay coherent:
// everything enqueued is eventually served or dropped, never lost.
func TestPoolLeaveDropsBacklog(t *testing.T) {
	r := newPoolRig(t, 1, 1)
	p, err := r.guests[0].NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("t", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := p.Alloc(64)
		for n := 0; n < 10; n++ {
			tk.Write(fd, buf, 64)
		}
		tk.Close(fd)
	})
	r.env.Run()
	served := r.pool.Served

	// Stop the channel with operations never posted again: its queue must
	// be discarded, not served against a dead ring.
	r.bes[0].Stop()
	if r.bes[0].pool != nil {
		t.Fatal("stopped backend still attached to the pool")
	}
	r.env.Run()
	if r.pool.Served != served {
		t.Fatalf("pool served %d more ops after the channel left", r.pool.Served-served)
	}
	if got := r.pool.Enqueued - r.pool.Served - r.pool.Dropped; got != 0 {
		t.Fatalf("stats leak: enqueued %d != served %d + dropped %d",
			r.pool.Enqueued, r.pool.Served, r.pool.Dropped)
	}
}

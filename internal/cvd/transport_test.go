package cvd

import (
	"bytes"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// Every backend a channel ever gets must run the channel's Transport: the
// first one Connect builds, a Reconnect replacement after a driver-VM crash,
// and a CompleteHandover successor. Each path runs the same batched bulk
// workload on a channel with Adaptive mode, a coalescing window, a batch
// size, the map cache and a worker pool, and must behave the same: a
// successor missing any one of them (say, completion batching) shows up as
// different IRQ, polled-post, map-cache or pool counts.
func TestSuccessorInheritsTransport(t *testing.T) {
	const writers, writes, n = 8, 4, 4096
	var pool *Pool
	channel := func(c *Config) {
		c.CoalesceWindow = 50 * sim.Microsecond
		c.BatchSize = 8
		c.MapCache = true
		c.MapThreshold = 1
		pool = NewPool(c.DriverK, 2, 1)
		c.Pool = pool
	}
	// successor boots a second driver VM serving the test device, with its
	// own worker pool.
	successor := func(r *rig) (*hv.VM, *kernel.Kernel, *testDriver, *Pool) {
		vm, err := r.h.CreateVM("driver2", 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New("driver2", kernel.Linux, r.env, vm.Space, vm.RAM)
		drv := &testDriver{k: k, wq: k.NewWaitQueue("testdrv2")}
		k.RegisterDevice("/dev/testdev", drv, drv)
		return vm, k, drv, NewPool(k, 2, 1)
	}
	paths := []struct {
		name string
		bind func(r *rig) (*Backend, *testDriver, *Pool)
	}{
		{"connect", func(r *rig) (*Backend, *testDriver, *Pool) {
			return r.be, r.drv, pool
		}},
		{"reconnect", func(r *rig) (*Backend, *testDriver, *Pool) {
			r.be.Stop()
			vm, k, drv, pl := successor(r)
			be, err := Reconnect(r.fe, r.h, vm, k, "/dev/testdev", pl)
			if err != nil {
				t.Fatal(err)
			}
			return be, drv, pl
		}},
		{"handover", func(r *rig) (*Backend, *testDriver, *Pool) {
			vm, k, drv, pl := successor(r)
			prep, err := PrepareHandover(r.fe, r.h, vm, k)
			if err != nil {
				t.Fatal(err)
			}
			be, err := CompleteHandover(r.fe, prep, vm, k, "/dev/testdev", pl)
			if err != nil {
				t.Fatal(err)
			}
			r.be.Stop()
			return be, drv, pl
		}},
	}

	type behaviour struct {
		ops, respFlushes, polledPosts, mapHits, poolServed uint64
	}
	var want behaviour
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			r := newRig(t, Adaptive, kernel.Linux, channel)
			be, drv, pl := path.bind(r)

			msg := bytes.Repeat([]byte("bulk"), n/4)
			app, _ := r.guestK.NewProcess("app")
			for i := 0; i < writers; i++ {
				app.SpawnTask("writer", func(tk *kernel.Task) {
					fd, err := tk.Open("/dev/testdev", devfile.OWrOnly)
					if err != nil {
						t.Error(err)
						return
					}
					src, _ := app.AllocBytes(msg)
					for j := 0; j < writes; j++ {
						if _, err := tk.Write(fd, src, n); err != nil {
							t.Error(err)
							return
						}
					}
				})
			}
			r.env.Run()

			if len(drv.data) != writers*writes*n {
				t.Fatalf("driver received %d bytes, want %d", len(drv.data), writers*writes*n)
			}
			hits, _, _ := be.MapCacheStats()
			got := behaviour{be.OpsHandled, be.RespFlushes, be.PolledPosts, hits, pl.Served}
			if got.respFlushes == 0 || got.respFlushes >= got.ops {
				t.Errorf("%d response IRQ flushes for %d ops: completions did not share IRQs", got.respFlushes, got.ops)
			}
			if got.mapHits == 0 {
				t.Error("no map-cache hits: bulk transfers took the assisted copy")
			}
			if got.poolServed != got.ops {
				t.Errorf("pool served %d of %d ops: the channel did not join the pool", got.poolServed, got.ops)
			}
			if path.name == "connect" {
				want = got
			} else if got != want {
				t.Errorf("behaviour %+v, want the connect path's %+v", got, want)
			}
		})
	}
}

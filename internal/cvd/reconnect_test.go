package cvd

import (
	"bytes"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// The §8 restart scenario under load: the driver VM dies (injected via the
// fault plan) with a pile of operations in flight — some already running in
// driver handler threads, some still posted in the ring. Every issuer must
// unblock with EREMOTE (none may hang, none may see a fabricated success),
// and after Reconnect to a fresh driver VM the device works again.
func TestDriverVMDeathUnderLoadThenReconnect(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	plan := faults.New(1).FailAt("cvd.backend.die", 6)
	faults.Install(r.env, plan)
	defer faults.Uninstall(r.env)

	const nReaders = 12
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent("opened")
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		var err error
		fd, err = tk.Open("/dev/testdev", devfile.ORdOnly)
		if err != nil {
			t.Error(err)
		}
		opened.Trigger()
	})
	// Blocking reads on an empty device: each occupies a ring slot, and the
	// first few dispatched ones also block inside the driver on its wait
	// queue — both in-flight shapes the restart has to fail cleanly.
	results := make([]error, nReaders)
	done := make([]bool, nReaders)
	for i := 0; i < nReaders; i++ {
		i := i
		app.SpawnTask("reader", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			dst, _ := app.Alloc(16)
			_, results[i] = tk.Read(fd, dst, 16)
			done[i] = true
		})
	}

	r.env.RunUntil(r.env.Now().Add(20 * sim.Millisecond))
	if plan.Injected("cvd.backend.die") != 1 {
		t.Fatalf("backend death injected %d times, want 1", plan.Injected("cvd.backend.die"))
	}
	for i, d := range done {
		if d {
			t.Fatalf("reader %d returned (%v) before the restart", i, results[i])
		}
	}

	// Recovery: boot a fresh driver VM with a fresh driver and reconnect.
	faults.Uninstall(r.env)
	driverVM2, err := r.h.CreateVM("driver-restarted", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK2 := kernel.New("driver-restarted", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
	drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
	driverK2.RegisterDevice("/dev/testdev", drv2, drv2)
	r.be.Stop()
	if _, err := Reconnect(r.fe, r.h, driverVM2, driverK2, "/dev/testdev", nil); err != nil {
		t.Fatal(err)
	}
	r.env.Run()

	// Every issuer unblocked, every one with EREMOTE.
	for i, d := range done {
		if !d {
			t.Fatalf("reader %d still blocked after reconnect (deadlocked: %v)", i, r.env.Deadlocked())
		}
		if !kernel.IsErrno(results[i], kernel.EREMOTE) {
			t.Fatalf("reader %d got %v, want EREMOTE", i, results[i])
		}
	}

	// Service is restored: a fresh open against the new driver VM round-trips.
	var got []byte
	fresh, _ := r.guestK.NewProcess("fresh")
	fresh.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		msg := []byte("post-restart service")
		src, _ := fresh.AllocBytes(msg)
		if _, err := tk.Write(fd, src, len(msg)); err != nil {
			t.Error(err)
			return
		}
		dst, _ := fresh.Alloc(32)
		n, err := tk.Read(fd, dst, 32)
		if err != nil {
			t.Error(err)
			return
		}
		got = make([]byte, n)
		_ = fresh.Mem.Read(dst, got)
	})
	r.env.Run()
	if !bytes.Equal(got, []byte("post-restart service")) {
		t.Fatalf("post-restart read = %q", got)
	}
}

// A response interrupt lost in delivery leaves the waiter blocked on a slot
// the backend already completed; failInflight during Reconnect re-triggers
// done slots too, so the waiter unblocks with the REAL response, not
// EREMOTE.
func TestReconnectRecoversDroppedResponseIRQ(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	// Hits on hv.irq.drop: 1 = open's doorbell to the backend, 2 = open's
	// response, 3 = write's doorbell, 4 = write's response. Drop only the
	// write's response.
	faults.Install(r.env, faults.New(1).FailAt("hv.irq.drop", 4))
	defer faults.Uninstall(r.env)

	app, _ := r.guestK.NewProcess("app")
	var werr error
	var wn int
	wdone := false
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := app.AllocBytes([]byte("lost-irq"))
		wn, werr = tk.Write(fd, src, 8)
		wdone = true
	})
	r.env.RunUntil(r.env.Now().Add(20 * sim.Millisecond))
	if wdone {
		t.Fatalf("write returned (%d, %v) despite its response IRQ being dropped", wn, werr)
	}
	// The driver executed the write; only the completion signal was lost.
	if string(r.drv.data) != "lost-irq" {
		t.Fatalf("driver data = %q; the operation itself should have run", r.drv.data)
	}

	faults.Uninstall(r.env)
	driverVM2, err := r.h.CreateVM("driver-restarted", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK2 := kernel.New("driver-restarted", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
	drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
	driverK2.RegisterDevice("/dev/testdev", drv2, drv2)
	r.be.Stop()
	if _, err := Reconnect(r.fe, r.h, driverVM2, driverK2, "/dev/testdev", nil); err != nil {
		t.Fatal(err)
	}
	r.env.Run()
	if !wdone {
		t.Fatal("write still blocked after reconnect")
	}
	// The slot was already Done: the waiter gets the backend's real answer.
	if werr != nil || wn != 8 {
		t.Fatalf("write after recovery: n=%d err=%v, want n=8 err=nil", wn, werr)
	}
}

package cvd

// Tests for the CVD layer's driver-VM supervision primitives: the heartbeat
// ring no-op, per-request deadlines with abandoned-slot reclamation, the
// death-notification hooks, and the fail-fast paths (EREMOTE on a dead
// backend, ENODEV when degraded).

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

func TestHeartbeatRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Interrupts, Polling} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode, kernel.Linux)
			acks := 0
			r.env.Spawn("watchdog", func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					if r.fe.Heartbeat(p, sim.Millisecond) {
						acks++
					}
					p.Sleep(sim.Millisecond)
				}
			})
			r.env.RunUntil(r.env.Now().Add(20 * sim.Millisecond))
			if acks != 3 {
				t.Fatalf("acked %d/3 heartbeats", acks)
			}
			if r.be.HbAcked != 3 {
				t.Fatalf("backend HbAcked = %d, want 3", r.be.HbAcked)
			}
			// The probe is a ring no-op: no request slot, no round trip.
			if r.fe.RoundTrips != 0 {
				t.Fatalf("heartbeats consumed %d request round trips", r.fe.RoundTrips)
			}
			for s := 0; s < slotCount; s++ {
				if r.fe.ring.slotState(s) != slotFree {
					t.Fatalf("slot %d not free after heartbeats", s)
				}
			}
		})
	}
}

func TestHeartbeatDeadBackendFailsFast(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.be.Stop()
	var ok bool
	var took sim.Duration
	r.env.Spawn("watchdog", func(p *sim.Proc) {
		start := p.Now()
		ok = r.fe.Heartbeat(p, 10*sim.Millisecond)
		took = p.Now().Sub(start)
	})
	r.env.Run()
	if ok {
		t.Fatal("heartbeat to a stopped backend reported healthy")
	}
	if took >= 10*sim.Millisecond {
		t.Fatalf("dead-backend heartbeat burned the full timeout (%v)", took)
	}
}

func TestHeartbeatDropFault(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	plan := faults.New(1).FailAt("cvd.heartbeat.drop", 1)
	faults.Install(r.env, plan)
	defer faults.Uninstall(r.env)
	var first, second bool
	r.env.Spawn("watchdog", func(p *sim.Proc) {
		first = r.fe.Heartbeat(p, 200*sim.Microsecond)
		second = r.fe.Heartbeat(p, 200*sim.Microsecond)
	})
	r.env.RunUntil(r.env.Now().Add(10 * sim.Millisecond))
	if first {
		t.Fatal("dropped heartbeat reported as acked")
	}
	if !second {
		t.Fatal("heartbeat after the dropped one did not recover")
	}
	if r.be.HbDropped != 1 || r.be.HbAcked != 1 {
		t.Fatalf("HbDropped=%d HbAcked=%d, want 1/1", r.be.HbDropped, r.be.HbAcked)
	}
}

func TestHeartbeatDelayFault(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	// First beat delayed beyond its timeout (a miss), second delayed but
	// within it (slow-but-healthy).
	plan := faults.New(1).
		FailAtWith("cvd.heartbeat.delay", 1, uint64(500*sim.Microsecond)).
		FailAtWith("cvd.heartbeat.delay", 2, uint64(100*sim.Microsecond))
	faults.Install(r.env, plan)
	defer faults.Uninstall(r.env)
	var first, second bool
	r.env.Spawn("watchdog", func(p *sim.Proc) {
		first = r.fe.Heartbeat(p, 200*sim.Microsecond)
		p.Sleep(sim.Millisecond) // let the late ack land harmlessly
		second = r.fe.Heartbeat(p, 200*sim.Microsecond)
	})
	r.env.RunUntil(r.env.Now().Add(10 * sim.Millisecond))
	if first {
		t.Fatal("ack delayed past the timeout still reported healthy")
	}
	if !second {
		t.Fatal("ack delayed within the timeout reported as missed")
	}
}

func TestKillFiresDeathNotification(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	died := false
	r.be.OnDeath(func() { died = true })
	r.be.Kill()
	if !died {
		t.Fatal("Kill did not fire the death notification")
	}
	if r.be.Alive() {
		t.Fatal("killed backend still Alive")
	}
	// Registering on an already-dead backend fires immediately.
	late := false
	r.be.OnDeath(func() { late = true })
	if !late {
		t.Fatal("OnDeath on a dead backend did not fire immediately")
	}
}

func TestOrderlyStopDoesNotFireDeathNotification(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	died := false
	r.be.OnDeath(func() { died = true })
	r.be.Stop()
	if died {
		t.Fatal("orderly Stop fired the abnormal-death notification")
	}
}

func TestFastFailEREMOTEWhenBackendDead(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.be.Stop()
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		start := tk.Sim().Now()
		_, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if !kernel.IsErrno(err, kernel.EREMOTE) {
			t.Fatalf("open on dead backend: err = %v, want EREMOTE", err)
		}
		if took := tk.Sim().Now().Sub(start); took > 10*sim.Microsecond {
			t.Fatalf("fast-fail took %v; it must not enqueue and wait", took)
		}
	})
	if r.fe.FastFailed == 0 {
		t.Fatal("FastFailed stat not incremented")
	}
}

func TestDegradedFailsFastENODEV(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.fe.SetDegraded(true)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		if _, err := tk.Open("/dev/testdev", devfile.ORdWr); !kernel.IsErrno(err, kernel.ENODEV) {
			t.Fatalf("open on degraded device: err = %v, want ENODEV", err)
		}
		// A successful restart clears the flag and the device serves again.
		r.fe.SetDegraded(false)
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatalf("open after un-degrade: %v", err)
		}
		if err := tk.Close(fd); err != nil {
			t.Fatal(err)
		}
	})
	if !kernelStatOK(r.fe.FastFailed, 1) {
		t.Fatalf("FastFailed = %d, want >= 1", r.fe.FastFailed)
	}
}

func kernelStatOK(got uint64, min uint64) bool { return got >= min }

func TestRequestDeadlineTimesOutAndReclaims(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	const deadline = 2 * sim.Millisecond
	r.fe.SetDeadline(deadline)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		rbuf, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing to read: the handler blocks in the driver's wait queue
		// until the deadline fires on the frontend side.
		start := tk.Sim().Now()
		_, err = tk.Read(fd, rbuf, 16)
		if !kernel.IsErrno(err, kernel.ETIMEDOUT) {
			t.Fatalf("blocked read: err = %v, want ETIMEDOUT", err)
		}
		if took := tk.Sim().Now().Sub(start); took < deadline {
			t.Fatalf("read failed after %v, before the %v deadline", took, deadline)
		}

		// The abandoned handler is still parked in the driver. Feed it: it
		// wakes, consumes the bytes, and its late response (EFAULT — the
		// issuer's grant is gone) is discarded while the slot is reclaimed.
		payload := []byte("sixteen-bytes-ok")
		wsrc, err := p.AllocBytes(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Write(fd, wsrc, len(payload)); err != nil {
			t.Fatal(err)
		}
		// Fresh data for a fresh read, which must succeed normally.
		if _, err := tk.Write(fd, wsrc, len(payload)); err != nil {
			t.Fatal(err)
		}
		n, err := tk.Read(fd, rbuf, len(payload))
		if err != nil || n != len(payload) {
			t.Fatalf("read after reclaim: n=%d err=%v", n, err)
		}
		if err := tk.Close(fd); err != nil {
			t.Fatal(err)
		}
	})
	if r.fe.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1", r.fe.TimedOut)
	}
	// No slot leaked: everything is back to free.
	for s := 0; s < slotCount; s++ {
		if st := r.fe.ring.slotState(s); st != slotFree {
			t.Fatalf("slot %d leaked in state %d", s, st)
		}
		if r.fe.abandoned[s] {
			t.Fatalf("slot %d still marked abandoned", s)
		}
	}
}

func TestReconnectReclaimsAbandonedSlot(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.fe.SetDeadline(sim.Millisecond)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		rbuf, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Read(fd, rbuf, 16); !kernel.IsErrno(err, kernel.ETIMEDOUT) {
			t.Fatalf("err = %v, want ETIMEDOUT", err)
		}
		// The driver VM dies with the operation still abandoned in its
		// queue; the restart's failInflight sweep must reclaim the slot
		// without waking anyone (the issuer already left with ETIMEDOUT).
		r.be.Stop()
		driverVM2, err := r.h.CreateVM("driver2", 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		driverK2 := kernel.New("driver2", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
		drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
		driverK2.RegisterDevice("/dev/testdev", drv2, drv2)
		if _, err := Reconnect(r.fe, r.h, driverVM2, driverK2, "/dev/testdev", nil); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slotCount; s++ {
			if st := r.fe.ring.slotState(s); st != slotFree {
				t.Fatalf("slot %d not reclaimed by Reconnect (state %d)", s, st)
			}
		}
	})
}

package cvd

// Regression tests for three slot-state bugs on the timeout/reconnect paths:
//
//  1. a polled request bounded by the per-request deadline used to spin the
//     whole poll window before starting the deadline clock, overshooting the
//     deadline by the window (and the hdrFrontendPoll word must be balanced
//     on every exit of the spin);
//  2. a slot freed by the reconnect sweep without a response kept the trace
//     request ID in its sErrno bytes (the request-direction reuse), leaving a
//     stale RID where the next reader expects an errno;
//  3. a timed-out slot reclaimed and reposted in a new restart epoch could be
//     scribbled on by a handler thread of the pre-restart backend — one that
//     was never stopped because its driver VM was wedged, not dead;
//  4. the coalesced-doorbell flush closure captured the ARMING post's request
//     ID and kicked with it when the window expired, regardless of what had
//     happened to the slot in between: a slot that timed out and was
//     reclaimed inside the window produced a doorbell for nothing, and one
//     that was reclaimed and REPOSTED produced a doorbell attributed to the
//     stale RID instead of the slot's current occupant.

import (
	"bytes"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Bug 1: the polled wait must be bounded by the deadline. Pre-fix, a doomed
// request in polling mode burned the full 200 µs window with hdrFrontendPoll
// raised and only then armed the deadline timer, so it returned at
// window+deadline instead of the deadline.
func TestPollingTimeoutRespectsDeadlineExactly(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline sim.Duration
	}{
		{"deadline-above-window", sim.Millisecond},       // spin the window, then wait the rest
		{"deadline-below-window", 100 * sim.Microsecond}, // the spin itself is truncated
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Polling, kernel.Linux)
			r.fe.SetDeadline(tc.deadline)
			var took sim.Duration
			r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
				fd, err := tk.Open("/dev/testdev", devfile.ORdOnly)
				if err != nil {
					t.Fatal(err)
				}
				dst, _ := p.Alloc(16)
				// Nothing to read: the handler parks in the driver and the
				// request must fail at the deadline, not window+deadline.
				start := tk.Sim().Now()
				_, rerr := tk.Read(fd, dst, 16)
				took = tk.Sim().Now().Sub(start)
				if !kernel.IsErrno(rerr, kernel.ETIMEDOUT) {
					t.Fatalf("blocked polled read: %v, want ETIMEDOUT", rerr)
				}
			})
			if took < tc.deadline {
				t.Fatalf("timed out after %v, before the %v deadline", took, tc.deadline)
			}
			// Post/grant overhead is under a couple of microseconds; the
			// pre-fix overshoot was the whole 200 µs window.
			if slack := took - tc.deadline; slack > 20*sim.Microsecond {
				t.Fatalf("timed out %v late (took %v, deadline %v); the spin must count against the deadline",
					slack, took, tc.deadline)
			}
			// The abandon path must not leave the backend believing a
			// frontend is still spinning for responses.
			if w := r.fe.ring.readU32(hdrFrontendPoll); w != 0 {
				t.Fatalf("hdrFrontendPoll = %d after the timeout, want 0", w)
			}
			if r.fe.TimedOut != 1 {
				t.Fatalf("TimedOut = %d, want 1", r.fe.TimedOut)
			}
		})
	}
}

// Bug 2: with tracing on, the request's trace RID rides the slot's sErrno
// bytes frontend -> backend. A backend killed between slotRunning and
// completion never overwrites them; the reconnect sweep used to free the
// abandoned slot with the RID still in place. Every observed errno must be a
// real errno (ETIMEDOUT for the abandoned issuer, EREMOTE for the swept one),
// and every freed slot's errno word must read zero.
func TestReconnectSweepScrubsTraceRIDFromAbandonedSlots(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	tr := trace.New()
	trace.Install(r.env, tr)
	defer trace.Uninstall(r.env)
	r.fe.SetDeadline(sim.Millisecond)

	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent("opened")
	var fd int
	var err1, err2 error
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.ORdOnly)
		opened.Trigger()
	})
	// Reader 1 posts immediately: it times out at 1 ms and abandons its slot
	// while the handler is parked in the driver.
	app.SpawnTask("reader1", func(tk *kernel.Task) {
		tk.Sim().Wait(opened)
		dst, _ := app.Alloc(16)
		_, err1 = tk.Read(fd, dst, 16)
	})
	// Reader 2 posts at 1.5 ms: still inside its own deadline when the
	// backend is killed, so the sweep fails it with EREMOTE.
	app.SpawnTask("reader2", func(tk *kernel.Task) {
		tk.Sim().Wait(opened)
		tk.Sim().Sleep(1500 * sim.Microsecond)
		dst, _ := app.Alloc(16)
		_, err2 = tk.Read(fd, dst, 16)
	})
	// The driver VM dies at 2 ms with reader1's slot abandoned (slotRunning,
	// no response ever written) and reader2's in flight; then a fresh driver
	// VM reconnects.
	r.env.Spawn("supervisor", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		r.be.Kill()
		driverVM2, err := r.h.CreateVM("driver2", 32<<20)
		if err != nil {
			t.Error(err)
			return
		}
		driverK2 := kernel.New("driver2", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
		drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
		driverK2.RegisterDevice("/dev/testdev", drv2, drv2)
		if _, err := Reconnect(r.fe, r.h, driverVM2, driverK2, "/dev/testdev", nil); err != nil {
			t.Error(err)
		}
	})
	r.env.RunUntil(r.env.Now().Add(20 * sim.Millisecond))

	if !kernel.IsErrno(err1, kernel.ETIMEDOUT) {
		t.Fatalf("reader1: %v, want ETIMEDOUT", err1)
	}
	if !kernel.IsErrno(err2, kernel.EREMOTE) {
		t.Fatalf("reader2: %v, want EREMOTE (a real errno, never a request ID)", err2)
	}
	// Every slot is free AND scrubbed: a raw errno word still holding a trace
	// RID is exactly the bug — the next reader of the slot would surface it
	// as an errno.
	for s := 0; s < slotCount; s++ {
		if st := r.fe.ring.slotState(s); st != slotFree {
			t.Fatalf("slot %d in state %d after the sweep, want free", s, st)
		}
		if raw := r.fe.ring.readU32(slotOff(s) + sErrno); raw != 0 {
			t.Fatalf("slot %d freed with errno word = %d (a stale trace RID)", s, raw)
		}
	}
}

// Bug 3: the wedged-VM interleaving. A request times out and its slot is
// abandoned; the watchdog declares the driver VM wedged and reconnects
// WITHOUT stopping the old backend (a wedged VM cannot be stopped — that is
// the §8 false-positive case); the sweep reclaims the slot and a new-epoch
// request reposts it. When the old backend's handler thread finally wakes, it
// still holds the slot index — the restart-epoch guard must make it discard
// its response instead of scribbling over the new owner's slot.
func TestEpochGuardDiscardsWedgedBackendLateResponse(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.fe.SetDeadline(sim.Millisecond)

	app, _ := r.guestK.NewProcess("app")
	reposted := r.env.NewEvent("reposted")
	var readErr, werr error
	var wn int
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		dst, _ := app.Alloc(64)
		// The read's handler parks in the wedged driver's wait queue; the
		// issuer abandons the slot at the 1 ms deadline.
		_, readErr = tk.Read(fd, dst, 16)

		// Watchdog verdict: wedged. Reconnect to a fresh driver VM without
		// stopping the old backend — its dispatcher and the parked handler
		// thread are still alive in the old driver VM.
		driverVM2, err := r.h.CreateVM("driver2", 32<<20)
		if err != nil {
			t.Error(err)
			return
		}
		driverK2 := kernel.New("driver2", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
		drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
		driverK2.RegisterDevice("/dev/testdev", drv2, drv2)
		if _, err := Reconnect(r.fe, r.h, driverVM2, driverK2, "/dev/testdev", nil); err != nil {
			t.Error(err)
			return
		}

		// New epoch: reopen and repost into the reclaimed slot.
		fd2, err := tk.Open("/dev/testdev", devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := app.AllocBytes([]byte("seven b"))
		wn, werr = tk.Write(fd2, src, 7)
		reposted.Trigger()
	})

	// Only after the slot has been reclaimed and reused: feed the wedged
	// driver so its parked handler thread wakes and tries to complete the
	// long-abandoned read.
	feeder, _ := r.driverK.NewProcess("feeder")
	feeder.SpawnTask("w", func(tk *kernel.Task) {
		tk.Sim().Wait(reposted)
		tk.Sim().Sleep(sim.Millisecond)
		fd, _ := tk.Open("/dev/testdev", devfile.OWrOnly)
		src, _ := feeder.AllocBytes(bytes.Repeat([]byte{7}, 16))
		if _, err := tk.Write(fd, src, 16); err != nil {
			t.Error(err)
		}
	})
	r.env.RunUntil(r.env.Now().Add(50 * sim.Millisecond))

	if !kernel.IsErrno(readErr, kernel.ETIMEDOUT) {
		t.Fatalf("abandoned read: %v, want ETIMEDOUT", readErr)
	}
	if werr != nil || wn != 7 {
		t.Fatalf("new-epoch write: n=%d err=%v, want 7/nil", wn, werr)
	}
	// The late handler's response was discarded: no slot is stuck in
	// slotDone (or any other state) from a backend that no longer owns the
	// ring.
	for s := 0; s < slotCount; s++ {
		if st := r.fe.ring.slotState(s); st != slotFree {
			t.Fatalf("slot %d left in state %d by the wedged backend's late handler", s, st)
		}
	}
}

// Bug 4a: a coalesced flush whose entire pending set retired inside the
// window must ring nothing. Pre-fix, the flush closure captured the arming
// post's RID and kicked unconditionally when the window expired — a doorbell
// for a slot that timed out and was reclaimed, waking the backend for
// nothing and attributing the kick to a request that had already failed out.
func TestOrphanedCoalescedFlushDoesNotRing(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 50 * sim.Microsecond
	})
	r.env.Spawn("whitebox", func(p *sim.Proc) {
		slot, ok := r.fe.allocSlot()
		if !ok {
			t.Error("no free slot")
			return
		}
		// Post and arm the flush timer, then reclaim the slot inside the
		// window — the interleaving scanDone produces when the issuer timed
		// out, abandoned the slot, and the late response arrived before the
		// flush fired.
		r.fe.ring.writeRequest(slot, request{op: opNone, rid: 11})
		r.fe.postDoorbell(11, slot)
		r.fe.ring.recycleSlot(slot)
		p.Sleep(200 * sim.Microsecond) // well past the window
	})
	r.env.RunUntil(sim.Time(sim.Millisecond))
	if r.fe.DoorbellIRQs != 0 {
		t.Fatalf("DoorbellIRQs = %d, want 0: the flush's only slot retired inside the window", r.fe.DoorbellIRQs)
	}
	if r.fe.BatchFlushes != 0 {
		t.Fatalf("BatchFlushes = %d, want 0", r.fe.BatchFlushes)
	}
	// Nothing may have been scribbled into the submission descriptor either.
	if n := r.fe.ring.readU32(hdrSubCount); n != 0 {
		t.Fatalf("hdrSubCount = %d after an empty flush, want 0", n)
	}
	for w := 0; w < bitmapWords; w++ {
		if bits := r.fe.ring.readU32(hdrSubBits + 4*w); bits != 0 {
			t.Fatalf("hdrSubBits word %d = %#x after an empty flush, want 0", w, bits)
		}
	}
}

// Bug 4b: a slot reclaimed and REPOSTED inside the window is a live request
// again — the flush must ring for it, attributed to the slot's CURRENT
// request ID, not the stale RID of the post that armed the timer. The kick's
// attribution is observable through the poll-cross trace span: with the
// backend-poll word raised, kickBackend records the crossing with the RID it
// was handed.
func TestCoalescedFlushAttributesCurrentRID(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 50 * sim.Microsecond
	})
	tr := trace.New()
	trace.Install(r.env, tr)
	defer trace.Uninstall(r.env)
	r.env.Spawn("whitebox", func(p *sim.Proc) {
		slot, ok := r.fe.allocSlot()
		if !ok {
			t.Error("no free slot")
			return
		}
		// RID 11 posts and arms the flush; its request times out, the slot is
		// reclaimed, and RID 22 reposts the SAME slot inside the window.
		r.fe.ring.writeRequest(slot, request{op: opNone, rid: 11})
		r.fe.postDoorbell(11, slot)
		r.fe.ring.recycleSlot(slot)
		r.fe.ring.writeRequest(slot, request{op: opNone, rid: 22})
		r.fe.postDoorbell(22, slot)
		// Raise the backend-poll word so the flush's kick takes the traced
		// poll-cross path, making its RID attribution observable.
		r.fe.ring.writeU32(hdrBackendPoll, 1)
		p.Sleep(200 * sim.Microsecond)
	})
	r.env.RunUntil(sim.Time(sim.Millisecond))
	if r.fe.BatchFlushes != 1 {
		t.Fatalf("BatchFlushes = %d, want 1 (the reposted slot is live)", r.fe.BatchFlushes)
	}
	var kicks []uint64
	for _, e := range tr.Events() {
		if e.Name == "poll-cross" && e.Layer == trace.LayerIRQ && e.VM == r.driverVM.Name {
			kicks = append(kicks, e.RID)
		}
	}
	if len(kicks) != 1 {
		t.Fatalf("doorbell poll-cross spans = %d, want exactly 1 (one flush, one kick)", len(kicks))
	}
	if kicks[0] != 22 {
		t.Fatalf("flush kicked with RID %d, want 22 (the slot's current occupant, not the stale armer)", kicks[0])
	}
}

package cvd

// Tests for the bulk-transfer fast path: the backend's grant-map cache and
// frontend doorbell coalescing. Invalidation (revoke, release, reconnect) and
// the hostile revoke-while-mapped case live here too — the fast path must
// fault exactly where the per-request assisted copy would, never read stale
// memory.

import (
	"bytes"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/grant"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// withMapCache enables the fast path for every transfer size.
func withMapCache(threshold int) func(*Config) {
	return func(c *Config) {
		c.MapCache = true
		c.MapThreshold = threshold
	}
}

func TestMapCacheAmortizesRepeatedTransfers(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(1))
	msg := bytes.Repeat([]byte("paradice!"), 400) // 3600 bytes, crosses pages
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := p.AllocBytes(msg)
		dst, _ := p.Alloc(len(msg))
		for i := 0; i < 5; i++ {
			if n, err := tk.Write(fd, src, len(msg)); err != nil || n != len(msg) {
				t.Fatalf("write %d: n=%d err=%v", i, n, err)
			}
			n, err := tk.Read(fd, dst, len(msg))
			if err != nil || n != len(msg) {
				t.Fatalf("read %d: n=%d err=%v", i, n, err)
			}
			got := make([]byte, n)
			if err := p.Mem.Read(dst, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("iteration %d: data corrupted through the map cache", i)
			}
		}
	})
	hits, misses, _ := r.be.MapCacheStats()
	// One mapping per direction, established on the first write and the first
	// read; everything after is a hit.
	if misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per direction)", misses)
	}
	if hits != 8 {
		t.Fatalf("hits = %d, want 8 (4 repeat writes + 4 repeat reads)", hits)
	}
}

func TestMapCacheBelowThresholdUsesAssistedCopy(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(DefaultMapThreshold))
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		src, _ := p.AllocBytes(bytes.Repeat([]byte{0xAB}, 64))
		for i := 0; i < 10; i++ {
			if _, err := tk.Write(fd, src, 64); err != nil {
				t.Fatal(err)
			}
		}
	})
	hits, misses, _ := r.be.MapCacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("64-byte transfers touched the map cache (hits=%d misses=%d); threshold is %d",
			hits, misses, DefaultMapThreshold)
	}
}

func TestMapCacheInvalidatesOnBufferChange(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(1))
	const n = 4096
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		bufA, _ := p.AllocBytes(bytes.Repeat([]byte{1}, n))
		bufB, _ := p.AllocBytes(bytes.Repeat([]byte{2}, n))
		if _, err := tk.Write(fd, bufA, n); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Write(fd, bufA, n); err != nil {
			t.Fatal(err)
		}
		// The app switches buffers: the frontend revokes bufA's bulk grant
		// (tearing the cached mapping down through OnRevoke) and declares a
		// fresh one, so the next request misses and re-maps.
		if _, err := tk.Write(fd, bufB, n); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Write(fd, bufB, n); err != nil {
			t.Fatal(err)
		}
	})
	hits, misses, invals := r.be.MapCacheStats()
	if misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per buffer)", misses)
	}
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if invals < 1 {
		t.Fatalf("invalidations = %d, want >= 1 (bufA's revoke must tear its mapping down)", invals)
	}
	if string(r.drv.data[:n]) != string(bytes.Repeat([]byte{1}, n)) {
		t.Fatal("bufA data corrupted")
	}
}

func TestMapCacheInvalidatesOnRelease(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(1))
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		src, _ := p.AllocBytes(bytes.Repeat([]byte{3}, 4096))
		if _, err := tk.Write(fd, src, 4096); err != nil {
			t.Fatal(err)
		}
		if err := tk.Close(fd); err != nil {
			t.Fatal(err)
		}
	})
	_, _, invals := r.be.MapCacheStats()
	if invals < 1 {
		t.Fatalf("invalidations = %d; closing the file must drop its cached mapping", invals)
	}
	// The frontend's bulk-grant bookkeeping is empty too: nothing keeps the
	// released file's buffer granted.
	if len(r.fe.bulk) != 0 {
		t.Fatalf("%d bulk grants survive the release", len(r.fe.bulk))
	}
}

// The hostile case: a grant is revoked while the backend's cached mapping of
// it is live. The revocation must destroy the mapping's driver-EPT entries in
// the same instant — a later access through the stale mapping (or a request
// reusing the revoked reference) must fault, never silently read guest memory
// the grant no longer covers.
func TestMapCacheRevokedWhileMappedFaults(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(1))
	const n = 4096
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		src, _ := p.AllocBytes(bytes.Repeat([]byte{7}, n))
		if _, err := tk.Write(fd, src, n); err != nil {
			t.Fatal(err)
		}
		// Grab the live mapping the first write established, then revoke its
		// grant out from under the cache (a malicious or confused guest can
		// revoke whenever it likes).
		key := mapKey{fileID: 0, kind: grant.KindCopyFrom}
		m := r.be.mapc.entries[key]
		if m == nil {
			t.Fatal("no cached mapping after the first hinted write")
		}
		bg := r.fe.bulk[bulkKey{fileID: 0, kind: grant.KindCopyFrom}]
		if bg.ref == 0 {
			t.Fatal("no live bulk grant after the first hinted write")
		}
		if err := r.fe.grants.Revoke(bg.ref); err != nil {
			t.Fatal(err)
		}
		// The OnRevoke subscription tore the mapping down synchronously.
		if !m.Dead() {
			t.Fatal("cached mapping still alive after its grant was revoked")
		}
		if err := m.Copy(src, make([]byte, 16), false); err == nil {
			t.Fatal("access through the revoked mapping did not fault")
		}
		// A request still riding the revoked reference faults at re-map
		// (grant validation), surfacing EFAULT — not stale data.
		if _, err := tk.Write(fd, src, n); !kernel.IsErrno(err, kernel.EFAULT) {
			t.Fatalf("write under revoked grant: %v, want EFAULT", err)
		}
	})
	_, _, invals := r.be.MapCacheStats()
	if invals < 1 {
		t.Fatalf("invalidations = %d, want >= 1", invals)
	}
}

func TestMapCacheColdAfterReconnect(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(1))
	const n = 4096
	app, _ := r.guestK.NewProcess("app")
	var fd int
	msg := bytes.Repeat([]byte{9}, n)
	app.SpawnTask("warm", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.ORdWr)
		src, _ := app.AllocBytes(msg)
		for i := 0; i < 3; i++ {
			if _, err := tk.Write(fd, src, n); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.env.Run()
	if hits, misses, _ := r.be.MapCacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("warm-up: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Driver VM restart: the successor backend must start with a cold cache
	// (its EPT has none of the old mappings) and rebuild on first use.
	r.be.Stop()
	driverVM2, err := r.h.CreateVM("driver2", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK2 := kernel.New("driver2", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
	drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
	driverK2.RegisterDevice("/dev/testdev", drv2, drv2)
	be2, err := Reconnect(r.fe, r.h, driverVM2, driverK2, "/dev/testdev", nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, m, i := be2.MapCacheStats(); h != 0 || m != 0 || i != 0 {
		t.Fatalf("successor backend's cache not cold: %d/%d/%d", h, m, i)
	}

	fresh, _ := r.guestK.NewProcess("fresh")
	fresh.SpawnTask("main", func(tk *kernel.Task) {
		fd2, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := fresh.AllocBytes(msg)
		for i := 0; i < 3; i++ {
			if _, err := tk.Write(fd2, src, n); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.env.Run()
	if hits, misses, _ := be2.MapCacheStats(); misses != 1 || hits != 2 {
		t.Fatalf("post-restart: hits=%d misses=%d, want 2/1 (cold start, then amortize)", hits, misses)
	}
	if !bytes.Equal(drv2.data, bytes.Repeat(msg, 3)) {
		t.Fatal("post-restart data corrupted")
	}
}

func TestCoalescedDoorbellSharesOneIRQ(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 50 * sim.Microsecond
	})
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent("opened")
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.OWrOnly)
		opened.Trigger()
	})
	const writers = 8
	for i := 0; i < writers; i++ {
		i := i
		app.SpawnTask("writer", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			src, _ := app.AllocBytes([]byte{byte('A' + i)})
			if _, err := tk.Write(fd, src, 1); err != nil {
				t.Error(err)
			}
		})
	}
	r.env.Run()
	// The open rings its own doorbell; the 8 near-simultaneous writes share
	// exactly one more.
	if r.fe.DoorbellIRQs != 2 {
		t.Fatalf("DoorbellIRQs = %d, want 2 (open + one coalesced flush)", r.fe.DoorbellIRQs)
	}
	if r.fe.CoalescedKicks != writers-1 {
		t.Fatalf("CoalescedKicks = %d, want %d", r.fe.CoalescedKicks, writers-1)
	}
	if r.be.WakeIRQs != 2 {
		t.Fatalf("backend WakeIRQs = %d, want 2", r.be.WakeIRQs)
	}
	// Coalescing batches notification, not execution: FIFO order holds.
	if string(r.drv.data) != "ABCDEFGH" {
		t.Fatalf("driver saw order %q, want ABCDEFGH", r.drv.data)
	}
}

func TestCoalescingLeavesPollingPathAlone(t *testing.T) {
	r := newRig(t, Polling, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 50 * sim.Microsecond
	})
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.OWrOnly)
		src, _ := p.AllocBytes([]byte("poll"))
		for i := 0; i < 4; i++ {
			if _, err := tk.Write(fd, src, 4); err != nil {
				t.Fatal(err)
			}
		}
	})
	if r.fe.CoalescedKicks != 0 {
		t.Fatalf("CoalescedKicks = %d in polling mode, want 0", r.fe.CoalescedKicks)
	}
	if r.be.PolledPosts == 0 {
		t.Fatal("polling mode never hit the polled fast path under coalescing config")
	}
}

// A doorbell flush that fires after its backend died must not ring: the
// reconnect sweep already failed everything, and the successor's doorbell is
// not the flush's to ring.
func TestCoalescedFlushAfterBackendDeathIsDropped(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 100 * sim.Microsecond
	})
	r.fe.SetDeadline(2 * sim.Millisecond)
	app, _ := r.guestK.NewProcess("app")
	openDone := r.env.NewEvent("open-done")
	var werr error
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		openDone.Trigger()
		src, _ := app.AllocBytes([]byte("x"))
		_, werr = tk.Write(fd, src, 1)
	})
	// Kill the backend inside the write's coalescing window: the flush timer
	// is armed but the doorbell owner is gone.
	var irqsAfterOpen uint64
	r.env.Spawn("killer", func(p *sim.Proc) {
		p.Wait(openDone)
		irqsAfterOpen = r.fe.DoorbellIRQs
		p.Sleep(20 * sim.Microsecond) // the write posted within ~2µs; its flush is ~100µs out
		r.be.Kill()
	})
	r.env.RunUntil(r.env.Now().Add(20 * sim.Millisecond))
	if !kernel.IsErrno(werr, kernel.ETIMEDOUT) {
		t.Fatalf("write against a killed backend: %v, want ETIMEDOUT", werr)
	}
	if r.fe.DoorbellIRQs != irqsAfterOpen {
		t.Fatalf("DoorbellIRQs went %d -> %d; the orphaned flush must not ring",
			irqsAfterOpen, r.fe.DoorbellIRQs)
	}
}

// A flush armed before BeginDrain whose pending set retired during the drain
// must not ring the predecessor's doorbell mid-switch. The drain itself does
// not drop flushes — a flush with slots still posted MUST ring, or the
// quiesce would never see the ring empty — but a flush with nothing left to
// announce has no business waking the predecessor or scribbling submission
// descriptor words into a ring that is about to change owners. After the
// switch commits, the successor's channel must work normally.
func TestCoalescedFlushAcrossHandoverDrainIsDropped(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 100 * sim.Microsecond
	})
	// The successor driver VM, booted and ready before the drain begins.
	driverVM2, err := r.h.CreateVM("driver2", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK2 := kernel.New("driver2", kernel.Linux, r.env, driverVM2.Space, driverVM2.RAM)
	drv2 := &testDriver{k: driverK2, wq: driverK2.NewWaitQueue("testdrv2")}
	driverK2.RegisterDevice("/dev/testdev", drv2, drv2)

	var irqsAtDrain uint64
	var be2 *Backend
	r.env.Spawn("handover", func(p *sim.Proc) {
		// A post arms the flush timer, then retires inside the window — the
		// backend picked it up off another wake and completed it, and the
		// issuer collected the response (white-box: recycle directly).
		slot, ok := r.fe.allocSlot()
		if !ok {
			t.Error("no free slot")
			return
		}
		r.fe.ring.writeRequest(slot, request{op: opNone, rid: 11})
		r.fe.postDoorbell(11, slot)
		r.fe.ring.recycleSlot(slot)

		// Planned handover starts inside the flush window: drain, prepare the
		// successor, and let the armed flush fire mid-drain.
		r.fe.BeginDrain(0)
		irqsAtDrain = r.fe.DoorbellIRQs
		prep, err := PrepareHandover(r.fe, r.h, driverVM2, driverK2)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(150 * sim.Microsecond) // the 100 µs flush fires during the drain
		if r.fe.DoorbellIRQs != irqsAtDrain {
			t.Errorf("DoorbellIRQs went %d -> %d during the drain; the empty flush must not ring",
				irqsAtDrain, r.fe.DoorbellIRQs)
		}
		if n := r.fe.ring.readU32(hdrSubCount); n != 0 {
			t.Errorf("hdrSubCount = %d mid-switch, want 0 (no descriptor scribbled)", n)
		}
		be2, err = CompleteHandover(r.fe, prep, driverVM2, driverK2, "/dev/testdev", nil)
		if err != nil {
			t.Error(err)
			return
		}
		r.fe.EndDrain()
	})
	r.env.RunUntil(sim.Time(sim.Millisecond))
	if be2 == nil {
		t.Fatal("handover never completed")
	}

	// The successor's channel batches and completes normally.
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.OWrOnly)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := p.AllocBytes([]byte("ok"))
		if _, err := tk.Write(fd, src, 2); err != nil {
			t.Fatal(err)
		}
	})
	if string(drv2.data) != "ok" {
		t.Fatalf("successor driver saw %q, want %q", drv2.data, "ok")
	}
}

package cvd

import (
	"testing"
	"testing/quick"

	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// A malicious guest does not have to use the CVD frontend at all: it can
// scribble anything into the shared ring page. The backend must survive
// arbitrary garbage — returning errors, never crashing, never executing an
// operation on a file the guest does not hold.

// hostilePost writes a raw request into the ring from "guest userspace"
// (really: directly through the guest's view of the shared page, which is
// exactly what a compromised guest kernel could do).
func hostilePost(r *rig, slot int, op uint8, fileID uint16, ref uint32, a0, a1, a2 uint64) {
	pg := r.fe.ring
	pg.writeRequest(slot, request{
		slot: slot, op: op, fileID: fileID, ref: ref,
		seq: r.fe.nextSeq, arg0: a0, arg1: a1, arg2: a2,
	})
	r.fe.nextSeq++
	r.h.SendInterrupt(r.driverVM, r.fe.vecToBackend)
}

func TestHostileRingGarbageSurvives(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	f := func(op uint8, fileID uint16, ref uint32, a0, a1, a2 uint64) bool {
		hostilePost(r, 3, op, fileID, ref, a0, a1, a2)
		r.env.RunUntil(r.env.Now().Add(sim.Duration(sim.Millisecond)))
		// The backend either completed the slot with an error or is
		// legitimately blocked (a blocking op); either way the machine is
		// alive: a well-formed operation still works.
		pg := r.fe.ring
		if pg.slotState(3) == slotDone {
			pg.setSlotState(3, slotFree)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// After the storm, a real application still gets service.
	app, _ := r.guestK.NewProcess("app")
	ok := false
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
			t.Error(err)
			return
		}
		ok = true
	})
	r.env.Run()
	if !ok {
		t.Fatal("machine unusable after hostile ring garbage")
	}
}

// Forged file IDs: operations on handles the guest never opened fail with
// EINVAL rather than touching another channel's files.
func TestHostileForgedFileID(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	hostilePost(r, 5, opRead, 999, 0, 0x40000000, 64, 0)
	r.env.RunUntil(r.env.Now().Add(sim.Duration(sim.Millisecond)))
	pg := r.fe.ring
	if pg.slotState(5) != slotDone {
		t.Fatal("backend did not answer the forged request")
	}
	ret, errno := pg.readResponse(5)
	if ret != -1 || kernel.Errno(errno) != kernel.EINVAL {
		t.Fatalf("forged fileID: ret=%d errno=%d, want -1/EINVAL", ret, errno)
	}
}

// Forged grant references on a real file: the driver's memory operations
// are refused by the hypervisor and the operation fails cleanly.
func TestHostileForgedGrantRef(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	// Open legitimately to obtain fileID 0.
	app, _ := r.guestK.NewProcess("app")
	app.SpawnTask("main", func(tk *kernel.Task) {
		if _, err := tk.Open("/dev/testdev", devfile.ORdWr); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	// Write with a grant ref the guest never declared.
	hostilePost(r, 7, opWrite, 0, 0xDEAD, 0x40000000, 32, 0)
	r.env.RunUntil(r.env.Now().Add(sim.Duration(sim.Millisecond)))
	pg := r.fe.ring
	ret, errno := pg.readResponse(7)
	if pg.slotState(7) != slotDone || kernel.Errno(errno) != kernel.EFAULT {
		t.Fatalf("forged ref write: state=%d ret=%d errno=%d, want EFAULT", pg.slotState(7), ret, errno)
	}
}

// Seeded storm of raw byte scribbles over the entire ring page — header,
// slot states, opcodes, sequence numbers, everything — interleaved with
// doorbell kicks. Unlike the structured forgeries above, this drives the
// backend through arbitrary byte-level states. The corruption stream comes
// from a fault plan's deterministic rng, so a failure reproduces from the
// printed seed.
func TestHostileRandomRingCorruption(t *testing.T) {
	const seed = 0xC0DE
	r := newRig(t, Interrupts, kernel.Linux)
	plan := faults.New(seed)
	faults.Install(r.env, plan)
	defer faults.Uninstall(r.env)
	rng := plan.Rand()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("backend crashed under ring corruption (seed %#x): %v", seed, p)
		}
	}()
	const pageBytes = hdrSize + slotCount*slotSize
	for round := 0; round < 200; round++ {
		buf := make([]byte, 1+rng.Intn(16))
		rng.Read(buf)
		off := rng.Intn(pageBytes - len(buf))
		pg, err := r.fe.ring.acc.Page(mem.PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		copy(pg[off:], buf)
		r.h.SendInterrupt(r.driverVM, r.fe.vecToBackend)
		r.env.RunUntil(r.env.Now().Add(200 * sim.Microsecond))
	}
	r.env.RunUntil(r.env.Now().Add(5 * sim.Millisecond))

	// The guest corrupted only its own channel. Scrub the page (the state a
	// rebooted guest channel would present) and demand service.
	pg, err := r.fe.ring.acc.Page(mem.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg[:], make([]byte, pageBytes))
	app, _ := r.guestK.NewProcess("app")
	ok := false
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
			t.Error(err)
			return
		}
		ok = true
	})
	r.env.Run()
	if !ok {
		t.Fatalf("machine unusable after seeded ring corruption (seed %#x)", seed)
	}
}

// An unknown opcode gets ENOSYS.
func TestHostileUnknownOpcode(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	app, _ := r.guestK.NewProcess("app")
	app.SpawnTask("main", func(tk *kernel.Task) {
		_, _ = tk.Open("/dev/testdev", devfile.ORdWr)
	})
	r.env.Run()
	hostilePost(r, 9, 200, 0, 0, 0, 0, 0)
	r.env.RunUntil(r.env.Now().Add(sim.Duration(sim.Millisecond)))
	_, errno := r.fe.ring.readResponse(9)
	if kernel.Errno(errno) != kernel.ENOSYS {
		t.Fatalf("unknown op errno = %d, want ENOSYS", errno)
	}
}

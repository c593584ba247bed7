package cvd

// The ring is decoded in place: every page method translates the shared
// frame once through the VM's EPT and reads or writes the words directly,
// so the hot scans allocate nothing. These tests pin that on a real
// GuestSpace-backed ring, and pin that the per-access EPT check survived.

import (
	"strings"
	"testing"

	"paradice/internal/grant"
	"paradice/internal/kernel"
	"paradice/internal/mem"
)

// postedRig returns a rig whose ring holds posted requests in slots 3, 17,
// 42 and 99, with slot 42 the oldest by sequence number.
func postedRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, Interrupts, kernel.Linux)
	for i, s := range []int{3, 17, 42, 99} {
		r.fe.ring.writeRequest(s, request{op: opIoctl, seq: uint32(50 - 10*(i%3)), arg0: uint64(s)})
	}
	return r
}

func requireNoAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Fatalf("%s allocates %v objects per call, want 0", what, n)
	}
}

func TestOldestPostedAllocatesNothing(t *testing.T) {
	r := postedRig(t)
	if s, ok := r.be.oldestPosted(); !ok || s != 42 {
		t.Fatalf("oldestPosted = %d, %v; want slot 42", s, ok)
	}
	requireNoAllocs(t, "oldestPosted", func() { r.be.oldestPosted() })
}

func TestAllocRecycleSlotAllocatesNothing(t *testing.T) {
	r := postedRig(t)
	requireNoAllocs(t, "allocSlot+recycleSlot", func() {
		s, ok := r.fe.allocSlot()
		if !ok {
			panic("ring full")
		}
		r.fe.ring.recycleSlot(s)
	})
}

func TestOccupancyAllocatesNothing(t *testing.T) {
	r := postedRig(t)
	if n := r.fe.Occupancy(); n != 4 {
		t.Fatalf("Occupancy = %d, want 4", n)
	}
	requireNoAllocs(t, "Occupancy", func() { r.fe.Occupancy() })
}

func TestReadRequestAllocatesNothing(t *testing.T) {
	r := postedRig(t)
	// The backend reads through the driver VM's own mapping of the page.
	if req := r.be.ring.readRequest(17); req.op != opIoctl || req.arg0 != 17 {
		t.Fatalf("readRequest(17) = %+v", req)
	}
	requireNoAllocs(t, "readRequest", func() { r.be.ring.readRequest(17) })
}

func TestScanDoneAllocatesNothing(t *testing.T) {
	r := postedRig(t)
	requireNoAllocs(t, "writeResponse+scanDone", func() {
		r.be.ring.writeResponse(17, 0, 0)
		r.be.ring.writeResponse(99, 0, 0)
		r.fe.scanDone()
	})
	if !r.fe.respEvents[17].Fired() || !r.fe.respEvents[99].Fired() {
		t.Fatal("scanDone did not complete the answered slots")
	}
}

// Stripping PermRead from the driver VM's EPT entry for the ring takes
// effect on the backend's very next read: no frame is kept between
// accesses, so nothing can serve the read past the EPT.
func TestBackendRingReadHonoursEPT(t *testing.T) {
	r := postedRig(t)
	gpa := r.be.ring.acc.(*grant.GuestAccessor).GPA
	if err := r.driverVM.EPT.SetPerm(gpa, mem.PermRW&^mem.PermRead); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "cvd: ring page inaccessible: EPT violation") {
				t.Fatalf("backend ring read after SetPerm: panic %q, want cvd: ring page inaccessible", msg)
			}
		}()
		r.be.oldestPosted()
	}()
	// The guest's own mapping of the same frame is untouched.
	if n := r.fe.Occupancy(); n != 4 {
		t.Fatalf("guest-side Occupancy = %d, want 4", n)
	}
	if err := r.driverVM.EPT.SetPerm(gpa, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if s, ok := r.be.oldestPosted(); !ok || s != 42 {
		t.Fatalf("oldestPosted after restoring PermRead = %d, %v; want slot 42", s, ok)
	}
}

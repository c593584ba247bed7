package mem

import (
	"errors"
	"testing"
)

// frameSpace maps gpa 0x5000 read-only and gpa 0x6000 read-write onto
// backed frames, and gpa 0x7000 onto a system-physical page with no frame
// behind it.
func frameSpace(t *testing.T) (*GuestSpace, SysPhys) {
	t.Helper()
	phys := NewPhysMem()
	a := phys.NewAllocator("ram", 0, 16*PageSize)
	ro, _ := a.AllocPage()
	rw, _ := a.AllocPage()
	ept := NewEPT()
	for _, m := range []struct {
		gpa  GuestPhys
		spa  SysPhys
		perm Perm
	}{{0x5000, ro, PermRead}, {0x6000, rw, PermRW}, {0x7000, 0x100000, PermRW}} {
		if err := ept.Map(m.gpa, m.spa, m.perm); err != nil {
			t.Fatal(err)
		}
	}
	return &GuestSpace{Phys: phys, EPT: ept}, rw
}

// Frame hands back the very frame Read and Write go through, for any
// address inside the page.
func TestFrameIsTheBackingFrame(t *testing.T) {
	s, rw := frameSpace(t)
	f, err := s.Frame(0x6123, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if f != s.Phys.FrameBytes(rw) {
		t.Fatal("Frame returned a frame other than the page's backing frame")
	}
	f[0x10] = 0xAB
	v, err := s.ReadU64(0x6010)
	if err != nil || v != 0xAB {
		t.Fatalf("ReadU64 after in-place write = %#x, %v", v, err)
	}
	if err := s.WriteU64(0x6020, 7); err != nil || f[0x20] != 7 {
		t.Fatalf("in-place view after WriteU64: byte %d, %v", f[0x20], err)
	}
}

func TestFrameUnmappedIsEPTViolation(t *testing.T) {
	s, _ := frameSpace(t)
	_, err := s.Frame(0x9000, PermRead)
	var v *EPTViolation
	if !errors.As(err, &v) || v.Mapped {
		t.Fatalf("err = %v, want unmapped EPTViolation", err)
	}
}

func TestFrameChecksPermission(t *testing.T) {
	s, _ := frameSpace(t)
	if _, err := s.Frame(0x5000, PermRead); err != nil {
		t.Fatalf("read of a read-only page: %v", err)
	}
	_, err := s.Frame(0x5000, PermWrite)
	var v *EPTViolation
	if !errors.As(err, &v) || !v.Mapped || v.Allowed != PermRead {
		t.Fatalf("write of a read-only page: err = %v, want mapped EPTViolation", err)
	}
}

func TestFrameUnbackedIsBusError(t *testing.T) {
	s, _ := frameSpace(t)
	for _, c := range []struct {
		perm Perm
		op   string
	}{{PermRead, "read"}, {PermWrite, "write"}, {PermRW, "write"}} {
		_, err := s.Frame(0x7040, c.perm)
		var b *BusError
		if !errors.As(err, &b) || b.Op != c.op || b.Addr != 0x100040 {
			t.Fatalf("Frame(%v) err = %v, want BusError %s at spa:0x100040", c.perm, err, c.op)
		}
	}
	// Read and Write report the same error through their loop over Frame.
	var b *BusError
	if err := s.Write(0x7040, []byte{1}); !errors.As(err, &b) || b.Op != "write" {
		t.Fatalf("Write err = %v, want write BusError", err)
	}
	if err := s.Read(0x7040, make([]byte, 1)); !errors.As(err, &b) || b.Op != "read" {
		t.Fatalf("Read err = %v, want read BusError", err)
	}
}

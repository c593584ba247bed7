package grant

import (
	"errors"
	"testing"

	"paradice/internal/mem"
)

// guestTable returns a table on a page reached through a real GuestSpace,
// the frontend's view, with the EPT that guards it.
func guestTable(t *testing.T) (*Table, *GuestAccessor, *mem.EPT) {
	t.Helper()
	phys := mem.NewPhysMem()
	spa, err := phys.NewAllocator("ram", 0x100000, 4*mem.PageSize).AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	ept := mem.NewEPT()
	const gpa = 0x8000
	if err := ept.Map(gpa, spa, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	acc := &GuestAccessor{Space: &mem.GuestSpace{Phys: phys, EPT: ept}, GPA: gpa}
	return NewTable(acc), acc, ept
}

func requireNoAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Fatalf("%s allocates %v objects per call, want 0", what, n)
	}
}

// heldTable is guestTable with one live two-entry declaration under the
// returned ref, so scans walk past live entries.
func heldTable(t *testing.T) (*Table, *GuestAccessor, uint32) {
	t.Helper()
	tab, acc, _ := guestTable(t)
	ref, err := tab.Declare(0x7000, heldOps)
	if err != nil {
		t.Fatal(err)
	}
	return tab, acc, ref
}

var heldOps = []Op{
	{Kind: KindCopyTo, VA: 0x40000000, Len: 256},
	{Kind: KindMapPage, VA: 0x50000000, Len: 4 * mem.PageSize},
}

// Table operations decode the page in place: one translation per
// operation and no per-word buffers.
func TestGuestDeclareRevokeAllocatesNothing(t *testing.T) {
	tab, _, _ := heldTable(t)
	requireNoAllocs(t, "Declare+Revoke", func() {
		ref, err := tab.Declare(0x9000, heldOps)
		if err != nil {
			panic(err)
		}
		if err := tab.Revoke(ref); err != nil {
			panic(err)
		}
	})
}

func TestGuestValidateAllocatesNothing(t *testing.T) {
	_, acc, ref := heldTable(t)
	requireNoAllocs(t, "covering Validate", func() {
		if root, err := Validate(acc, ref, KindUnmap, 0x50001000, mem.PageSize); err != nil || root != 0x7000 {
			panic("covering request denied")
		}
	})
}

func TestGuestFindRefAllocatesNothing(t *testing.T) {
	_, acc, ref := heldTable(t)
	requireNoAllocs(t, "FindRef", func() {
		if root, ok, err := FindRef(acc, ref); err != nil || !ok || root != 0x7000 {
			panic("declared ref not found")
		}
	})
}

// Validate through a GuestAccessor goes through the EPT at the moment of
// the call: once the page is unmapped, the check fails with the violation
// rather than reading the frame it used to reach.
func TestGuestValidateAfterUnmapIsEPTViolation(t *testing.T) {
	tab, acc, ept := guestTable(t)
	ref, err := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(acc, ref, KindCopyTo, 0x1000, 64); err != nil {
		t.Fatal(err)
	}
	if err := ept.Unmap(acc.GPA); err != nil {
		t.Fatal(err)
	}
	_, err = Validate(acc, ref, KindCopyTo, 0x1000, 64)
	var v *mem.EPTViolation
	if !errors.As(err, &v) || v.Mapped {
		t.Fatalf("Validate after unmap: err = %v, want unmapped EPTViolation", err)
	}
}

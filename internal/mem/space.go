package mem

import "encoding/binary"

// GuestSpace is a VM's view of its guest-physical address space: every
// access translates through the VM's EPT (enforcing EPT permissions) and
// lands in system physical memory.
//
// All simulated CPU work inside a VM — kernel code, drivers, applications —
// touches memory through a GuestSpace. That single choke point is what makes
// the isolation arguments of §4 testable: if the driver VM's EPT forbids
// reading a protected region, no code path in the driver VM can read it.
type GuestSpace struct {
	Phys *PhysMem
	EPT  *EPT

	// OnPTEdit, when set, is invoked after every successful leaf mutation of
	// a PageTable whose frames live in this space — SetLeaf and Unmap — with
	// the root of the edited table and the virtual page that changed. The
	// hypervisor's software TLB (internal/hv/tlb.go) subscribes here so a
	// remapped or unmapped page is invalidated in the same instant the PTE
	// word changes; nil (the default) costs nothing.
	OnPTEdit func(root GuestPhys, va GuestVirt)
}

// Read copies len(buf) bytes from guest-physical gpa, page by page.
func (s *GuestSpace) Read(gpa GuestPhys, buf []byte) error {
	return s.access(gpa, buf, PermRead)
}

// Write copies data to guest-physical gpa, page by page.
func (s *GuestSpace) Write(gpa GuestPhys, data []byte) error {
	return s.access(gpa, data, PermWrite)
}

func (s *GuestSpace) access(gpa GuestPhys, buf []byte, perm Perm) error {
	addr := uint64(gpa)
	for len(buf) > 0 {
		f, err := s.Frame(GuestPhys(addr), perm)
		if err != nil {
			return err
		}
		var n int
		if perm == PermWrite {
			n = copy(f[PageOffset(addr):], buf)
		} else {
			n = copy(buf, f[PageOffset(addr):])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// Frame returns the frame backing the page containing gpa, after the same
// EPT permission check Read and Write make: an *EPTViolation if the EPT
// does not allow perm, a *BusError (Op "write" when perm includes
// PermWrite, else "read") if the translation lands on an unbacked frame.
//
// It is the one translation path of the space — Read and Write loop over
// it — and lets shared-page code (the CVD ring, the grant table) work on
// the page in place. The pointer is valid for the caller's current access
// only: keeping it would bypass every later EPT edit, so each access must
// call Frame again.
func (s *GuestSpace) Frame(gpa GuestPhys, perm Perm) (*[PageSize]byte, error) {
	spa, err := s.EPT.Translate(gpa, perm)
	if err != nil {
		return nil, err
	}
	f := s.Phys.FrameBytes(spa)
	if f == nil {
		return nil, &BusError{Addr: spa, Op: perm.busOp()}
	}
	return f, nil
}

// ReadU64 reads a little-endian 64-bit word at gpa.
func (s *GuestSpace) ReadU64(gpa GuestPhys) (uint64, error) {
	var b [8]byte
	if err := s.Read(gpa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word at gpa.
func (s *GuestSpace) WriteU64(gpa GuestPhys, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(gpa, b[:])
}

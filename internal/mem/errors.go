package mem

import "fmt"

// Perm is a page access permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
)

// PermRW is read+write.
const PermRW = PermRead | PermWrite

func (p Perm) String() string {
	s := [2]byte{'-', '-'}
	if p&PermRead != 0 {
		s[0] = 'r'
	}
	if p&PermWrite != 0 {
		s[1] = 'w'
	}
	return string(s[:])
}

// Allows reports whether p grants every bit in access.
func (p Perm) Allows(access Perm) bool { return p&access == access }

// busOp names an access of kind p in a BusError.
func (p Perm) busOp() string {
	if p&PermWrite != 0 {
		return "write"
	}
	return "read"
}

// BusError reports access to a system physical address with no frame behind
// it — the simulated equivalent of a machine check.
type BusError struct {
	Addr SysPhys
	Op   string // "read" or "write"
}

func (e *BusError) Error() string {
	return fmt.Sprintf("bus error: %s of unbacked %v", e.Op, e.Addr)
}

// EPTViolation reports a guest-physical access the EPT does not permit.
// On hardware this would be a VM exit; in Paradice it is how the hypervisor
// stops a compromised driver VM from reading protected memory regions.
type EPTViolation struct {
	GPA     GuestPhys
	Access  Perm
	Allowed Perm
	Mapped  bool
}

func (e *EPTViolation) Error() string {
	if !e.Mapped {
		return fmt.Sprintf("EPT violation: %v not mapped", e.GPA)
	}
	return fmt.Sprintf("EPT violation: %v access %v but EPT allows %v",
		e.GPA, e.Access, e.Allowed)
}

// PageFault reports a guest-virtual access the guest page tables do not map
// or do not permit.
type PageFault struct {
	VA      GuestVirt
	Access  Perm
	Present bool
}

func (e *PageFault) Error() string {
	if !e.Present {
		return fmt.Sprintf("page fault: %v not present", e.VA)
	}
	return fmt.Sprintf("page fault: %v access %v denied", e.VA, e.Access)
}

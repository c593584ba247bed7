// Package grant implements Paradice's grant table (§4.1, §5.1): a single
// memory page shared between a guest VM's CVD frontend and the hypervisor.
// Before forwarding a file operation, the frontend declares the operation's
// legitimate memory operations as entries in this page; the backend attaches
// the entry's reference number to every hypervisor memory-operation request,
// and the hypervisor validates each request against the declared entries.
//
// The table is a real byte-encoded page — both sides parse the same bytes,
// the frontend through its guest address space and the hypervisor through
// the page's system-physical address — so nothing about the validation can
// accidentally rely on Go state smuggled across the VM boundary.
package grant

import (
	"encoding/binary"
	"fmt"

	"paradice/internal/mem"
)

// Kind classifies a declared memory operation.
type Kind uint8

// Memory operation kinds.
const (
	KindInvalid  Kind = iota
	KindCopyTo        // driver copies data TO guest process memory
	KindCopyFrom      // driver copies data FROM guest process memory
	KindMapPage       // driver maps pages INTO the guest process address space
	KindUnmap         // driver unmaps pages from the guest process address space
)

func (k Kind) String() string {
	switch k {
	case KindCopyTo:
		return "copy-to-user"
	case KindCopyFrom:
		return "copy-from-user"
	case KindMapPage:
		return "map-page"
	case KindUnmap:
		return "unmap-page"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one legitimate memory operation: the driver may perform accesses of
// the given kind anywhere within [VA, VA+Len).
type Op struct {
	Kind Kind
	VA   mem.GuestVirt
	Len  uint64
}

// Page layout: 128 slots of 32 bytes each.
const (
	slotSize  = 32
	slotCount = mem.PageSize / slotSize

	offRef    = 0  // u32; 0 means free
	offKind   = 4  // u8
	offVA     = 8  // u64
	offLen    = 16 // u64
	offPTRoot = 24 // u64 (guest page-table root of the issuing process)
)

// Slots is the number of grant entries one table page holds.
const Slots = slotCount

// Accessor is how one side of the boundary reaches the shared page: Page
// translates the page for an access of kind perm at the moment of the call
// and returns its frame, so table operations decode and write slots in
// place. The frame must not be kept past the operation that fetched it —
// the next operation translates again, so mapping and permission changes
// are always honoured.
type Accessor interface {
	Page(perm mem.Perm) (*[mem.PageSize]byte, error)
}

// GuestAccessor accesses the page through a guest-physical address — the
// frontend's view, checked against the VM's EPT on every call.
type GuestAccessor struct {
	Space *mem.GuestSpace
	GPA   mem.GuestPhys
}

// Page implements Accessor.
func (a *GuestAccessor) Page(perm mem.Perm) (*[mem.PageSize]byte, error) {
	return a.Space.Frame(a.GPA, perm)
}

// PhysAccessor accesses the page through its system-physical address — the
// hypervisor's view, which has no EPT above it.
type PhysAccessor struct {
	Phys *mem.PhysMem
	SPA  mem.SysPhys
}

// Page implements Accessor. An unbacked frame is a *mem.BusError.
func (a *PhysAccessor) Page(perm mem.Perm) (*[mem.PageSize]byte, error) {
	f := a.Phys.FrameBytes(a.SPA)
	if f == nil {
		op := "read"
		if perm&mem.PermWrite != 0 {
			op = "write"
		}
		return nil, &mem.BusError{Addr: a.SPA, Op: op}
	}
	return f, nil
}

// Table is the frontend's handle for declaring and revoking grants.
type Table struct {
	acc     Accessor
	nextRef uint32
	// onRevoke subscribers run after a reference's slots are zeroed. The
	// grant-map cache registers here: a mapping established under a revoked
	// reference must be torn down deterministically, in the same instant the
	// declaration disappears from the shared page, so a driver VM holding a
	// stale mapping faults instead of silently reading freed guest memory.
	onRevoke []func(ref uint32)
	// onDeclare subscribers run after a declaration's slots are all written —
	// never on the rolled-back table-full path, whose partial slots are gone
	// by the time Declare returns. The hypervisor's grant-validation cache
	// (Config.GrantBatch) primes itself here, modeling the batched hypercall
	// that hands the hypervisor the whole entry vector in one crossing.
	onDeclare []func(ref uint32, ptRoot mem.GuestPhys, ops []Op)
}

// NewTable wraps a zeroed shared page.
func NewTable(acc Accessor) *Table {
	return &Table{acc: acc, nextRef: 1}
}

// Declare writes the operations into free slots under a fresh reference
// number and returns the reference. ptRoot is the page-table root of the
// process issuing the file operation; the hypervisor walks that table when
// executing the operations.
func (t *Table) Declare(ptRoot mem.GuestPhys, ops []Op) (uint32, error) {
	if len(ops) == 0 {
		return 0, fmt.Errorf("grant: empty declaration")
	}
	ref := t.nextRef
	t.nextRef++
	if t.nextRef == 0 { // refs must stay nonzero
		t.nextRef = 1
	}
	pg, err := t.acc.Page(mem.PermRW)
	if err != nil {
		return 0, err
	}
	written := 0
	for slot := 0; slot < slotCount && written < len(ops); slot++ {
		if slotRef(pg, slot) != 0 {
			continue
		}
		writeSlot(pg, slot, ref, ptRoot, ops[written])
		written++
	}
	if written < len(ops) {
		// Roll back what we wrote: the table page is full.
		revoke(pg, ref)
		return 0, fmt.Errorf("grant: table full (%d slots)", slotCount)
	}
	for _, fn := range t.onDeclare {
		fn(ref, ptRoot, ops)
	}
	return ref, nil
}

// Revoke frees every slot declared under ref and notifies OnRevoke
// subscribers so cached state keyed on the reference (grant-map cache
// entries) is invalidated in the same instant.
func (t *Table) Revoke(ref uint32) error {
	pg, err := t.acc.Page(mem.PermRW)
	if err != nil {
		return err
	}
	revoke(pg, ref)
	if ref != 0 {
		for _, fn := range t.onRevoke {
			fn(ref)
		}
	}
	return nil
}

// OnRevoke registers fn to run after every successful Revoke, with the
// revoked reference. Registration order is invocation order (determinism).
func (t *Table) OnRevoke(fn func(ref uint32)) {
	t.onRevoke = append(t.onRevoke, fn)
}

// OnDeclare registers fn to run after every fully successful Declare, with
// the fresh reference, the issuing process's page-table root, and the
// declared operation vector. Registration order is invocation order. The
// callback must not retain ops past its return without copying.
func (t *Table) OnDeclare(fn func(ref uint32, ptRoot mem.GuestPhys, ops []Op)) {
	t.onDeclare = append(t.onDeclare, fn)
}

// slotRef returns the reference number of slot (0 = free).
func slotRef(pg *[mem.PageSize]byte, slot int) uint32 {
	return binary.LittleEndian.Uint32(pg[slot*slotSize+offRef:])
}

func writeSlot(pg *[mem.PageSize]byte, slot int, ref uint32, ptRoot mem.GuestPhys, op Op) {
	b := pg[slot*slotSize : (slot+1)*slotSize]
	clear(b)
	binary.LittleEndian.PutUint32(b[offRef:], ref)
	b[offKind] = uint8(op.Kind)
	binary.LittleEndian.PutUint64(b[offVA:], uint64(op.VA))
	binary.LittleEndian.PutUint64(b[offLen:], op.Len)
	binary.LittleEndian.PutUint64(b[offPTRoot:], uint64(ptRoot))
}

func revoke(pg *[mem.PageSize]byte, ref uint32) {
	for slot := 0; slot < slotCount; slot++ {
		if slotRef(pg, slot) == ref {
			clear(pg[slot*slotSize : (slot+1)*slotSize])
		}
	}
}

// FindRef scans the page for any slot declared under ref and returns its
// page-table root. It performs NO kind or range checking — it exists for
// diagnostics and for the fault-injection harness's deliberately weakened
// grant check ("grant.validate.skip"), never as a validation path.
func FindRef(acc Accessor, ref uint32) (mem.GuestPhys, bool, error) {
	if ref == 0 {
		return 0, false, nil
	}
	pg, err := acc.Page(mem.PermRead)
	if err != nil {
		return 0, false, err
	}
	for slot := 0; slot < slotCount; slot++ {
		if slotRef(pg, slot) == ref {
			return slotPTRoot(pg, slot), true, nil
		}
	}
	return 0, false, nil
}

// slotPTRoot returns the page-table root declared in slot.
func slotPTRoot(pg *[mem.PageSize]byte, slot int) mem.GuestPhys {
	return mem.GuestPhys(binary.LittleEndian.Uint64(pg[slot*slotSize+offPTRoot:]))
}

// DeniedError reports a memory operation the grant table does not cover —
// the hypervisor's strict runtime check failing a compromised driver VM.
type DeniedError struct {
	Ref  uint32
	Kind Kind
	VA   mem.GuestVirt
	Len  uint64
}

func (e *DeniedError) Error() string {
	return fmt.Sprintf("grant: ref %d does not permit %v of %d bytes at %v",
		e.Ref, e.Kind, e.Len, e.VA)
}

// Validate is the hypervisor's check: it scans the page for an entry with
// the given reference and kind whose range covers [va, va+n), and returns
// the page-table root declared with it. Unmap requests are additionally
// satisfied by a MapPage entry covering the range, since tearing down a
// granted mapping is always legitimate.
func Validate(acc Accessor, ref uint32, kind Kind, va mem.GuestVirt, n uint64) (mem.GuestPhys, error) {
	if ref == 0 {
		return 0, &DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
	}
	pg, err := acc.Page(mem.PermRead)
	if err != nil {
		return 0, err
	}
	for slot := 0; slot < slotCount; slot++ {
		if slotRef(pg, slot) != ref {
			continue
		}
		b := pg[slot*slotSize : (slot+1)*slotSize]
		k := Kind(b[offKind])
		if k != kind && !(kind == KindUnmap && k == KindMapPage) {
			continue
		}
		eva := mem.GuestVirt(binary.LittleEndian.Uint64(b[offVA:]))
		elen := binary.LittleEndian.Uint64(b[offLen:])
		if va >= eva && uint64(va)+n <= uint64(eva)+elen && uint64(va)+n >= uint64(va) {
			return slotPTRoot(pg, slot), nil
		}
	}
	return 0, &DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
}

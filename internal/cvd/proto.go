// Package cvd implements Paradice's Common Virtual Driver — the single pair
// of paravirtual drivers that serves every device class (§3.2.1). The
// frontend lives in a guest VM kernel and exposes a virtual device file; the
// backend lives in the driver VM kernel and replays forwarded file
// operations against the real driver. They communicate through a real
// shared memory page (the ring) and inter-VM interrupts, with an optional
// polling mode for high-performance workloads (§5.1).
//
// Before forwarding an operation, the frontend declares the operation's
// legitimate memory operations in the guest's grant table — derived from the
// file operation's own arguments, from the ioctl command-number macros, or
// from the analyzer's extracted slices (§4.1) — and the backend attaches the
// grant reference to every hypervisor memory-operation request it makes on
// the driver's behalf.
package cvd

import (
	"encoding/binary"

	"paradice/internal/grant"
	"paradice/internal/mem"
)

// Op codes of forwarded file operations.
const (
	opNone    = 0
	opOpen    = 1
	opRelease = 2
	opRead    = 3
	opWrite   = 4
	opIoctl   = 5
	opMmap    = 6
	opMunmap  = 7
	opFault   = 8
	opPoll    = 9
	opFasync  = 10
)

// Slot states.
const (
	slotFree    = 0
	slotPosted  = 1
	slotRunning = 2
	slotDone    = 3
)

// Ring page layout: a 96-byte header followed by 100 40-byte slots — the
// paper's cap of 100 queued operations per guest VM falls out of the slot
// count.
const (
	hdrPostSeq      = 0  // u32: monotonically increasing post counter
	hdrBackendPoll  = 4  // u32: backend is spinning on the page
	hdrFrontendPoll = 8  // u32: count of requesters spinning for responses
	hdrNotifBits    = 12 // u32: pending notification bits
	hdrHbReq        = 16 // u32: watchdog heartbeat sequence (frontend side)
	hdrHbAck        = 20 // u32: last heartbeat sequence the backend echoed
	hdrEpoch        = 24 // u32: restart epoch of the backend owning the ring
	hdrDrain        = 28 // u32: planned handover in progress; new posts park
	hdrMode         = 32 // u32: frontend's adaptive stance (0 irq, 1 poll); advisory
	hdrSubCount     = 36 // u32: submission batch descriptor count since last consume
	hdrSubBits      = 40 // 4×u32 bitmap of posted slots in the batch (bit s = slot s)
	hdrDoneCount    = 56 // u32: completion count since last scan
	hdrDoneBits     = 60 // 4×u32 bitmap of completed slots (bit s = slot s)
	hdrSize         = 96

	// bitmapWords is the width of the submission/completion descriptor
	// bitmaps: 4×32 = 128 bits covers slotCount with room to spare. Both
	// bitmaps are ADVISORY — either side may scribble them, so readers
	// validate every bit against the actual slot state and ignore bits at or
	// beyond slotCount.
	bitmapWords = 4

	slotSize  = 40
	slotCount = 100

	// Slot field offsets.
	sState = 0  // u32
	sOp    = 4  // u8
	sFile  = 6  // u16: frontend-assigned file instance id
	sRef   = 8  // u32: grant reference (0 = none)
	sSeq   = 12 // u32: FIFO sequence
	sArg0  = 16 // u64
	sArg1  = 24 // u64
	sRet   = 32 // i32 (response); u32 arg2 low half in requests
	sErrno = 36 // i32 (response); u32 trace request ID in requests
)

// Request flag bits, carried in bits 8..15 of the slot's op word.
const (
	// reqFlagMapHint marks a request whose data movement should go through
	// the backend's grant-map cache: the frontend kept the grant alive
	// across requests, so a mapping established for it stays valid and
	// amortizes. Requests without the hint (one-shot grants, ioctls) use the
	// per-request assisted copy.
	reqFlagMapHint = 1 << 0
)

// Notification bits (backend -> frontend).
const (
	notifPollWake = 1 << 0 // a driver wait queue woke; re-evaluate poll
	notifSIGIO    = 1 << 1 // kill_fasync fired; deliver SIGIO
)

// page wraps a grant.Accessor (either side's view of the shared frame) with
// typed field access. All channel state crosses the VM boundary through
// these bytes and nothing else.
type page struct {
	acc grant.Accessor
}

// frame translates the ring page for an access of kind perm, at this
// instant, and returns it for in-place decoding. The frame serves the
// calling method only: the next access translates again, so an EPT edit in
// between (restart, handover, a region change) is always observed. A
// translation failure means the simulated machine itself is broken, so it
// panics rather than returning an errno.
func (p page) frame(perm mem.Perm) *ringFrame {
	f, err := p.acc.Page(perm)
	if err != nil {
		panic("cvd: ring page inaccessible: " + err.Error())
	}
	return (*ringFrame)(f)
}

// ringFrame is the ring page's bytes, decoded in place.
type ringFrame [mem.PageSize]byte

func (f *ringFrame) u32(off int) uint32 { return binary.LittleEndian.Uint32(f[off:]) }
func (f *ringFrame) setU32(off int, v uint32) {
	binary.LittleEndian.PutUint32(f[off:], v)
}
func (f *ringFrame) u64(off int) uint64 { return binary.LittleEndian.Uint64(f[off:]) }
func (f *ringFrame) setU64(off int, v uint64) {
	binary.LittleEndian.PutUint64(f[off:], v)
}
func (f *ringFrame) slotState(slot int) uint32 { return f.u32(slotOff(slot) + sState) }

// setBit ORs slot's bit into the descriptor bitmap rooted at base
// (hdrSubBits or hdrDoneBits). Out-of-range slots are ignored — the bitmaps
// are advisory and must never become a way to write outside their words.
func (f *ringFrame) setBit(base, slot int) {
	if slot < 0 || slot >= bitmapWords*32 {
		return
	}
	off := base + 4*(slot/32)
	f.setU32(off, f.u32(off)|1<<uint(slot%32))
}

func (p page) readU32(off int) uint32     { return p.frame(mem.PermRead).u32(off) }
func (p page) writeU32(off int, v uint32) { p.frame(mem.PermWrite).setU32(off, v) }

func slotOff(slot int) int { return hdrSize + slot*slotSize }

// request is a decoded slot request.
type request struct {
	slot   int
	op     uint8
	flags  uint8 // reqFlag bits
	fileID uint16
	ref    uint32
	seq    uint32
	arg0   uint64
	arg1   uint64
	arg2   uint64 // request reuse of the sRet field (low 32 bits)
	rid    uint32 // trace request ID; request reuse of the sErrno field
}

func (p page) writeRequest(slot int, r request) {
	f, base := p.frame(mem.PermWrite), slotOff(slot)
	f.setU32(base+sOp, uint32(r.op)|uint32(r.flags)<<8|uint32(r.fileID)<<16)
	f.setU32(base+sRef, r.ref)
	f.setU32(base+sSeq, r.seq)
	f.setU64(base+sArg0, r.arg0)
	f.setU64(base+sArg1, r.arg1)
	f.setU32(base+sRet, uint32(r.arg2))
	// The errno word carries the trace request ID frontend -> backend; the
	// response overwrites it. The ring page is exactly full (96-byte header
	// + 100×40-byte slots), so tracing reuses dead request-direction bytes
	// rather than growing the slot.
	f.setU32(base+sErrno, r.rid)
	f.setU32(base+sState, slotPosted)
}

func (p page) readRequest(slot int) request {
	f, base := p.frame(mem.PermRead), slotOff(slot)
	opFile := f.u32(base + sOp)
	return request{
		slot:   slot,
		op:     uint8(opFile),
		flags:  uint8(opFile >> 8),
		fileID: uint16(opFile >> 16),
		ref:    f.u32(base + sRef),
		seq:    f.u32(base + sSeq),
		arg0:   f.u64(base + sArg0),
		arg1:   f.u64(base + sArg1),
		arg2:   uint64(f.u32(base + sRet)),
		rid:    f.u32(base + sErrno),
	}
}

func (p page) writeResponse(slot int, ret int32, errno int32) {
	f, base := p.frame(mem.PermRW), slotOff(slot)
	f.setU32(base+sRet, uint32(ret))
	f.setU32(base+sErrno, uint32(errno))
	f.setU32(base+sState, slotDone)
	// Publish a completion descriptor so the frontend's scan is O(batch):
	// set the slot's done bit and bump the count. The words are advisory —
	// the scan re-validates against slot state — so a hostile peer clearing
	// them degrades to a deadline, never to corruption.
	f.setBit(hdrDoneBits, slot)
	f.setU32(hdrDoneCount, f.u32(hdrDoneCount)+1)
}

func (p page) readResponse(slot int) (ret int32, errno int32) {
	f, base := p.frame(mem.PermRead), slotOff(slot)
	return int32(f.u32(base + sRet)), int32(f.u32(base + sErrno))
}

// recycleSlot returns a slot to the free pool, scrubbing the response words
// first. The sErrno word carries the trace request ID in the request
// direction, so a slot freed WITHOUT a response having overwritten it (an
// abandoned request reclaimed after a timeout or a reconnect) would
// otherwise leave a stale RID where the next reader expects an errno. Every
// path that frees a slot without reading a response must come through here.
func (p page) recycleSlot(slot int) {
	f, base := p.frame(mem.PermWrite), slotOff(slot)
	f.setU32(base+sRet, 0)
	f.setU32(base+sErrno, 0)
	f.setU32(base+sState, slotFree)
}

func (p page) slotState(slot int) uint32 { return p.frame(mem.PermRead).slotState(slot) }
func (p page) setSlotState(slot int, st uint32) {
	p.writeU32(slotOff(slot)+sState, st)
}

// setBitmapBit ORs slot's bit into the descriptor bitmap rooted at base.
func (p page) setBitmapBit(base, slot int) { p.frame(mem.PermRW).setBit(base, slot) }

// takeBitmap reads and clears the descriptor bitmap rooted at base. The
// caller validates each set bit against the actual slot state before acting
// on it: the words cross the VM boundary and are untrusted.
func (p page) takeBitmap(base int) [bitmapWords]uint32 {
	var bits [bitmapWords]uint32
	f := p.frame(mem.PermRead)
	for w := range bits {
		bits[w] = f.u32(base + 4*w)
	}
	if bits != [bitmapWords]uint32{} {
		clear(p.frame(mem.PermWrite)[base : base+4*bitmapWords])
	}
	return bits
}

// postNotif ORs bits into the pending-notification field.
func (p page) postNotif(bits uint32) {
	f := p.frame(mem.PermRW)
	f.setU32(hdrNotifBits, f.u32(hdrNotifBits)|bits)
}

// takeNotifs reads and clears the pending-notification bits.
func (p page) takeNotifs() uint32 {
	bits := p.readU32(hdrNotifBits)
	if bits != 0 {
		p.writeU32(hdrNotifBits, 0)
	}
	return bits
}

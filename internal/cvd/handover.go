package cvd

import (
	"fmt"
	"sort"

	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/trace"
)

// Planned driver-VM handover support (ROADMAP item 4c): the production
// counterpart of Reconnect. Where Reconnect rebuilds a channel after its
// driver VM has already died — failing everything in flight with EREMOTE and
// starting every cache cold — a handover runs while the predecessor is still
// alive and healthy, in two halves:
//
//   - PrepareHandover runs with the predecessor still serving: it shares the
//     ring into the successor VM, pre-creates the successor backend's kernel
//     process, and pre-maps the frontend's live bulk grants into the
//     successor so its grant-map cache starts warm. Everything here is
//     fallible and touches nothing the predecessor depends on; a failure (or
//     a later abort) discards the prep and leaves the channel exactly as it
//     was.
//
//   - CompleteHandover runs after the ring has been drained (the frontend in
//     drain mode, occupancy zero): it harvests the predecessor's open-file
//     table, bumps the restart epoch, and binds the pre-built successor
//     backend. Past the epoch bump it has no failure path — the one fallible
//     step (device lookup) happens first — and no simulated time passes
//     between the bump and the rebind, so the switch is atomic in virtual
//     time.
//
// Unlike Reconnect there is no failInflight: the caller drained the ring, so
// there is nothing in flight to fail. That is the whole point.

// warmFile records one predecessor file instance for lazy re-open on the
// successor (Backend.lookupFile).
type warmFile struct {
	flags  devfile.OpenFlags
	fasync bool
}

// warmVMA records one predecessor mmap for replay when its file is re-opened.
type warmVMA struct {
	start mem.GuestVirt
	len   uint64
	pgoff uint64
}

// warmMap is one guest data buffer pre-mapped into the successor driver VM
// during prepare, keyed like the map-cache entry it will seed.
type warmMap struct {
	key mapKey
	m   *hv.GuestMapping
}

// HandoverPrep is the successor-side state built by PrepareHandover, consumed
// by exactly one of CompleteHandover (the switch commits) or Discard (the
// handover aborts).
type HandoverPrep struct {
	fe    *Frontend
	beGPA mem.GuestPhys
	proc  *kernel.Process
	warm  []warmMap
}

// PrepareHandover pre-builds one channel's successor state against a freshly
// booted (but not yet serving) driver VM, while the predecessor backend keeps
// serving the ring untouched. The "handover.warm.fail" fault point injects a
// pre-warm failure (a successor that cannot re-probe the device state it
// needs); real failures come from page sharing, process creation, or buffer
// mapping. On any error nothing leaks: partial pre-maps are discarded.
func PrepareHandover(fe *Frontend, h *hv.Hypervisor, succVM *hv.VM, succK *kernel.Kernel) (*HandoverPrep, error) {
	if fe.backend == nil || fe.backend.stopped {
		return nil, fmt.Errorf("cvd: handover from a dead backend on %s (use Reconnect)", fe.path)
	}
	if d := faults.Point(h.Env, "handover.warm.fail"); d != nil {
		return nil, d.Error()
	}
	beGPA, err := h.SharePage(fe.guestVM, fe.ringGPA, succVM)
	if err != nil {
		return nil, err
	}
	// Pre-create the successor backend's kernel process now: it is the only
	// fallible part of backend construction, and CompleteHandover must not be
	// able to fail after it bumps the ring epoch.
	proc, err := succK.NewProcess("cvd-backend-" + fe.guestVM.Name)
	if err != nil {
		return nil, err
	}
	prep := &HandoverPrep{fe: fe, beGPA: beGPA, proc: proc}
	if fe.transport.MapCache {
		// Pre-map the frontend's live bulk grants into the successor, paying
		// the per-page mapping walks now — while the predecessor still serves
		// — instead of as post-switch cache misses. Sorted for deterministic
		// charge order.
		keys := make([]bulkKey, 0, len(fe.bulk))
		for k := range fe.bulk {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].fileID != keys[j].fileID {
				return keys[i].fileID < keys[j].fileID
			}
			return keys[i].kind < keys[j].kind
		})
		for _, k := range keys {
			bg := fe.bulk[k]
			m, err := h.MapGuestBuffer(fe.guestVM, bg.ref, k.kind, bg.va, bg.n, succVM)
			if err != nil {
				prep.Discard()
				return nil, err
			}
			prep.warm = append(prep.warm, warmMap{key: mapKey{fileID: k.fileID, kind: k.kind}, m: m})
		}
	}
	trace.Get(h.Env).Add("cvd.handover.prewarmed_maps", uint64(len(prep.warm)))
	return prep, nil
}

// Discard releases a prep that will not be committed (the handover aborted):
// the pre-established successor mappings are torn down. The predecessor never
// knew the prep existed, so there is nothing else to undo.
func (p *HandoverPrep) Discard() {
	for _, wm := range p.warm {
		wm.m.Unmap()
	}
	p.warm = nil
}

// CompleteHandover commits one channel's switch to the successor driver VM.
// The caller must have drained the ring (frontend in drain mode, occupancy
// zero): with no slot in flight the predecessor's file table is stable and
// there is nothing to fail over.
//
// Ordering: the device lookup — the only remaining failure — comes first;
// then the predecessor's open files and mmaps are harvested for lazy warm
// re-open; then the epoch bump retires the predecessor's right to the ring;
// then the pre-built backend binds, joining pool (the successor's worker
// pool) unless nil. No simulated time passes after the bump, so no post can
// observe a ring that has an epoch but no owner.
func CompleteHandover(fe *Frontend, prep *HandoverPrep, driverVM *hv.VM, driverK *kernel.Kernel, devicePath string, pool *Pool) (*Backend, error) {
	node, ok := driverK.LookupDevice(devicePath)
	if !ok {
		return nil, fmt.Errorf("cvd: no device %s in successor %s", devicePath, driverK.Name)
	}
	// Harvest the predecessor's open-file table: files the guest holds that
	// the successor's driver has never seen. The successor re-opens them
	// lazily on first use (Backend.lookupFile) instead of invalidating every
	// guest descriptor the way a crash restart does.
	pred := fe.backend
	warmFiles := make(map[uint16]warmFile, len(pred.files))
	warmVMAs := make(map[uint16][]warmVMA)
	fileIDs := make([]int, 0, len(pred.files))
	for id := range pred.files {
		fileIDs = append(fileIDs, int(id))
	}
	sort.Ints(fileIDs)
	for _, idi := range fileIDs {
		id := uint16(idi)
		f := pred.files[id]
		warmFiles[id] = warmFile{flags: f.Flags, fasync: f.FasyncOn}
		if vm := pred.vmas[id]; len(vm) > 0 {
			starts := make([]mem.GuestVirt, 0, len(vm))
			for s := range vm {
				starts = append(starts, s)
			}
			sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
			for _, s := range starts {
				v := vm[s]
				warmVMAs[id] = append(warmVMAs[id], warmVMA{start: v.Start, len: v.Len, pgoff: v.Pgoff})
			}
		}
	}
	// Enter the next restart epoch, then bind the pre-built backend. Same
	// rationale as Reconnect: anything left of the predecessor — a dispatcher
	// pass, a deferred heartbeat ack — observes the mismatch on its next ring
	// write and discards.
	fe.ring.writeU32(hdrEpoch, fe.ring.readU32(hdrEpoch)+1)
	be := fe.bind(prep.proc, driverVM, driverK, node, prep.beGPA, pool)
	// Seed the successor's map cache with the pre-established mappings.
	// Each is injected only if its bulk grant is still the one it was mapped
	// under — a release or buffer change that slipped in via an in-flight
	// operation during the drain revoked the grant, and a mapping under a
	// revoked grant must not serve anything.
	for _, wm := range prep.warm {
		bg, live := fe.bulk[bulkKey{fileID: wm.key.fileID, kind: wm.key.kind}]
		if !live || bg.ref != wm.m.Ref || wm.m.Dead() {
			wm.m.Unmap()
			continue
		}
		be.mapc.entries[wm.key] = wm.m
	}
	prep.warm = nil
	be.warmFiles = warmFiles
	be.warmVMAs = warmVMAs
	return be, nil
}

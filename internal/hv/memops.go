package hv

import (
	"fmt"

	"paradice/internal/faults"
	"paradice/internal/grant"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// This file implements the hypervisor API for the two kinds of driver
// memory operations (§5.2): copying between driver-VM buffers and guest
// process memory, and mapping driver-VM pages into guest process address
// spaces. Every operation is validated against the guest's grant table
// first (§4.1) — the driver VM is untrusted, so nothing it claims is
// believed without a matching declaration from the guest's CVD frontend.

func (vm *VM) grantAccessor() (*grant.PhysAccessor, error) {
	if vm.grantAcc == nil {
		return nil, fmt.Errorf("hv: %s has no registered grant table", vm.Name)
	}
	return vm.grantAcc, nil
}

// validate checks the request against the guest's grant table and returns
// the guest page table loaded from the declared root.
func (h *Hypervisor) validate(guest *VM, ref uint32, kind grant.Kind, va mem.GuestVirt, n uint64) (*mem.PageTable, error) {
	acc, err := guest.grantAccessor()
	if err != nil {
		return nil, err
	}
	tr, rid := h.tracer()
	vstart := tr.Now()
	// Grant-validation cache (tlb.go): when the frontend's batched declare
	// primed this reference's vector, the covering check is a cached-vector
	// replay at CostTLBHit instead of a shared-page scan at CostGrantDeclare.
	// Never primed while Config.GrantBatch is off, so the dormant charge and
	// event sequence below is byte-identical to the seed. The injected-fault
	// points still run in their exact dormant order — and BEFORE the cached
	// result is used, so a fault schedule denies a cached validation exactly
	// as it denies a scanned one.
	var cachedRoot mem.GuestPhys
	cacheHit := false
	if guest.grantCache != nil {
		cachedRoot, cacheHit = guest.grantCache.lookup(ref, kind, va, n)
	}
	if cacheHit {
		perf.Charge(h.Env, perf.CostTLBHit)
	} else {
		perf.Charge(h.Env, perf.CostGrantDeclare)
	}
	tr.Span(rid, "hv", trace.LayerHV, "grant-validate", vstart, tr.Now())
	tr.Add("hv.grant.validations", 1)
	if faults.Point(h.Env, "grant.validate") != nil {
		// Injected validation failure: behave exactly as if no covering
		// grant entry existed.
		return nil, &grant.DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
	}
	if faults.Point(h.Env, "grant.validate.skip") != nil {
		// Deliberately WEAKENED check (see the faults package doc): accept
		// any entry with a matching reference, ignoring kind and range.
		// Exists solely so the stress harness can prove it catches a broken
		// grant check; never armed outside that self-test.
		if ptRoot, ok, ferr := grant.FindRef(acc, ref); ferr == nil && ok {
			return mem.LoadPageTable(guest.Space, ptRoot), nil
		}
	}
	if cacheHit {
		tr.Add("hv.grant.cache.hit", 1)
		return mem.LoadPageTable(guest.Space, cachedRoot), nil
	}
	tr.Add("hv.grant.scans", 1)
	ptRoot, err := grant.Validate(acc, ref, kind, va, n)
	if err != nil {
		return nil, err
	}
	return mem.LoadPageTable(guest.Space, ptRoot), nil
}

// CopyToGuest copies src into the guest process's memory at dst, performing
// the per-page two-level translation walk of §5.2. The request must be
// covered by a copy-to-user grant under ref.
func (h *Hypervisor) CopyToGuest(guest *VM, ref uint32, dst mem.GuestVirt, src []byte) error {
	if d := faults.Point(h.Env, "hv.copy"); d != nil {
		return d.Error()
	}
	pt, err := h.validate(guest, ref, grant.KindCopyTo, dst, uint64(len(src)))
	if err != nil {
		return err
	}
	return h.copyGuest(guest, pt, dst, src, true)
}

// CopyFromGuest fills buf from the guest process's memory at src under a
// copy-from-user grant.
func (h *Hypervisor) CopyFromGuest(guest *VM, ref uint32, src mem.GuestVirt, buf []byte) error {
	if d := faults.Point(h.Env, "hv.copy"); d != nil {
		return d.Error()
	}
	pt, err := h.validate(guest, ref, grant.KindCopyFrom, src, uint64(len(buf)))
	if err != nil {
		return err
	}
	return h.copyGuest(guest, pt, src, buf, false)
}

// copyGuest walks the guest page tables in software, then the EPT, page by
// page — "contiguous pages in the VM address spaces are not necessarily
// contiguous in the system physical address space" (§5.2). With the
// software TLB armed it delegates to copyGuestTLB; the dormant body below
// is byte-identical to the seed, single upfront charge included.
func (h *Hypervisor) copyGuest(guest *VM, pt *mem.PageTable, va mem.GuestVirt, buf []byte, write bool) error {
	if guest.tlb != nil {
		return h.copyGuestTLB(guest, pt, va, buf, write)
	}
	npages := int(mem.PagesSpanned(uint64(va), uint64(len(buf))))
	tr, rid := h.tracer()
	cstart := tr.Now()
	perf.Charge(h.Env, perf.Copy(len(buf), npages))
	// The copy span covers the per-page guest-page-table walk + EPT walk +
	// physical transfer of §5.2 — they are one charge in the cost model.
	tr.Span(rid, "hv", trace.LayerHV, "copy", cstart, tr.Now())
	tr.Add("hv.copy.ops", 1)
	tr.Add("hv.copy.bytes", uint64(len(buf)))
	addr := uint64(va)
	for len(buf) > 0 {
		access := mem.PermRead
		if write {
			access = mem.PermWrite
		}
		gpa, err := pt.Walk(mem.GuestVirt(addr), access)
		if err != nil {
			return err
		}
		// Privileged EPT walk: presence check only.
		spa, err := guest.EPT.Translate(gpa, 0)
		if err != nil {
			return err
		}
		n := mem.PageSize - mem.PageOffset(addr)
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if write {
			err = h.Phys.Write(spa, buf[:n])
		} else {
			err = h.Phys.Read(spa, buf[:n])
		}
		if err != nil {
			return err
		}
		addr += n
		buf = buf[n:]
	}
	return nil
}

// copyGuestTLB is the copy path with the software TLB armed: each page's
// translation is probed in the cache first — a hit charges CostTLBHit, a
// miss performs and charges the full walk (CostCopyPerPage) and inserts the
// proven translation. Bytes are copied page by page as translations resolve,
// so a copy that faults on page k leaves pages 0..k-1 as a deterministic
// destination prefix and charges exactly the k hits/misses it performed —
// and the faulting page, whose walk never succeeded, is never inserted. The
// per-byte memcpy share is charged once at the end from the bytes actually
// moved, mirroring the dormant perf.Copy breakdown exactly: a cold armed
// copy that succeeds costs the same as a dormant one.
func (h *Hypervisor) copyGuestTLB(guest *VM, pt *mem.PageTable, va mem.GuestVirt, buf []byte, write bool) error {
	tr, rid := h.tracer()
	cstart := tr.Now()
	access := mem.PermRead
	if write {
		access = mem.PermWrite
	}
	addr := uint64(va)
	bytesDone := 0
	var copyErr error
	for len(buf) > 0 {
		vpage := mem.GuestVirt(mem.PageBase(addr))
		var spa mem.SysPhys
		if spaPage, hit := guest.tlb.lookup(pt.Root(), vpage, access); hit {
			perf.Charge(h.Env, perf.CostTLBHit)
			tr.Add("hv.tlb.hit", 1)
			spa = spaPage + mem.SysPhys(mem.PageOffset(addr))
		} else {
			perf.Charge(h.Env, perf.CostCopyPerPage)
			tr.Add("hv.tlb.miss", 1)
			gpa, err := pt.Walk(mem.GuestVirt(addr), access)
			if err != nil {
				copyErr = err
				break
			}
			// Privileged EPT walk: presence check only.
			spa, err = guest.EPT.Translate(gpa, 0)
			if err != nil {
				copyErr = err
				break
			}
			guest.tlb.insert(pt.Root(), vpage, mem.SysPhys(mem.PageBase(uint64(spa))), access)
		}
		n := mem.PageSize - mem.PageOffset(addr)
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		var err error
		if write {
			err = h.Phys.Write(spa, buf[:n])
		} else {
			err = h.Phys.Read(spa, buf[:n])
		}
		if err != nil {
			copyErr = err
			break
		}
		addr += n
		bytesDone += int(n)
		buf = buf[n:]
	}
	perf.Charge(h.Env, sim.Duration(bytesDone)*perf.CostCopyPerKB/1024)
	tr.Span(rid, "hv", trace.LayerHV, "copy", cstart, tr.Now())
	tr.Add("hv.copy.ops", 1)
	tr.Add("hv.copy.bytes", uint64(bytesDone))
	return copyErr
}

// MapToGuest maps the driver VM's page frame pfn into the guest process at
// va: the hypervisor picks an unused guest-physical page, fixes the EPT,
// and fixes the last level of the guest page table (the CVD frontend has
// pre-created the intermediate levels; §5.2). The request must be covered
// by a map grant. If the page belongs to a protected memory region, the
// region's owner must be this guest — the first attack of §4.2.
func (h *Hypervisor) MapToGuest(guest *VM, ref uint32, va mem.GuestVirt, driver *VM, pfn mem.GuestPhys) error {
	if !mem.PageAligned(uint64(va)) || !mem.PageAligned(uint64(pfn)) {
		return fmt.Errorf("hv: unaligned MapToGuest %v -> %v", pfn, va)
	}
	if d := faults.Point(h.Env, "hv.map"); d != nil {
		return d.Error()
	}
	pt, err := h.validate(guest, ref, grant.KindMapPage, va, mem.PageSize)
	if err != nil {
		return err
	}
	spa, err := driver.EPT.Translate(pfn, 0)
	if err != nil {
		return err
	}
	if region, prot := h.protPages[mem.Frame(uint64(spa))]; prot {
		if r := h.regions[region]; r == nil || r.Owner != guest.ID {
			return fmt.Errorf("hv: page %v belongs to another guest's protected region", pfn)
		}
	}
	tr, rid := h.tracer()
	mstart := tr.Now()
	perf.Charge(h.Env, perf.CostMapPage)
	tr.Span(rid, "hv", trace.LayerHV, "map-page", mstart, tr.Now())
	tr.Add("hv.map.pages", 1)
	gpa, err := guest.EPT.FindUnusedRange(mapWindowLo, mapWindowHi, 1)
	if err != nil {
		return err
	}
	if err := guest.EPT.Map(gpa, spa, mem.PermRW); err != nil {
		return err
	}
	if err := pt.SetLeaf(va, gpa, mem.PermRW); err != nil {
		_ = guest.EPT.Unmap(gpa)
		return err
	}
	h.mapped[mapKey{guest.ID, pt.Root(), va}] = gpa
	return nil
}

// UnmapFromGuest destroys the EPT mapping created by MapToGuest. Only the
// EPT entry is touched: the guest kernel has already destroyed its own
// page-table entry before informing the driver (§5.2).
func (h *Hypervisor) UnmapFromGuest(guest *VM, ref uint32, va mem.GuestVirt) error {
	if d := faults.Point(h.Env, "hv.unmap"); d != nil {
		return d.Error()
	}
	pt, err := h.validate(guest, ref, grant.KindUnmap, va, mem.PageSize)
	if err != nil {
		return err
	}
	key := mapKey{guest.ID, pt.Root(), va}
	gpa, ok := h.mapped[key]
	if !ok {
		return fmt.Errorf("hv: no hypervisor mapping at %v to unmap", va)
	}
	delete(h.mapped, key)
	tr, rid := h.tracer()
	ustart := tr.Now()
	perf.Charge(h.Env, perf.CostMapPage)
	tr.Span(rid, "hv", trace.LayerHV, "unmap-page", ustart, tr.Now())
	tr.Add("hv.unmap.pages", 1)
	return guest.EPT.Unmap(gpa)
}

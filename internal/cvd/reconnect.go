package cvd

import (
	"fmt"

	"paradice/internal/hv"
	"paradice/internal/kernel"
)

// Driver VM restart support (§8): "a malicious guest VM can break the
// device ... One possible solution is to detect the broken device and
// restart it by simply restarting the driver VM." The frontends — guest
// state — survive; the backends die with the driver VM and are rebuilt
// against the new one.

// Stop terminates the backend: the dispatcher exits, and no part of the
// backend touches the ring page again. The ordering is deliberate and
// load-bearing for reconnection: stopped is set BEFORE the doorbell fires,
// so by the time Stop returns, (i) the dispatcher can only observe
// stopped=true and exit, and (ii) any in-flight handler thread — which
// checks stopped after executing its operation, before writing a response —
// will discard its result rather than scribble on a ring a successor
// backend may by then own. In-flight operations are therefore never
// answered by a stopped backend; Reconnect fails them with EREMOTE.
// Part of driver VM teardown; audited by the faults stress harness.
func (b *Backend) Stop() {
	b.stopped = true
	b.dropMapCache()
	if b.pool != nil {
		b.pool.Leave(b)
	}
	b.doorbell.Trigger()
}

// Reconnect binds an existing frontend to a freshly booted driver VM: the
// guest's ring page is shared into the new VM, a new backend dispatcher
// starts there (joining pool, the new driver VM's worker pool, unless nil),
// and any operations that were in flight when the old driver VM died are
// failed with EREMOTE so their issuers unblock. Guest file descriptors
// opened before the restart are invalid afterwards (the new driver has no
// state for them); applications reopen the device, exactly as after a real
// driver VM restart.
func Reconnect(fe *Frontend, h *hv.Hypervisor, driverVM *hv.VM, driverK *kernel.Kernel, devicePath string, pool *Pool) (*Backend, error) {
	node, ok := driverK.LookupDevice(devicePath)
	if !ok {
		return nil, fmt.Errorf("cvd: no device %s in restarted %s", devicePath, driverK.Name)
	}
	beGPA, err := h.SharePage(fe.guestVM, fe.ringGPA, driverVM)
	if err != nil {
		return nil, err
	}
	// Enter the next restart epoch BEFORE the successor backend attaches:
	// the new backend snapshots the bumped word, while anything left of the
	// old one — a dispatcher that was never stopped because its driver VM
	// was wedged rather than dead, a handler thread still holding a slot
	// index — observes the mismatch on its next ring write and discards.
	// Without this, a late pre-restart handler could complete into a slot
	// that was reclaimed and reposted in the new epoch.
	fe.ring.writeU32(hdrEpoch, fe.ring.readU32(hdrEpoch)+1)
	proc, err := driverK.NewProcess("cvd-backend-" + fe.guestVM.Name)
	if err != nil {
		return nil, err
	}
	be := fe.bind(proc, driverVM, driverK, node, beGPA, pool)
	fe.failInflight()
	return be, nil
}

// failInflight completes every non-free slot with EREMOTE and wakes its
// waiter — requests the dead driver VM will never answer. Slots already in
// slotDone keep their real response: the old backend finished the work but
// its completion interrupt may have been lost with the driver VM, so only
// the waiter's event needs (re-)triggering. Abandoned slots — their issuer
// already timed out with ETIMEDOUT — have no waiter and are simply
// reclaimed; the dead backend can never deliver their late response.
func (fe *Frontend) failInflight() {
	for s := 0; s < slotCount; s++ {
		st := fe.ring.slotState(s)
		if fe.abandoned[s] && st != slotFree {
			fe.abandoned[s] = false
			// recycleSlot, not a bare state write: a slot abandoned in
			// slotPosted/slotRunning still carries the trace request ID in
			// its sErrno bytes (the request-direction reuse); freeing it
			// without scrubbing would leave a stale RID where the next
			// reader of the slot expects an errno.
			fe.ring.recycleSlot(s)
			continue
		}
		switch st {
		case slotPosted, slotRunning:
			fe.ring.writeResponse(s, -1, int32(kernel.EREMOTE))
			fe.respEvents[s].Trigger()
		case slotDone:
			fe.respEvents[s].Trigger()
		}
	}
}

package cvd

import (
	"fmt"

	"paradice/internal/devfile"
	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/kernel"
	"paradice/internal/mem"
)

// Config describes one paravirtualized device file: which guest sees it,
// which driver VM device backs it, and the channel's transport policy.
type Config struct {
	HV       *hv.Hypervisor
	GuestVM  *hv.VM
	GuestK   *kernel.Kernel
	DriverVM *hv.VM
	DriverK  *kernel.Kernel

	// DevicePath is the real device file in the driver VM's devfs; the
	// guest's virtual device file mirrors it.
	DevicePath string
	// Specs is the ioctl analyzer's output for the device's driver; ioctl
	// commands without a spec fall back to the command-number macros.
	Specs map[devfile.IoctlCmd]*ioctlan.CmdSpec
	// Grants is the guest's grant table, shared by all frontends in the
	// guest. If nil, a table page is allocated and registered.
	Grants *grant.Table
	// Pool, when non-nil, is the driver VM's shared worker pool (pool.go):
	// this channel joins it at connect time, and the dispatcher enqueues
	// operations there instead of spawning one handler thread per operation.
	// nil keeps thread-per-op — the seed behavior.
	Pool *Pool

	Transport
}

// Connect builds a CVD channel: a shared ring page between the guest and
// driver VMs, interrupt vectors in both directions, the backend dispatcher
// in the driver VM, and a virtual device file in the guest's devfs backed by
// the frontend. Returns the frontend and backend halves.
func Connect(cfg Config) (*Frontend, *Backend, error) {
	path := cfg.DevicePath
	node, ok := cfg.DriverK.LookupDevice(path)
	if !ok {
		return nil, nil, fmt.Errorf("cvd: no device %s in %s", path, cfg.DriverK.Name)
	}

	// The ring page lives in guest memory and is shared into the driver VM.
	ringGPA, err := cfg.GuestK.AllocFrame()
	if err != nil {
		return nil, nil, err
	}
	beGPA, err := cfg.HV.SharePage(cfg.GuestVM, ringGPA, cfg.DriverVM)
	if err != nil {
		return nil, nil, err
	}

	grants := cfg.Grants
	if grants == nil {
		if grants, err = NewGuestGrantTable(cfg.HV, cfg.GuestVM, cfg.GuestK); err != nil {
			return nil, nil, err
		}
	}
	if cfg.GrantBatch {
		// Idempotent per (VM, table): guests that paravirtualize several
		// devices share one table and subscribe once.
		cfg.HV.EnableGrantCache(cfg.GuestVM, grants)
	}
	proc, err := cfg.DriverK.NewProcess("cvd-backend-" + cfg.GuestVM.Name)
	if err != nil {
		return nil, nil, err
	}

	fe := &Frontend{
		hv:         cfg.HV,
		guestVM:    cfg.GuestVM,
		guestK:     cfg.GuestK,
		transport:  cfg.Transport.resolved(),
		ring:       page{acc: &grant.GuestAccessor{Space: cfg.GuestVM.Space, GPA: ringGPA}},
		grants:     grants,
		specs:      cfg.Specs,
		ringGPA:    ringGPA,
		vecResp:    cfg.GuestVM.AllocVector(),
		vecNotif:   cfg.GuestVM.AllocVector(),
		pollWQ:     cfg.GuestK.NewWaitQueue("cvd-poll-" + path),
		hbEvent:    cfg.HV.Env.NewEvent("cvd-hb-" + path),
		drainEvent: cfg.HV.Env.NewEvent("cvd-drain-" + path),
		path:       path,
		vm:         cfg.GuestVM.Name,
		m:          newFeMetricNames(cfg.GuestVM.Name, path),
	}
	for i := range fe.respEvents {
		fe.respEvents[i] = cfg.HV.Env.NewEvent(fmt.Sprintf("cvd-resp-%s-%d", path, i))
	}
	fe.SetAdmission(cfg.Admission)
	if fe.transport.MapCache {
		fe.bulk = make(map[bulkKey]bulkGrant)
	}
	be := fe.bind(proc, cfg.DriverVM, cfg.DriverK, node, beGPA, cfg.Pool)
	cfg.GuestVM.RegisterISR(fe.vecResp, fe.scanDone)
	cfg.GuestVM.RegisterISR(fe.vecNotif, fe.handleNotifs)
	cfg.GuestK.RegisterDevice(path, fe, fe)
	return fe, be, nil
}

// bind builds a backend for fe's channel in the given driver VM and makes
// it the channel's backend. It is the one place a backend is attached to a
// frontend — Connect, Reconnect and CompleteHandover all come through here —
// so every backend the channel ever gets runs the frontend's Transport: the
// same transport mode and poll window, the same completion batching, a map
// cache when the channel has one, and the driver VM's worker pool (nil for
// thread-per-op).
func (fe *Frontend) bind(proc *kernel.Process, driverVM *hv.VM, driverK *kernel.Kernel,
	node *kernel.DeviceNode, ringGPA mem.GuestPhys, pool *Pool) *Backend {
	vecToBackend := driverVM.AllocVector()
	be := newBackend(proc, fe, driverVM, driverK, node, ringGPA, vecToBackend)
	if pool != nil {
		pool.Join(be)
	}
	if fe.transport.MapCache {
		// Every backend starts with an empty map cache subscribed to the
		// guest's grant table. After a Reconnect the frontend's live bulk
		// grants miss once and re-map against the new driver VM;
		// CompleteHandover seeds its successor's cache from the prep.
		be.enableMapCache(fe.grants)
	}
	be.frontendDoorbell = fe.scanDone
	fe.driverVM, fe.vecToBackend, fe.backend = driverVM, vecToBackend, be
	return be
}

// NewGuestGrantTable allocates and registers a grant-table page for a
// guest, for callers that paravirtualize several devices in one guest (one
// table per guest VM, shared by its frontends).
func NewGuestGrantTable(h *hv.Hypervisor, guestVM *hv.VM, guestK *kernel.Kernel) (*grant.Table, error) {
	gpa, err := guestK.AllocFrame()
	if err != nil {
		return nil, err
	}
	if err := h.RegisterGrantTable(guestVM, gpa); err != nil {
		return nil, err
	}
	return grant.NewTable(&grant.GuestAccessor{Space: guestVM.Space, GPA: gpa}), nil
}

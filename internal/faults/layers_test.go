package faults_test

// Per-layer property tests: each wired injection point, exercised in
// isolation, produces exactly the failure its layer promises — errors
// surface as errnos, memory stays untouched, interrupts drop or duplicate
// without corrupting ISR state.

import (
	"bytes"
	"testing"

	"paradice/internal/cvd"
	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/hv"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// miniRig is the smallest deployment that exercises the CVD choke points:
// one guest, one driver VM, one stress device.
type miniRig struct {
	env     *sim.Env
	h       *hv.Hypervisor
	guestK  *kernel.Kernel
	driverK *kernel.Kernel
	app     *kernel.Process
	drv     *stressDriver
	fe      *cvd.Frontend
	be      *cvd.Backend
}

func newMiniRig(t *testing.T) *miniRig {
	t.Helper()
	env := sim.NewEnv()
	h := hv.New(env, 64<<20)
	driverVM, err := h.CreateVM("driver", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK := kernel.New("driver", kernel.Linux, env, driverVM.Space, driverVM.RAM)
	guestVM, err := h.CreateVM("guest", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	guestK := kernel.New("guest", kernel.Linux, env, guestVM.Space, guestVM.RAM)
	drv, err := newStressDriver(driverK, 0)
	if err != nil {
		t.Fatal(err)
	}
	fe, be, err := cvd.Connect(cvd.Config{
		HV: h, GuestVM: guestVM, GuestK: guestK,
		DriverVM: driverVM, DriverK: driverK,
		DevicePath: stressPath,
		Transport:  cvd.Transport{Mode: cvd.Interrupts},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := guestK.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	return &miniRig{env: env, h: h, guestK: guestK, driverK: driverK,
		app: app, drv: drv, fe: fe, be: be}
}

// An injected hypercall copy failure surfaces as EFAULT to the guest and
// leaves the driver's memory untouched; the channel then carries the next
// operation normally.
func TestInjectedCopyFaultSurfacesAsEFAULT(t *testing.T) {
	r := newMiniRig(t)
	faults.Install(r.env, faults.New(1).FailAt("hv.copy", 1))
	defer faults.Uninstall(r.env)
	var errFirst, errSecond error
	r.app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open(stressPath, devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := r.app.AllocBytes([]byte("payload"))
		_, errFirst = tk.Write(fd, src, 7)
		_, errSecond = tk.Write(fd, src, 7)
	})
	r.env.Run()
	if !kernel.IsErrno(errFirst, kernel.EFAULT) {
		t.Fatalf("first write: %v, want EFAULT", errFirst)
	}
	if errSecond != nil {
		t.Fatalf("second write: %v, want success", errSecond)
	}
	// The faulted copy never reached the driver: only the second write's
	// bytes are in its store.
	if string(r.drv.data) != "payload" {
		t.Fatalf("driver data = %q, want exactly one payload", r.drv.data)
	}
}

// An injected grant-declaration failure surfaces as ENOMEM before anything
// crosses the boundary; the table is not leaked and the next declaration
// works.
func TestInjectedDeclareFailureSurfacesAsENOMEM(t *testing.T) {
	r := newMiniRig(t)
	faults.Install(r.env, faults.New(1).FailAt("grant.declare", 1))
	defer faults.Uninstall(r.env)
	var errFirst, errSecond error
	r.app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open(stressPath, devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := r.app.AllocBytes([]byte("x"))
		_, errFirst = tk.Write(fd, src, 1)
		_, errSecond = tk.Write(fd, src, 1)
	})
	r.env.Run()
	if !kernel.IsErrno(errFirst, kernel.ENOMEM) {
		t.Fatalf("first write: %v, want ENOMEM", errFirst)
	}
	if errSecond != nil {
		t.Fatalf("second write: %v, want success", errSecond)
	}
	if r.be.OpsHandled == 0 {
		t.Fatal("backend handled nothing; the channel should still work")
	}
}

// An injected grant-validation denial makes the hypervisor refuse a
// perfectly legitimate driver copy — the driver sees the same EFAULT a
// compromised driver would, and the guest gets an honest errno.
func TestInjectedValidateDenialSurfacesAsEFAULT(t *testing.T) {
	r := newMiniRig(t)
	faults.Install(r.env, faults.New(1).FailAt("grant.validate", 1))
	defer faults.Uninstall(r.env)
	var errFirst error
	r.app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open(stressPath, devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := r.app.AllocBytes([]byte("y"))
		_, errFirst = tk.Write(fd, src, 1)
	})
	r.env.Run()
	if !kernel.IsErrno(errFirst, kernel.EFAULT) {
		t.Fatalf("write under injected denial: %v, want EFAULT", errFirst)
	}
	if len(r.drv.data) != 0 {
		t.Fatalf("driver data = %q, want none (copy was denied)", r.drv.data)
	}
}

// Dropped and duplicated inter-VM interrupts: a drop means the ISR never
// runs, a dup means it runs twice; ISR counts are exact.
func TestInjectedIRQDropAndDup(t *testing.T) {
	env := sim.NewEnv()
	h := hv.New(env, 16<<20)
	vm, err := h.CreateVM("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	vec := vm.AllocVector()
	fired := 0
	vm.RegisterISR(vec, func() { fired++ })
	// A dropped delivery returns before the dup point is consulted, so the
	// dup point's first hit is the SECOND send.
	faults.Install(env, faults.New(1).
		FailAt("hv.irq.drop", 1). // first send: lost
		FailAt("hv.irq.dup", 1))  // second send: doubled
	defer faults.Uninstall(env)
	h.SendInterrupt(vm, vec)
	env.Run()
	if fired != 0 {
		t.Fatalf("dropped interrupt fired %d times", fired)
	}
	h.SendInterrupt(vm, vec)
	env.Run()
	if fired != 2 {
		t.Fatalf("duplicated interrupt fired %d times, want 2", fired)
	}
	h.SendInterrupt(vm, vec)
	env.Run()
	if fired != 3 {
		t.Fatalf("plain interrupt brought the count to %d, want 3", fired)
	}
}

// An injected IOMMU translation fault kills one device DMA access at the
// IOMMU — physical memory is untouched — and the next access works.
func TestInjectedIOMMUTranslationFault(t *testing.T) {
	env := sim.NewEnv()
	phys := mem.NewPhysMem()
	alloc := phys.NewAllocator("dev", 0, 1<<20)
	spa, err := alloc.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	dom := iommu.NewDomain("testdev")
	if err := dom.MapRange(0, spa, 1, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	dma := &iommu.DMA{Dom: dom, Phys: phys, Env: env}
	faults.Install(env, faults.New(1).FailAt("iommu.translate", 2))
	defer faults.Uninstall(env)

	if err := dma.Write(0, []byte("dma data")); err != nil {
		t.Fatalf("first DMA write: %v", err)
	}
	err = dma.Write(0, []byte("OVERWRITE"))
	if _, ok := err.(*iommu.DMAFault); !ok {
		t.Fatalf("second DMA write: %v, want *iommu.DMAFault", err)
	}
	got := make([]byte, 8)
	if err := dma.Read(0, got); err != nil {
		t.Fatalf("third DMA read: %v", err)
	}
	if !bytes.Equal(got, []byte("dma data")) {
		t.Fatalf("faulted DMA modified memory: %q", got)
	}
}

// A backend killed by the fault plan stops dispatching; Hits/Injected
// bookkeeping lets the harness tell exactly when.
func TestInjectedBackendDeathStopsDispatch(t *testing.T) {
	r := newMiniRig(t)
	plan := faults.New(1).FailAt("cvd.backend.die", 6)
	faults.Install(r.env, plan)
	defer faults.Uninstall(r.env)
	completed := 0
	r.app.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open(stressPath, devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := r.app.AllocBytes([]byte("z"))
		for i := 0; i < 10; i++ {
			if _, err := tk.Write(fd, src, 1); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			completed++
		}
		t.Error("all writes returned despite the backend dying")
	})
	r.env.RunUntil(sim.Time(20 * sim.Millisecond))
	if plan.Injected("cvd.backend.die") != 1 {
		t.Fatalf("backend death injected %d times, want 1", plan.Injected("cvd.backend.die"))
	}
	if completed == 0 || completed == 10 {
		t.Fatalf("completed writes = %d, want some but not all", completed)
	}
	// The post-death operation hangs until a Reconnect — exactly the state
	// the restart-under-load test (internal/cvd) recovers from.
	if got := r.env.Deadlocked(); len(got) == 0 {
		t.Fatal("no deadlocked process; the post-death write should be blocked")
	}
}

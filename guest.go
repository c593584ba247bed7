package paradice

import (
	"fmt"

	"paradice/internal/cvd"
	"paradice/internal/devfile"
	"paradice/internal/devinfo"
	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/kernel"
	"paradice/internal/perf"
	"paradice/internal/sim"
)

// Guest is one guest VM on a Paradice machine: its own kernel, its grant
// table (one page per guest VM, shared by all of its CVD frontends), and
// the virtual device files it has paravirtualized.
type Guest struct {
	M  *Machine
	VM *hv.VM
	K  *kernel.Kernel

	Grants    *grant.Table
	Frontends map[string]*cvd.Frontend
	Backends  map[string]*cvd.Backend

	index   int
	fgEvent *sim.Event
}

// AddGuest creates a guest VM running the given OS flavor, with the device
// info modules and virtual PCI bus installed (§5.1).
func (m *Machine) AddGuest(name string, flavor kernel.Flavor) (*Guest, error) {
	if m.Kind != KindParadice {
		return nil, errNotParadice
	}
	vm, err := m.HV.CreateVM(name, m.cfg.GuestRAM)
	if err != nil {
		return nil, err
	}
	k := kernel.New(name, flavor, m.Env, vm.Space, m.cfg.GuestRAM)
	k.WakePenalty = perf.CostVMExitIRQ
	grants, err := cvd.NewGuestGrantTable(m.HV, vm, k)
	if err != nil {
		return nil, err
	}
	g := &Guest{
		M: m, VM: vm, K: k, Grants: grants,
		Frontends: make(map[string]*cvd.Frontend),
		Backends:  make(map[string]*cvd.Backend),
		index:     len(m.guests),
	}
	devinfo.InstallVirtualPCIBus(k)
	m.guests = append(m.guests, g)
	return g, nil
}

// Paravirtualize creates virtual device files in the guest for the given
// device paths, each backed by a CVD channel to the driver VM, and installs
// the matching device info module.
func (g *Guest) Paravirtualize(paths ...string) error {
	for _, path := range paths {
		if _, dup := g.Frontends[path]; dup {
			return fmt.Errorf("paradice: %s already paravirtualized in %s", path, g.K.Name)
		}
		var specs map[devfile.IoctlCmd]*ioctlan.CmdSpec
		if path == PathGPU {
			specs = g.M.drmSpec
		}
		// Placement decides which driver-VM shard serves this path; the
		// channel connects to that shard's kernel and joins its worker pool.
		sh := g.M.ShardFor(path)
		fe, be, err := cvd.Connect(cvd.Config{
			HV: g.M.HV, GuestVM: g.VM, GuestK: g.K,
			DriverVM: sh.VM, DriverK: sh.K,
			DevicePath: path, Specs: specs, Grants: g.Grants,
			Pool:      sh.Pool,
			Transport: g.M.cfg.transport(),
		})
		if err != nil {
			return err
		}
		g.Frontends[path] = fe
		g.Backends[path] = be
		g.installDevInfo(path)
		if path == PathGPU && g.M.cfg.DataIsolation {
			if err := g.enableGPURegion(be); err != nil {
				return err
			}
		}
		if isGatedInputPath(path) {
			g.wireInputGate(path)
			// The first guest to paravirtualize a gated input device holds
			// the virtual terminal by default, else its notifications would
			// be dropped before anyone called SetForeground.
			if g.M.foreground == nil {
				g.M.SetForeground(g)
			}
		}
	}
	return nil
}

// installDevInfo loads the class's device info module into the guest.
func (g *Guest) installDevInfo(path string) {
	switch path {
	case PathGPU:
		devinfo.InstallGPU(g.K, g.M.DRM.Model().Vendor, g.M.DRM.Model().Device, g.M.GPU.VRAMSize())
	case PathMouse:
		devinfo.InstallInput(g.K, path, "Dell USB Mouse", 1<<1|1<<2)
	case PathKeyboard:
		devinfo.InstallInput(g.K, path, "Dell USB Keyboard", 1<<1)
	case PathCamera:
		devinfo.InstallCamera(g.K, path, "Logitech HD Pro Webcam C920")
	case PathAudio:
		devinfo.InstallAudio(g.K, path, "Intel Panther Point HD Audio")
	case PathNetmap:
		devinfo.InstallNetmapEthernet(g.K, "em0")
	}
}

// diPartitions is how many guests share the GPU memory under data
// isolation: two, giving each half the VRAM as in §6.
const diPartitions = 2

// enableGPURegion gives this guest its protected memory region: an equal
// VRAM partition plus the per-region system page pool (§5.3).
func (g *Guest) enableGPURegion(be *cvd.Backend) error {
	if g.index >= diPartitions {
		return fmt.Errorf("paradice: guest %d exceeds the %d VRAM partitions", g.index, diPartitions)
	}
	share := g.M.GPU.VRAMSize() / diPartitions
	lo := uint64(g.index) * share
	return g.M.DRM.AddGuestRegion(be.Proc(), g.VM, lo, lo+share)
}

// NewProcess creates an application process in the guest.
func (g *Guest) NewProcess(name string) (*kernel.Process, error) {
	return g.K.NewProcess(name)
}

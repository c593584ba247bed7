// Package paradice assembles the full systems the paper evaluates: the
// Paradice machine of Figure 1(c) — a bare-metal hypervisor, a driver VM
// owning the real devices and drivers through device assignment, and guest
// VMs reaching those devices through virtual device files served by the
// Common Virtual Driver — plus the two baselines every experiment compares
// against, native execution and direct device assignment.
//
// A Machine carries one of each device class from Table 1: a Radeon-class
// GPU behind the DRM driver, an e1000-class NIC behind netmap, an evdev
// mouse, a UVC camera, and an HD Audio PCM device. Applications are
// simulated processes that issue file operations against device files; on a
// Paradice machine they run in guest VMs added with AddGuest, on the
// baselines they run directly on the machine's kernel.
package paradice

import (
	"fmt"
	"strings"

	"paradice/internal/cvd"
	"paradice/internal/devfile"
	"paradice/internal/device/audio"
	"paradice/internal/device/camera"
	"paradice/internal/device/gpu"
	"paradice/internal/device/input"
	"paradice/internal/device/nic"
	"paradice/internal/driver/drm"
	"paradice/internal/driver/evdev"
	"paradice/internal/driver/netmapdrv"
	"paradice/internal/driver/pcm"
	"paradice/internal/driver/uvc"
	"paradice/internal/handover"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/supervise"
	"paradice/internal/trace"
)

// Mode selects the CVD transport.
type Mode = cvd.Mode

// Transport modes (re-exported from the CVD).
const (
	Interrupts = cvd.Interrupts
	Polling    = cvd.Polling
	Adaptive   = cvd.Adaptive
)

// OS flavors for guests (re-exported from the kernel).
const (
	Linux   = kernel.Linux
	FreeBSD = kernel.FreeBSD
)

// Kind is the platform variant a Machine embodies.
type Kind int

// Platform kinds.
const (
	// KindParadice is the paper's system: driver VM + guest VMs + CVD.
	KindParadice Kind = iota
	// KindNative runs applications directly on the machine that owns the
	// devices — the "Native" baseline.
	KindNative
	// KindDeviceAssign runs applications in a VM that owns the devices
	// directly — the "Device-Assign" baseline (interrupts routed through
	// the hypervisor, everything else native).
	KindDeviceAssign
)

func (k Kind) String() string {
	switch k {
	case KindNative:
		return "native"
	case KindDeviceAssign:
		return "device-assign"
	default:
		return "paradice"
	}
}

// Config sizes and configures a Machine. Zero values select defaults.
//
// Mode, PollWindow, RequestDeadline, MapCache, MapThreshold, CoalesceWindow,
// BatchSize, GrantBatch and Admission are the CVD transport policy every
// channel a guest paravirtualizes runs; each is documented once, on the
// cvd.Transport field of the same name.
type Config struct {
	// HostRAM is total system memory (default 512 MiB).
	HostRAM uint64
	// DriverRAM is the driver VM's (or the native machine's) memory
	// (default 64 MiB).
	DriverRAM uint64
	// GuestRAM is each guest VM's memory (default 64 MiB).
	GuestRAM uint64
	// VRAM is GPU device memory (default 1 GiB, lazily backed).
	VRAM uint64
	// Mode: see cvd.Transport.
	Mode Mode
	// DataIsolation enables the §4.2/§5.3 device data isolation
	// configuration for the GPU.
	DataIsolation bool
	// GPUModel selects the card (Table 1: "hd6450" (default), "hd4650",
	// "x1300", "gm965"). Device data isolation requires the Evergreen-class
	// hd6450 (§5.3).
	GPUModel string
	// PollWindow: see cvd.Transport.
	PollWindow sim.Duration
	// Supervision enables the driver-VM watchdog (internal/supervise): a
	// hypervisor-layer health monitor that heartbeats every CVD channel,
	// restarts the driver VM automatically on failure under an
	// exponential-backoff budget, and degrades dead devices to fail-fast
	// ENODEV when the budget is exhausted. The watchdog keeps the event
	// calendar busy, so supervised machines should be driven with RunUntil
	// (or stop the supervisor before draining with Run). Paradice only.
	Supervision bool
	// Supervise tunes the watchdog; zero fields take the supervise package
	// defaults. Ignored unless Supervision is set.
	Supervise supervise.Config
	// RequestDeadline: see cvd.Transport. When Supervision is on and this
	// is zero, a default of 50 ms is applied so detection by timeout is
	// never slower than detection by watchdog.
	RequestDeadline sim.Duration
	// MapCache: see cvd.Transport; the "bulk" experiment measures the
	// crossover.
	MapCache bool
	// MapThreshold: see cvd.Transport.
	MapThreshold int
	// CoalesceWindow: see cvd.Transport.
	CoalesceWindow sim.Duration
	// BatchSize: see cvd.Transport.
	BatchSize int
	// TLB arms the hypervisor's software TLB: per-VM caches of
	// guest-VA→system-PA translations consulted by the assisted-copy and
	// buffer-mapping paths before the full per-page walks of §5.2, with
	// deterministic invalidation on page-table edits, EPT changes, grant
	// revocation, and driver-VM restart. Off by default (the paper's
	// walk-every-time behavior); the "walkcache" experiment measures the
	// hit-rate speedup.
	TLB bool
	// GrantBatch: see cvd.Transport.
	GrantBatch bool
	// Admission: see cvd.Transport. Applied to every frontend a guest
	// paravirtualizes.
	Admission map[uint8]int
	// DriverShards partitions the machine's devices across N driver VMs
	// (default 1 — the paper's single driver VM of Figure 1(c)). The standard
	// devices are placed round-robin across shards at boot; harness devices
	// registered via OnDriverVMBoot route by PinDevice pin or a stable hash
	// of the path (hv.Placement). Each shard has its own kernel, its own CVD
	// backends, its own supervisor (under Supervision), and restarts or hands
	// over independently, so one shard's outage leaves the other shards'
	// guests undisturbed. Paradice machines only; the baselines always run 1.
	DriverShards int
	// Workers sizes each driver-VM shard's shared backend worker pool
	// (cvd.Pool): per-channel dispatchers enqueue forwarded operations into
	// per-channel FIFO queues drained by this many worker threads under
	// deficit round-robin, bounding driver-VM thread count and isolating
	// quiet guests from a hot one, with a deficit-round-robin quantum of
	// one operation (strict round-robin). Zero keeps the paper's
	// thread-per-operation behavior.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.HostRAM == 0 {
		c.HostRAM = 512 << 20
	}
	if c.DriverRAM == 0 {
		c.DriverRAM = 64 << 20
	}
	if c.GuestRAM == 0 {
		c.GuestRAM = 64 << 20
	}
	if c.VRAM == 0 {
		c.VRAM = 1 << 30
	}
	if c.DriverShards < 1 {
		c.DriverShards = 1
	}
	return c
}

// transport is the CVD transport policy every channel on the machine runs.
func (c Config) transport() cvd.Transport {
	return cvd.Transport{
		Mode:            c.Mode,
		PollWindow:      c.PollWindow,
		RequestDeadline: c.RequestDeadline,
		MapCache:        c.MapCache,
		MapThreshold:    c.MapThreshold,
		CoalesceWindow:  c.CoalesceWindow,
		BatchSize:       c.BatchSize,
		GrantBatch:      c.GrantBatch,
		Admission:       c.Admission,
	}
}

// Standard device paths on every Machine.
const (
	PathGPU      = "/dev/dri/card0"
	PathMouse    = "/dev/input/event0"
	PathKeyboard = "/dev/input/event1"
	PathCamera   = "/dev/video0"
	PathAudio    = "/dev/snd/pcmC0D0p"
	PathNetmap   = "/dev/netmap"
)

// DriverShard is one driver VM of a (possibly sharded) machine: its VM and
// kernel, and — when Config.Workers > 0 — the worker pool shared by every
// CVD backend in it. A restart or handover of the shard replaces VM, K, and
// Pool in place; the DriverShard pointer itself is stable for the machine's
// lifetime.
type DriverShard struct {
	Index int
	VM    *hv.VM
	K     *kernel.Kernel
	Pool  *cvd.Pool
}

// Machine is one assembled platform.
type Machine struct {
	Kind Kind
	Env  *sim.Env
	HV   *hv.Hypervisor

	// DriverVM/DriverK host the real drivers (and, on the baselines, the
	// applications too). On a sharded machine they alias shard 0.
	DriverVM *hv.VM
	DriverK  *kernel.Kernel

	// Devices and their drivers.
	GPU      *gpu.GPU
	DRM      *drm.Driver
	NIC      *nic.NIC
	Netmap   *netmapdrv.Driver
	Mouse    *input.Device
	Evdev    *evdev.Driver
	Keyboard *input.Device
	Kbdev    *evdev.Driver
	Camera   *camera.Device
	UVC      *uvc.Driver
	Audio    *audio.Device
	PCM      *pcm.Driver

	// GPUDomain and MCGate are the isolation handles for the GPU.
	GPUDomain *iommu.Domain
	MCGate    *hv.Gate

	cfg        Config
	gpuModel   drm.Model
	drmSpec    map[devfile.IoctlCmd]*ioctlan.CmdSpec
	guests     []*Guest
	foreground *Guest

	// Driver-VM sharding: the shards (shard 0 aliased by DriverVM/DriverK)
	// and the path→shard routing table.
	shards    []*DriverShard
	placement *hv.Placement

	// Driver-VM restart/supervision state. On a sharded machine each shard
	// has its own supervisor; supervisor aliases shard 0's.
	restarting   bool
	restartEpoch uint64
	supervisor   *supervise.Supervisor
	supervisors  []*supervise.Supervisor
	// handovers is the machine's planned-handover episode log (committed and
	// aborted alike), in order.
	handovers []handover.Episode
	// onDriverBoot hooks run against every freshly booted driver kernel
	// (construction, restart replacement, handover successor).
	onDriverBoot []func(*kernel.Kernel) error
}

// vramBase is where the GPU aperture sits in system-physical space, clear
// of host RAM.
const vramBase = 0x8_0000_0000

// New builds a Paradice machine: hypervisor, driver VM with all five device
// classes assigned, drivers loaded, ready for AddGuest.
func New(cfg Config) (*Machine, error) { return build(KindParadice, cfg) }

// NewNative builds the native baseline: the same devices and drivers on a
// bare machine (interrupts at native latency, no CVD, no hypervisor in the
// data path).
func NewNative(cfg Config) (*Machine, error) { return build(KindNative, cfg) }

// NewDeviceAssignment builds the direct device assignment baseline: one VM
// owns the devices; interrupts route through the hypervisor.
func NewDeviceAssignment(cfg Config) (*Machine, error) { return build(KindDeviceAssign, cfg) }

func build(kind Kind, cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv()
	h := hv.New(env, cfg.HostRAM)
	if cfg.TLB {
		// Armed before any VM exists, so every VM — driver and guests alike —
		// gets its translation cache and invalidation hooks from creation.
		h.EnableTLB()
	}
	m := &Machine{Kind: kind, Env: env, HV: h, cfg: cfg}

	// Create the devices once — they are hardware and survive driver VM
	// restarts. An explicit Config.VRAM overrides the model's memory size.
	model, err0 := drm.LookupModel(cfg.GPUModel)
	if err0 != nil {
		return nil, err0
	}
	vram := cfg.VRAM
	if cfg.VRAM == 1<<30 && model.VRAM != 0 {
		vram = model.VRAM
	}
	m.cfg.VRAM = vram
	m.GPU = gpu.New(env, h.Phys, vramBase, vram)
	m.NIC = nic.New(env)
	mouseLat := perf.CostVMExitIRQ
	if kind == KindNative {
		mouseLat = perf.CostNativeIRQ
	}
	m.Mouse = input.New(env, "mouse", sim.Duration(mouseLat))
	m.Keyboard = input.New(env, "keyboard", sim.Duration(mouseLat))
	m.Camera = camera.New(env)
	m.Audio = audio.New(env)

	var err error
	m.gpuModel, err = drm.LookupModel(cfg.GPUModel)
	if err != nil {
		return nil, err
	}
	m.drmSpec, err = drm.AnalyzedSpecs()
	if err != nil {
		return nil, err
	}

	// Device placement across driver-VM shards. The baselines always run a
	// single "shard" (their one machine/VM owns everything); on a Paradice
	// machine the standard devices go round-robin in canonical class order,
	// so e.g. 2 shards split GPU+input from NIC+camera+audio.
	if kind != KindParadice {
		m.cfg.DriverShards = 1
	}
	m.placement = hv.NewPlacement(m.cfg.DriverShards)
	for i, path := range []string{PathGPU, PathNetmap, PathMouse, PathKeyboard, PathCamera, PathAudio} {
		m.placement.Assign(path, i%m.placement.Shards())
	}
	m.shards = make([]*DriverShard, m.placement.Shards())
	for i := range m.shards {
		m.shards[i] = &DriverShard{Index: i}
	}
	for i := range m.shards {
		if err := m.bootShard(i); err != nil {
			return nil, err
		}
	}
	if cfg.Supervision {
		if kind != KindParadice {
			return nil, fmt.Errorf("paradice: supervision requires a driver VM (Paradice machines only)")
		}
		if m.cfg.RequestDeadline == 0 {
			m.cfg.RequestDeadline = 50 * sim.Millisecond
		}
		// One supervisor per shard, each sweeping (and restarting) only its
		// own shard's channels. With a single shard the proc-panic hook and
		// sweep behavior are exactly the single-supervisor seed's.
		for _, sh := range m.shards {
			scfg := cfg.Supervise
			if len(m.shards) > 1 {
				name := sh.K.Name
				scfg.OwnsProc = func(proc string) bool {
					return strings.HasSuffix(proc, "@"+name)
				}
			}
			m.supervisors = append(m.supervisors, supervise.Start(env, shardTarget{m: m, idx: sh.Index}, scfg))
		}
		m.supervisor = m.supervisors[0]
		env.OnProcPanic = func(pp *sim.ProcPanic) bool {
			for _, s := range m.supervisors {
				if s.HandleProcPanic(pp) {
					return true
				}
			}
			return false
		}
	}
	return m, nil
}

// bootShard creates shard i's driver VM and kernel, assigns the shard's
// devices to it, attaches their drivers, replays the boot hooks, and (when
// Config.Workers > 0) starts the shard's worker pool. Called at machine
// construction and again by RestartDriverShard; shard 0 doubles as the
// machine's DriverVM/DriverK.
func (m *Machine) bootShard(i int) error {
	drvVM, drvK, err := m.newShardVM(i)
	if err != nil {
		return err
	}
	sh := m.shards[i]
	sh.VM, sh.K = drvVM, drvK
	if i == 0 {
		m.DriverVM, m.DriverK = drvVM, drvK
	}
	if err := m.attachDrivers(drvVM, drvK, i); err != nil {
		return err
	}
	if err := m.runDriverBootHooks(drvK); err != nil {
		return err
	}
	if m.cfg.Workers > 0 && m.Kind == KindParadice {
		sh.Pool = cvd.NewPool(drvK, m.cfg.Workers, 1)
	}
	return nil
}

// Shards returns the machine's driver-VM shards (length 1 unless
// Config.DriverShards asked for more).
func (m *Machine) Shards() []*DriverShard { return m.shards }

// ShardFor returns the driver-VM shard serving a device path — the pinned
// shard for the standard devices and PinDevice'd paths, the stable hash
// route otherwise.
func (m *Machine) ShardFor(path string) *DriverShard {
	return m.shards[m.placement.Route(path)]
}

// PinDevice routes a device path to a specific driver-VM shard, overriding
// the hash fallback. Call before any guest paravirtualizes the path; the
// device itself must be registered in that shard's kernel (OnDriverVMBoot
// hooks run against every shard, so hook-installed devices qualify
// everywhere).
func (m *Machine) PinDevice(path string, shard int) error {
	if m.Kind != KindParadice {
		return ErrNoDriverVM
	}
	if shard < 0 || shard >= len(m.shards) {
		return fmt.Errorf("paradice: shard %d out of range (machine has %d)", shard, len(m.shards))
	}
	m.placement.Assign(path, shard)
	return nil
}

// OnDriverVMBoot registers fn to run against the driver kernel of every
// driver VM this machine boots from now on — restart replacements and
// handover successors alike, in every shard — and runs it against each
// current driver kernel immediately. Harnesses use it to install auxiliary
// devices (e.g. the load sink) that must exist in every driver-VM
// generation, or a Reconnect after a restart (and a CompleteHandover during
// a handover) cannot find the device in the replacement kernel.
func (m *Machine) OnDriverVMBoot(fn func(*kernel.Kernel) error) error {
	if m.Kind != KindParadice {
		return ErrNoDriverVM
	}
	m.onDriverBoot = append(m.onDriverBoot, fn)
	for _, sh := range m.shards {
		if err := fn(sh.K); err != nil {
			return err
		}
	}
	return nil
}

// runDriverBootHooks replays the registered OnDriverVMBoot hooks against a
// freshly booted driver kernel.
func (m *Machine) runDriverBootHooks(k *kernel.Kernel) error {
	for _, fn := range m.onDriverBoot {
		if err := fn(k); err != nil {
			return err
		}
	}
	return nil
}

// newShardVM boots shard i's driver VM and kernel WITHOUT attaching any
// device. A planned handover calls this during its prepare stage: the
// successor boots side-by-side while the predecessor — still the shard's
// VM, still owning its devices — keeps serving. Shard 0 keeps the seed's
// "driver" name (its generations are byte-compatible with the unsharded
// machine); shard i > 0 is "driver<i+1>".
func (m *Machine) newShardVM(i int) (*hv.VM, *kernel.Kernel, error) {
	name := "driver"
	if i > 0 {
		name = fmt.Sprintf("driver%d", i+1)
	}
	drvVM, err := m.HV.CreateVM(name, m.cfg.DriverRAM)
	if err != nil {
		return nil, nil, err
	}
	drvK := kernel.New(name, kernel.Linux, m.Env, drvVM.Space, m.cfg.DriverRAM)
	if m.Kind != KindNative {
		// Threads in a VM pay the vCPU-kick penalty on wake-ups.
		drvK.WakePenalty = perf.CostVMExitIRQ
	}
	return drvVM, drvK, nil
}

// attachDrivers assigns shard's devices to the given driver VM and attaches
// their drivers, replacing the machine's driver handles for those devices.
// From this point the shard's devices interrupt into drvVM and DMA through
// its domains — the previous driver VM, if any, no longer serves them. On a
// single-shard machine every device belongs to shard 0 and this is the full
// seed attach sequence.
func (m *Machine) attachDrivers(drvVM *hv.VM, drvK *kernel.Kernel, shard int) error {
	owns := func(path string) bool { return m.placement.Route(path) == shard }
	// irqFor wires a device interrupt to a driver-VM ISR with the
	// platform's delivery latency.
	irqFor := func(isr func()) func() {
		if m.Kind == KindNative {
			return func() { m.Env.After(perf.CostNativeIRQ, isr) }
		}
		vec := drvVM.AllocVector()
		drvVM.RegisterISR(vec, isr)
		return func() { m.HV.DeviceInterrupt(drvVM, vec) }
	}

	// GPU + DRM.
	if owns(PathGPU) {
		bars := []hv.BAR{{Name: "gpu-vram", SPA: vramBase, Size: m.cfg.VRAM}}
		assign := m.HV.AssignDevice
		if m.cfg.DataIsolation {
			assign = m.HV.AssignDeviceIsolated
		}
		dom, gpas, err := assign(drvVM, "gpu", bars)
		if err != nil {
			return err
		}
		m.GPUDomain = dom
		var gpuRaise func()
		drmDrv, err := drm.AttachModel(drvK, m.GPU, m.gpuModel, gpas[0], func(isr func()) {
			gpuRaise = irqFor(isr)
		})
		if err != nil {
			return err
		}
		m.DRM = drmDrv
		m.GPU.Connect(&iommu.DMA{Dom: dom, Phys: m.HV.Phys, Env: m.Env}, func() { gpuRaise() })
		m.MCGate = hv.NewGate("gpu-mc")
		if m.cfg.DataIsolation {
			// The hypervisor takes the MC register page away from the driver
			// VM (§5.3 change iii) and the driver switches to the
			// isolation-compatible configuration.
			m.MCGate.Revoke()
			if err := m.DRM.EnableDataIsolation(m.HV, drvVM, dom, m.MCGate); err != nil {
				return err
			}
		}
	}

	// NIC + netmap.
	if owns(PathNetmap) {
		nicDom, _, err := m.HV.AssignDevice(drvVM, "nic", nil)
		if err != nil {
			return err
		}
		m.NIC.Connect(&iommu.DMA{Dom: nicDom, Phys: m.HV.Phys, Env: m.Env})
		m.Netmap, err = netmapdrv.Attach(drvK, m.NIC)
		if err != nil {
			return err
		}
	}

	// Input devices + evdev.
	if owns(PathMouse) {
		m.Evdev = evdev.Attach(drvK, m.Mouse, PathMouse)
	}
	if owns(PathKeyboard) {
		m.Kbdev = evdev.Attach(drvK, m.Keyboard, PathKeyboard)
	}

	// Camera + UVC.
	if owns(PathCamera) {
		camDom, _, err := m.HV.AssignDevice(drvVM, "camera", nil)
		if err != nil {
			return err
		}
		m.Camera.Connect(&iommu.DMA{Dom: camDom, Phys: m.HV.Phys, Env: m.Env})
		m.UVC = uvc.Attach(drvK, m.Camera, PathCamera)
	}

	// Audio + PCM.
	if owns(PathAudio) {
		audDom, _, err := m.HV.AssignDevice(drvVM, "audio", nil)
		if err != nil {
			return err
		}
		m.Audio.Connect(&iommu.DMA{Dom: audDom, Phys: m.HV.Phys, Env: m.Env})
		m.PCM, err = pcm.Attach(drvK, m.Audio, PathAudio)
		if err != nil {
			return err
		}
	}
	return nil
}

// AppKernel returns the kernel applications run on for the baseline
// platforms. On a Paradice machine, use AddGuest and the Guest's kernel.
func (m *Machine) AppKernel() *kernel.Kernel {
	return m.DriverK
}

// Guests returns the guest VMs added so far.
func (m *Machine) Guests() []*Guest { return m.guests }

// StartTrace installs a fresh tracer on the machine's environment and
// returns it. Every layer a request touches — system call, CVD frontend,
// hypervisor, inter-VM interrupts, CVD backend, driver, device — emits spans
// and metrics into it from then on; export with trace.WriteChrome /
// WriteMetrics. Tracing reads the virtual clock but never advances it, so a
// traced run's timings are bit-identical to an untraced run of the same
// seed. Call StopTrace when done (tests must, or the tracer registry pins
// the environment for the process lifetime).
func (m *Machine) StartTrace() *trace.Tracer {
	t := trace.New()
	trace.Install(m.Env, t)
	return t
}

// StopTrace detaches the machine's tracer, returning it (nil if none was
// installed). The returned tracer's events and metrics remain readable.
func (m *Machine) StopTrace() *trace.Tracer {
	t := trace.Get(m.Env)
	trace.Uninstall(m.Env)
	return t
}

// Tracer returns the machine's installed tracer, or nil.
func (m *Machine) Tracer() *trace.Tracer { return trace.Get(m.Env) }

// Run drives the simulation until the event calendar drains.
func (m *Machine) Run() { m.Env.Run() }

// RunUntil drives the simulation up to the given time.
func (m *Machine) RunUntil(t sim.Time) { m.Env.RunUntil(t) }

// Errors.
var errNotParadice = fmt.Errorf("paradice: guests exist only on a Paradice machine")

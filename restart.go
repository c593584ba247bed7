package paradice

import (
	"errors"
	"fmt"
	"sort"

	"paradice/internal/cvd"
	"paradice/internal/faults"
	"paradice/internal/perf"
)

// Sentinel errors for driver-VM lifecycle failures (restart and handover).
// Callers match with errors.Is; the formatted returns below wrap these with
// the same messages the string-only errors used to carry.
var (
	// ErrNoDriverVM: the machine is a baseline (native / device-assign) and
	// has no driver VM to restart or hand over.
	ErrNoDriverVM = errors.New("paradice: only a Paradice machine has a driver VM to restart")
	// ErrDataIsolationRestart: restart/handover with device data isolation
	// enabled is not supported (the hypervisor's protected-region state would
	// need migrating to the new driver VM's EPT).
	ErrDataIsolationRestart = errors.New("paradice: driver VM restart with data isolation is not supported")
	// ErrRestartInProgress: another restart or handover holds the machine's
	// lifecycle lock.
	ErrRestartInProgress = errors.New("paradice: driver VM restart already in progress")
	// ErrRestartFailed: the replacement driver VM failed to come up (includes
	// the injected "machine.restart.fail" fault). The machine is untouched.
	ErrRestartFailed = errors.New("paradice: driver VM restart failed")
)

// RestartDriverVM implements the recovery path §8 sketches for a device
// broken by a malicious guest ("detect the broken device and restart it by
// simply restarting the driver VM"): the old driver VM is abandoned, every
// device gets a function-level reset, a fresh driver VM boots with fresh
// drivers, and each guest's CVD frontends are reconnected to new backends.
// With Config.Supervision enabled the supervisor invokes this automatically;
// it remains callable as the manual operator action.
//
// Consequences for guests, as on the real system: operations in flight when
// the driver VM died fail with EREMOTE, and file descriptors opened before
// the restart are invalid — applications reopen the device and continue
// (internal/usrlib's WithReopen packages that retry loop). The reboot costs
// perf.CostDriverVMRestart of virtual time when called from simulation
// process context (the supervisor's watchdog), so recovery latency is a
// measured quantity; from host context (a test calling it directly) the
// clock does not move, as before.
//
// The restart epoch guards against concurrent invocation: the reboot yields
// the simulated CPU while it "boots", and a second caller arriving in that
// window — a second supervisor, a test, an over-eager operator — gets a
// clean error instead of a half-torn-down machine.
//
// Restart with device data isolation enabled is not supported (the
// hypervisor's protected-region state would need to be migrated to the new
// driver VM's EPT; the paper leaves recovery as future work altogether).
func (m *Machine) RestartDriverVM() error {
	if err := m.lifecycleGuards(); err != nil {
		return err
	}
	if d := faults.Point(m.Env, "machine.restart.fail"); d != nil {
		// Injected restart-time failure: the replacement driver VM fails to
		// boot (bad image, exhausted host memory, ...). The machine is left
		// exactly as it was; the supervisor counts the attempt against its
		// backoff budget and tries again.
		return fmt.Errorf("%w: %v", ErrRestartFailed, d.Error())
	}
	m.restarting = true
	defer func() { m.restarting = false }()
	for i := range m.shards {
		if err := m.restartShard(i); err != nil {
			return err
		}
	}
	return nil
}

// RestartDriverShard restarts one driver-VM shard, leaving the other shards
// — and every guest channel they serve — undisturbed. On a single-shard
// machine RestartDriverShard(0) is RestartDriverVM. Each shard's supervisor
// heals through this, so a crash in shard 2's backends costs only shard 2's
// devices their availability window.
func (m *Machine) RestartDriverShard(i int) error {
	if err := m.lifecycleGuards(); err != nil {
		return err
	}
	if i < 0 || i >= len(m.shards) {
		return fmt.Errorf("paradice: shard %d out of range (machine has %d)", i, len(m.shards))
	}
	if d := faults.Point(m.Env, "machine.restart.fail"); d != nil {
		return fmt.Errorf("%w: %v", ErrRestartFailed, d.Error())
	}
	m.restarting = true
	defer func() { m.restarting = false }()
	return m.restartShard(i)
}

// restartShard is the restart sequence for one shard, with the lifecycle
// lock already held.
func (m *Machine) restartShard(i int) error {
	sh := m.shards[i]

	// Tear down: stop the shard's backend dispatchers, then its worker pool,
	// then reset its devices. Sorted path order, not the map: each Stop
	// drops that backend's map cache, charging CostMapPage per cached page
	// in this proc's context, so the instant each later backend's stopped
	// flag latches — and therefore which racing in-flight operations
	// fast-fail — depends on the order.
	for _, g := range m.guests {
		for _, path := range g.sortedPaths() {
			if m.placement.Route(path) == i {
				g.Backends[path].Stop()
			}
		}
	}
	if sh.Pool != nil {
		sh.Pool.Stop()
	}
	m.resetShardDevices(i)

	// The restart invalidates every cached translation wholesale: the
	// software TLBs and the grant-validation caches restart cold, like the
	// grant-map caches the backend Stop calls above already dropped. A
	// post-restart operation must prove its translations afresh.
	m.HV.FlushTranslationCaches()

	// The reboot takes real (virtual) time when driven from a simulation
	// process. Guests keep running meanwhile; their operations fail fast
	// with EREMOTE at the frontend because every backend is stopped.
	perf.Charge(m.Env, perf.CostDriverVMRestart)

	// Boot a fresh driver VM with fresh drivers (and a fresh worker pool).
	if err := m.bootShard(i); err != nil {
		return err
	}

	// Reconnect the shard's frontends to backends in the new driver VM, in
	// sorted path order so the per-channel reconnect charges land in a
	// deterministic order run to run.
	for _, g := range m.guests {
		for _, path := range g.sortedPaths() {
			if m.placement.Route(path) != i {
				continue
			}
			fe := g.Frontends[path]
			be, err := cvd.Reconnect(fe, m.HV, sh.VM, sh.K, path, sh.Pool)
			if err != nil {
				return err
			}
			g.Backends[path] = be
			// A successful restart un-degrades the device: the fresh driver
			// VM serves it again even if a supervisor had given up on it.
			fe.SetDegraded(false)
			// Re-apply per-channel policy hooks that lived on the old
			// backend: the §5.1 foreground gate on every gated input
			// device, not just the mouse.
			if isGatedInputPath(path) {
				g.wireInputGate(path)
			}
		}
	}
	m.restartEpoch++
	return nil
}

// lifecycleGuards rejects a restart or handover the machine cannot perform:
// no driver VM, data isolation armed, or another lifecycle operation already
// holding the lock.
func (m *Machine) lifecycleGuards() error {
	if m.Kind != KindParadice {
		return ErrNoDriverVM
	}
	if m.cfg.DataIsolation {
		return ErrDataIsolationRestart
	}
	if m.restarting {
		return fmt.Errorf("%w (epoch %d)", ErrRestartInProgress, m.restartEpoch)
	}
	return nil
}

// resetShardDevices gives the shard's devices a function-level reset — the
// hardware survives a driver-VM lifecycle event, its volatile state does
// not. Devices owned by other shards keep running. Canonical device order
// (matching the attach sequence), so reset charges are deterministic.
func (m *Machine) resetShardDevices(shard int) {
	if m.placement.Route(PathGPU) == shard {
		m.GPU.Reset()
	}
	if m.placement.Route(PathNetmap) == shard {
		m.NIC.Reset()
	}
	if m.placement.Route(PathCamera) == shard {
		m.Camera.Reset()
	}
	if m.placement.Route(PathAudio) == shard {
		m.Audio.Reset()
	}
	if m.placement.Route(PathMouse) == shard {
		m.Mouse.Reset()
	}
	if m.placement.Route(PathKeyboard) == shard {
		m.Keyboard.Reset()
	}
}

// sortedPaths returns the guest's paravirtualized device paths in sorted
// order — every lifecycle loop over a guest's channels walks this, never the
// map, so charges and fault-plan consultations are deterministic.
func (g *Guest) sortedPaths() []string {
	paths := make([]string, 0, len(g.Frontends))
	for path := range g.Frontends {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// RestartEpoch counts completed driver-VM restarts. Tests use it to assert
// that supervision did (or did not) restart the machine.
func (m *Machine) RestartEpoch() uint64 { return m.restartEpoch }

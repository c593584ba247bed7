package paradice

import (
	"fmt"

	"paradice/internal/cvd"
	"paradice/internal/handover"
	"paradice/internal/perf"
	"paradice/internal/sim"
)

// HandoverDriverVM performs a planned, zero-loss driver-VM handover — the
// production alternative to RestartDriverVM for maintenance events (driver
// upgrades, driver-VM kernel updates) where the predecessor is still healthy
// and nothing forces the crash-style path.
//
// The stages, driven by internal/handover:
//
//   - prepare: a successor driver VM boots side-by-side (the full
//     perf.CostDriverVMRestart is paid HERE, while the predecessor keeps
//     serving — this is where the downtime win comes from).
//   - quiesce: every frontend enters drain mode. In-flight operations finish
//     on the predecessor; new posts park at their frontends instead of
//     failing EREMOTE, bounded by handover.DefaultDrainDeadline.
//   - switch: each channel pre-builds its successor backend and pre-warms
//     the successor's grant-map cache from the frontend's live bulk grants
//     (cvd.PrepareHandover); then devices reset and reattach to the
//     successor, the ring epochs bump, the pre-built backends bind
//     (cvd.CompleteHandover), the predecessor's open files carry over for
//     lazy warm re-open, and the predecessor is retired. Only the
//     predecessor driver VM's translation caches are flushed — the guests'
//     TLB and grant-vector entries describe state the handover never
//     touched and stay warm.
//   - on any stage failure the handover aborts: successor state is
//     discarded, parked posts proceed against the still-live predecessor,
//     and the episode (visible via Handovers) records the stage and cause.
//
// Fault points: "machine.handover.fail" (the attempt is refused outright),
// "handover.warm.fail" (a channel's pre-warm fails during switch), and
// "handover.drain.timeout" (the quiesce stage gives up immediately).
//
// Like RestartDriverVM, virtual time advances only when called from
// simulation process context (Machine.RequestHandover runs it on the
// supervisor's watchdog proc). The same guards apply: Paradice machines
// only, no data isolation, one lifecycle operation at a time.
func (m *Machine) HandoverDriverVM() error {
	if err := m.lifecycleGuards(); err != nil {
		return err
	}
	m.restarting = true
	defer func() { m.restarting = false }()
	for i := range m.shards {
		if err := m.handoverShard(i); err != nil {
			return err
		}
	}
	return nil
}

// HandoverDriverShard performs a planned handover of one driver-VM shard,
// leaving the other shards serving throughout — rolling maintenance across
// a sharded machine is N of these, one shard at a time. On a single-shard
// machine HandoverDriverShard(0) is HandoverDriverVM.
func (m *Machine) HandoverDriverShard(i int) error {
	if err := m.lifecycleGuards(); err != nil {
		return err
	}
	if i < 0 || i >= len(m.shards) {
		return fmt.Errorf("paradice: shard %d out of range (machine has %d)", i, len(m.shards))
	}
	m.restarting = true
	defer func() { m.restarting = false }()
	return m.handoverShard(i)
}

// handoverShard runs the staged handover for one shard, with the lifecycle
// lock already held.
func (m *Machine) handoverShard(shard int) error {
	sh := m.shards[shard]

	type chanPrep struct {
		g    *Guest
		path string
		fe   *cvd.Frontend
		prep *cvd.HandoverPrep
	}
	var (
		newVM    = sh.VM // replaced by the Prepare hook's successor boot
		newK     = sh.K
		succPool *cvd.Pool
		preps    []chanPrep
	)

	drain := handover.DefaultDrainDeadline
	// Parked posts carry their own defensive wait bound; keep it comfortably
	// past the engine's drain deadline so the engine always decides first.
	parkBound := drain + 10*sim.Millisecond

	eachFE := func(fn func(g *Guest, path string, fe *cvd.Frontend)) {
		for _, g := range m.guests {
			for _, path := range g.sortedPaths() {
				if m.placement.Route(path) == shard {
					fn(g, path, g.Frontends[path])
				}
			}
		}
	}

	hooks := handover.Hooks{
		Prepare: func() error {
			vm, k, err := m.newShardVM(shard)
			if err != nil {
				return err
			}
			if err := m.runDriverBootHooks(k); err != nil {
				return err
			}
			newVM, newK = vm, k
			if m.cfg.Workers > 0 {
				// The successor's worker pool spins up alongside it; its
				// channels join at CompleteHandover. Discarded on abort.
				succPool = cvd.NewPool(newK, m.cfg.Workers, 1)
			}
			// The successor's boot time is paid now, while the predecessor
			// serves. RestartDriverVM pays this same cost inside its outage.
			perf.Charge(m.Env, perf.CostDriverVMRestart)
			return nil
		},
		BeginDrain: func() {
			eachFE(func(g *Guest, path string, fe *cvd.Frontend) { fe.BeginDrain(parkBound) })
		},
		DrainIdle: func() bool {
			idle := true
			eachFE(func(g *Guest, path string, fe *cvd.Frontend) {
				if fe.Occupancy() != 0 {
					idle = false
				}
			})
			return idle
		},
		EndDrain: func() {
			eachFE(func(g *Guest, path string, fe *cvd.Frontend) { fe.EndDrain() })
		},
		Switch: func() error {
			// Pre-build every channel's successor state first: this half is
			// fallible and touches nothing the predecessor depends on, so an
			// error here (including an injected "handover.warm.fail") leaves
			// the machine exactly as it was.
			for _, g := range m.guests {
				for _, path := range g.sortedPaths() {
					if m.placement.Route(path) != shard {
						continue
					}
					fe := g.Frontends[path]
					prep, err := cvd.PrepareHandover(fe, m.HV, newVM, newK)
					if err != nil {
						return err
					}
					preps = append(preps, chanPrep{g: g, path: path, fe: fe, prep: prep})
				}
			}
			// Commit. The shard's devices reset and reattach to the successor
			// — the "device re-probe", safe because the rings are idle — and
			// past this point a failure cannot be rolled back (the
			// predecessor no longer owns the devices); attachDrivers only
			// fails on host resource exhaustion.
			var predBackends []*cvd.Backend
			for _, cp := range preps {
				predBackends = append(predBackends, cp.g.Backends[cp.path])
			}
			m.resetShardDevices(shard)
			if err := m.attachDrivers(newVM, newK, shard); err != nil {
				return fmt.Errorf("paradice: handover switch cannot roll back: %w", err)
			}
			predVM, predPool := sh.VM, sh.Pool
			sh.VM, sh.K = newVM, newK
			if shard == 0 {
				m.DriverVM, m.DriverK = newVM, newK
			}
			perf.Charge(m.Env, perf.CostHandoverSwitch)
			for _, cp := range preps {
				be, err := cvd.CompleteHandover(cp.fe, cp.prep, newVM, newK, cp.path, succPool)
				if err != nil {
					return fmt.Errorf("paradice: handover switch cannot roll back: %w", err)
				}
				cp.g.Backends[cp.path] = be
				cp.fe.SetDegraded(false)
				if isGatedInputPath(cp.path) {
					cp.g.wireInputGate(cp.path)
				}
			}
			sh.Pool = succPool
			// Retire the predecessor: orderly stop (its rings' epochs have
			// moved on already), then its worker pool, then flush ITS
			// translation caches only.
			for _, be := range predBackends {
				if be != nil {
					be.Stop()
				}
			}
			if predPool != nil {
				predPool.Stop()
			}
			m.HV.FlushVMTranslationCaches(predVM)
			m.restartEpoch++
			return nil
		},
		Abort: func(stage handover.Stage, cause string) {
			// Discard in prepare order: deterministic unmap charges. Preps
			// that were committed have nothing left to discard. The booted
			// successor VM's RAM (and its idle worker pool) is leaked — the
			// hypervisor has no DestroyVM, same as an abandoned pre-restart
			// driver VM.
			for _, cp := range preps {
				cp.prep.Discard()
			}
			if succPool != nil {
				succPool.Stop()
			}
		},
	}

	ep, err := handover.Run(m.Env, handover.Config{DrainDeadline: drain}, hooks)
	m.handovers = append(m.handovers, ep)
	return err
}

// Handovers returns the planned-handover episode log, committed and aborted
// alike, in order.
func (m *Machine) Handovers() []handover.Episode { return m.handovers }

// RequestHandover queues a planned driver-VM handover to run on the
// supervisor's watchdog proc — the recommended entry point on a supervised
// machine, because the watchdog then cannot mistake the drain window for an
// outage (the maintenance and the heartbeat sweeps are serialized on the
// same proc). The outcome lands in the supervisor's state-change log and the
// machine's Handovers episode log. Returns an error when the machine is not
// supervised or the supervisor has stopped.
func (m *Machine) RequestHandover() error {
	if m.supervisor == nil {
		return fmt.Errorf("paradice: RequestHandover requires Config.Supervision (call HandoverDriverVM directly instead)")
	}
	if !m.supervisor.RequestMaintenance("driver-VM handover", func(p *sim.Proc) error {
		return m.HandoverDriverVM()
	}) {
		return fmt.Errorf("paradice: supervisor not accepting maintenance (stopped, degraded, or busy)")
	}
	return nil
}

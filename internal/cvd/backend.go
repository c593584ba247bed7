package cvd

import (
	"fmt"

	"paradice/internal/faults"
	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// opName names a forwarded op code for trace spans and error messages.
func opName(op uint8) string {
	switch op {
	case opOpen:
		return "open"
	case opRelease:
		return "release"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opIoctl:
		return "ioctl"
	case opMmap:
		return "mmap"
	case opMunmap:
		return "munmap"
	case opFault:
		return "fault"
	case opPoll:
		return "poll"
	case opFasync:
		return "fasync"
	}
	return "?"
}

// Backend is the CVD backend serving one guest VM's channel for one device
// file. A dispatcher task pops posted operations in FIFO order and invokes
// a handler thread per operation, marking the thread so the kernel's
// wrapper stubs redirect its memory operations to the hypervisor (§5.2).
type Backend struct {
	hv       *hv.Hypervisor
	driverVM *hv.VM
	guestVM  *hv.VM
	driverK  *kernel.Kernel
	node     *kernel.DeviceNode
	ring     page
	proc     *kernel.Process
	// transport is the channel's policy, copied from the frontend at bind
	// time: Mode and PollWindow drive the dispatcher's sleep, BatchSize and
	// CoalesceWindow its completion batching.
	transport Transport

	doorbell *sim.Event
	files    map[uint16]*kernel.File
	vmas     map[uint16]map[mem.GuestVirt]*kernel.VMA // fileID -> start -> VMA
	vecResp  int
	vecNotif int
	// frontendDoorbell, installed at connect time, is the simulation's
	// stand-in for a spinning requester's load of the shared page (the
	// response data itself still travels through the page).
	frontendDoorbell func()
	// stopped terminates the dispatcher (driver VM restart).
	stopped bool
	// epoch is the ring's restart-epoch word (hdrEpoch) as of this backend's
	// creation. Reconnect bumps the word before attaching a successor, so a
	// pre-restart backend — its dispatcher, a late handler thread still
	// holding a slot index, a deferred heartbeat ack — observes the mismatch
	// and discards instead of touching slots the successor now owns. This is
	// the ring-visible form of the protection: unlike the stopped flag it
	// does not depend on anyone having had the chance to stop the old
	// backend (a wedged-but-alive driver VM never gets stopped).
	epoch uint32
	// mapc, when non-nil, is the grant-map cache (the bulk-transfer fast
	// path); see mapcache.go.
	mapc *mapCache
	// pool, when non-nil, is the driver VM's shared worker pool: the
	// dispatcher enqueues operations there instead of spawning an unbounded
	// handler thread each, and bounded workers serve channels under deficit
	// round-robin. See pool.go.
	pool *Pool
	// onDeath, when set, is invoked once if the backend dies abnormally —
	// an injected driver-VM crash or an explicit Kill — but NOT on an
	// orderly Stop. Driver-VM supervision registers here for immediate
	// failure detection instead of waiting out missed heartbeats.
	onDeath func()
	// hbSeen is the last watchdog heartbeat sequence this backend observed,
	// whether it acked it or a fault swallowed the ack. Backend-local so a
	// dropped ack is not retried forever by the dispatcher loop.
	hbSeen uint32

	// notifyGate, when set, is consulted before sending a notification;
	// the foreground/background model of §5.1 gates input notifications to
	// the foreground guest only.
	notifyGate func() bool

	// Completion batching (mirror of the frontend's doorbell batching).
	// With the transport's BatchSize and CoalesceWindow set, interrupt-path
	// completions accumulate and share one response IRQ, flushed by the
	// same size+deadline policy; respGen invalidates an armed deadline timer
	// once a size-triggered flush has run. Heartbeat acks and the polled
	// path bypass it — watchdog latency and spinning requesters are never
	// delayed by the batch window.
	respPending int
	respGen     uint64

	// Adaptive stance (Mode == Adaptive): the backend's own arrival-rate
	// EWMA, fed by request pickups in the dispatcher. In poll stance the
	// dispatcher spins its window before sleeping (as static Polling does);
	// in interrupt stance it sleeps immediately.
	stancePoll bool
	arrAvg     sim.Duration
	lastSeen   sim.Time

	// warmFiles/warmVMAs carry the predecessor's open-file table across a
	// planned handover: fileIDs the guest still holds but the successor's
	// driver has never seen. The successor re-opens them lazily — the first
	// forwarded operation naming a warm fileID replays open (and the file's
	// mmaps) against the real driver in that operation's own handler context,
	// so the guest never observes EINVAL for a file it legitimately holds.
	warmFiles map[uint16]warmFile
	warmVMAs  map[uint16][]warmVMA

	// Stats observable by tests and the bench harness.
	OpsHandled    uint64
	NotifsSent    uint64
	NotifsDropped uint64
	WakeIRQs      uint64 // doorbell interrupts received while sleeping
	PolledPosts   uint64 // posts observed while spinning
	HbAcked       uint64 // watchdog heartbeats echoed
	HbDropped     uint64 // heartbeat acks swallowed by fault injection
	WarmReopens   uint64 // predecessor files lazily re-opened after a handover
	RespFlushes   uint64 // response IRQ flushes sent (each covers >= 1 completions)

	// SpinTime accumulates the virtual time the dispatcher spent spinning
	// its poll window — the CPU the driver VM burns to keep latency low.
	// The adaptive bench gates on it at low load, where static polling
	// pays a full idle window per wake and adaptive must not.
	SpinTime sim.Duration
}

// SetNotifyGate installs a predicate consulted before notifications are
// sent. Paradice's foreground-background sharing model (§5.1) uses it to
// deliver input notifications only to the foreground guest VM.
func (b *Backend) SetNotifyGate(fn func() bool) { b.notifyGate = fn }

// remoteConduit implements kernel.RemoteOps for one forwarded file
// operation, attaching its grant reference to every hypervisor request.
// For read/write requests carrying reqFlagMapHint, data movement within the
// request's declared buffer is routed through the backend's grant-map cache
// instead of a per-access assisted copy; anything else (or any access the
// hint's buffer does not cover) takes the slow path unchanged.
type remoteConduit struct {
	hv    *hv.Hypervisor
	guest *hv.VM
	drv   *hv.VM
	ref   uint32

	// Fast-path routing, set only for hinted read/write requests.
	mapc    *mapCache
	mapKind grant.Kind
	fileID  uint16
	bufVA   mem.GuestVirt
	bufLen  uint64
	rid     uint64
}

// inBuf reports whether [va, va+n) lies within the hinted request's declared
// data buffer — the only range the cached mapping may serve.
func (r *remoteConduit) inBuf(va mem.GuestVirt, n int) bool {
	return va >= r.bufVA && uint64(va)+uint64(n) <= uint64(r.bufVA)+r.bufLen &&
		uint64(va)+uint64(n) >= uint64(va)
}

func (r *remoteConduit) CopyToUser(dst mem.GuestVirt, src []byte) error {
	if r.mapc != nil && r.mapKind == grant.KindCopyTo && r.inBuf(dst, len(src)) {
		if err := r.mapc.access(r.rid, r.fileID, r.ref, grant.KindCopyTo,
			r.bufVA, r.bufLen, dst, src, true); err != nil {
			return kernel.EFAULT
		}
		return nil
	}
	if err := r.hv.CopyToGuest(r.guest, r.ref, dst, src); err != nil {
		return kernel.EFAULT
	}
	return nil
}

func (r *remoteConduit) CopyFromUser(src mem.GuestVirt, buf []byte) error {
	if r.mapc != nil && r.mapKind == grant.KindCopyFrom && r.inBuf(src, len(buf)) {
		if err := r.mapc.access(r.rid, r.fileID, r.ref, grant.KindCopyFrom,
			r.bufVA, r.bufLen, src, buf, false); err != nil {
			return kernel.EFAULT
		}
		return nil
	}
	if err := r.hv.CopyFromGuest(r.guest, r.ref, src, buf); err != nil {
		return kernel.EFAULT
	}
	return nil
}

func (r *remoteConduit) MapPage(va mem.GuestVirt, pfn mem.GuestPhys) error {
	if err := r.hv.MapToGuest(r.guest, r.ref, va, r.drv, pfn); err != nil {
		return kernel.EFAULT
	}
	return nil
}

func (r *remoteConduit) UnmapPage(va mem.GuestVirt) error {
	if err := r.hv.UnmapFromGuest(r.guest, r.ref, va); err != nil {
		return kernel.EFAULT
	}
	return nil
}

// newBackend builds a backend for fe's channel around an already-created
// kernel process, with the frontend's transport policy, and starts its
// dispatcher. It cannot fail: process creation is the fallible part of
// backend construction, and a planned handover does it during prepare so its
// commit, which runs after the ring's epoch word has been bumped past the
// predecessor, has no failure path left. Only Frontend.bind calls this.
func newBackend(proc *kernel.Process, fe *Frontend, driverVM *hv.VM, driverK *kernel.Kernel,
	node *kernel.DeviceNode, ringGPA mem.GuestPhys, vecToBackend int) *Backend {
	guestVM := fe.guestVM
	b := &Backend{
		hv:        fe.hv,
		driverVM:  driverVM,
		guestVM:   guestVM,
		driverK:   driverK,
		node:      node,
		ring:      page{acc: &grant.GuestAccessor{Space: driverVM.Space, GPA: ringGPA}},
		proc:      proc,
		transport: fe.transport,
		doorbell:  driverK.Env.NewEvent("cvd-doorbell-" + guestVM.Name),
		files:     make(map[uint16]*kernel.File),
		vmas:      make(map[uint16]map[mem.GuestVirt]*kernel.VMA),
		vecResp:   fe.vecResp,
		vecNotif:  fe.vecNotif,
	}
	// A successor backend inherits the ring's heartbeat state: starting from
	// the last acked sequence means a beat posted while the driver VM was
	// rebooting is answered by the new dispatcher's first pass.
	b.hbSeen = b.ring.readU32(hdrHbAck)
	// Snapshot the ring's restart epoch: every write this backend (or one of
	// its handler threads) ever makes to the ring is conditioned on the word
	// still holding this value. Reconnect bumps it before attaching a
	// successor.
	b.epoch = b.ring.readU32(hdrEpoch)
	// The driver calling kill_fasync on one of our opened files lands in
	// our backend process's SIGIO path; relay it to the frontend.
	proc.OnSIGIO(func() { b.notify(notifSIGIO) })
	driverVM.RegisterISR(vecToBackend, func() {
		b.WakeIRQs++
		trace.Get(driverK.Env).Add("cvd.backend.wake_irqs", 1)
		b.doorbell.Trigger()
	})
	// The "@<driver>" suffix attributes the proc to its driver-VM shard: a
	// sharded machine runs one supervisor per shard, each consuming only the
	// panics of its own backends (supervise.Config.OwnsProc).
	driverK.Env.Spawn("cvd-dispatch-"+guestVM.Name+"@"+driverK.Name, b.dispatch)
	return b
}

// Proc returns the backend's kernel process — the identity under which all
// of this guest's file operations reach the driver. Drivers modified for
// device data isolation key their per-guest regions on it.
func (b *Backend) Proc() *kernel.Process { return b.proc }

// ringCurrent reports whether this backend still owns the ring: it has not
// been stopped, and the ring's restart-epoch word still holds the value the
// backend was created under. Every backend-side ring write is conditioned on
// this — the epoch half catches the interleaving the stopped flag cannot: a
// pre-restart backend nobody managed to stop (a wedged-but-alive driver VM)
// whose handler thread wakes up after its slot has been reclaimed and
// reposted in a new epoch.
func (b *Backend) ringCurrent() bool {
	return !b.stopped && b.ring.readU32(hdrEpoch) == b.epoch
}

// notify posts a notification bit and kicks the frontend, unless the
// notification gate says this guest should not receive it. A stopped (or
// superseded) backend is dead — it no longer owns the ring and must not
// touch it.
func (b *Backend) notify(bits uint32) {
	if !b.ringCurrent() {
		return
	}
	if b.notifyGate != nil && !b.notifyGate() {
		b.NotifsDropped++
		trace.Get(b.hv.Env).Add("cvd.notify.dropped", 1)
		return
	}
	b.ring.postNotif(bits)
	b.NotifsSent++
	trace.Get(b.hv.Env).Add("cvd.notify.sent", 1)
	b.hv.SendInterrupt(b.guestVM, b.vecNotif)
}

// dispatch is the backend's main loop: pop the oldest posted slot, spawn a
// handler thread for it, repeat; between operations, poll the page for the
// 200 µs window (polling mode) before sleeping on the doorbell.
//
// The dispatcher and its sleep are the "vCPU halt" fast path: waking it
// costs only the interrupt delivery latency, not a scheduler wake-up —
// which is why the no-op round trip of §6.1.1 is two interrupts and little
// else.
func (b *Backend) dispatch(p *sim.Proc) {
	for {
		if !b.ringCurrent() {
			return
		}
		if faults.Point(b.driverK.Env, "cvd.backend.die") != nil {
			// Injected driver-VM death: the dispatcher vanishes mid-run.
			// Posted operations stay unanswered until a Reconnect fails
			// them with EREMOTE, exactly as after a real driver VM crash.
			b.die()
			return
		}
		b.serviceHeartbeat()
		b.consumeSubBatch(p)
		if slot, ok := b.oldestPosted(); ok {
			b.observeArrival()
			b.ring.setSlotState(slot, slotRunning)
			req := b.ring.readRequest(slot)
			if b.pool != nil {
				b.pool.enqueue(b, req)
			} else {
				b.spawnHandler(req)
			}
			continue
		}
		// About to sleep: re-arm the doorbell, then re-check the queue (and
		// the heartbeat word) so a post that raced with the scan is not lost.
		b.doorbell.Reset()
		if b.heartbeatPending() {
			continue
		}
		if _, ok := b.oldestPosted(); ok {
			continue
		}
		if b.transport.pollStance(b.stancePoll) && b.transport.PollWindow > 0 {
			b.ring.writeU32(hdrBackendPoll, 1)
			spinStart := b.hv.Env.Now()
			woken := p.WaitTimeout(b.doorbell, b.transport.PollWindow)
			b.SpinTime += b.hv.Env.Now().Sub(spinStart)
			b.ring.writeU32(hdrBackendPoll, 0)
			if woken {
				continue
			}
			b.doorbell.Reset()
			if b.heartbeatPending() {
				continue
			}
			if _, ok := b.oldestPosted(); ok {
				continue
			}
		}
		p.Wait(b.doorbell)
	}
}

// observeArrival feeds one request pickup into the backend's adaptive EWMA
// and flips its stance when the average crosses perf.AdaptivePollGap — the
// dispatcher-side half of the NAPI-style switch. Bookkeeping only: it reads
// the clock, never advances it.
func (b *Backend) observeArrival() {
	if b.transport.Mode != Adaptive {
		return
	}
	now := b.hv.Env.Now()
	gap := now.Sub(b.lastSeen)
	b.lastSeen = now
	if gap > adaptiveGapCap || b.arrAvg == 0 {
		gap = adaptiveGapCap
	}
	if b.arrAvg == 0 {
		b.arrAvg = gap // first pickup: start in interrupt stance
	} else {
		b.arrAvg += (gap - b.arrAvg) / 4
	}
	poll := b.arrAvg < perf.AdaptivePollGap
	if poll == b.stancePoll {
		return
	}
	b.stancePoll = poll
	name := "mode-to-interrupts"
	if poll {
		name = "mode-to-poll"
	}
	tr := trace.Get(b.driverK.Env)
	tr.Add("cvd.adaptive.be.switches", 1)
	tr.Instant(0, b.driverVM.Name, trace.LayerBE, name, b.guestVM.Name)
}

// consumeSubBatch drains the ring's submission batch descriptor: the flush
// that rang the doorbell published how many posted slots it covers
// (hdrSubCount) and which (hdrSubBits). The dispatcher pays one descriptor
// deserialization for the whole batch — the amortization the batch exists
// for — and records the batch size. The words are advisory and untrusted:
// counts are clamped, the bitmap is cleared without being believed (the
// oldestPosted scan is the ground truth for what is actually served), and a
// hostile scribble degrades to a skewed histogram, never a panic.
func (b *Backend) consumeSubBatch(p *sim.Proc) {
	n := b.ring.readU32(hdrSubCount)
	if n == 0 {
		return
	}
	b.ring.writeU32(hdrSubCount, 0)
	b.ring.takeBitmap(hdrSubBits)
	if n > slotCount {
		n = slotCount
	}
	p.Advance(perf.CostBatchDescriptor)
	tr := trace.Get(b.driverK.Env)
	tr.Add("cvd.backend.batches", 1)
	tr.ObserveCount("cvd.backend.batch", uint64(n))
}

// heartbeatPending reports whether the watchdog has posted a heartbeat this
// backend has not yet looked at. Observed-but-unacked beats (dropped or
// deferred by fault injection) do not count — the dispatcher must not spin
// on a beat it has already decided about.
func (b *Backend) heartbeatPending() bool {
	return b.ring.readU32(hdrHbReq) != b.hbSeen
}

// serviceHeartbeat echoes a pending watchdog heartbeat: the cheap ring no-op
// driver-VM supervision uses as its liveness probe. A healthy backend copies
// the request sequence into the ack word and completes toward the frontend;
// the "cvd.heartbeat.drop" fault point swallows the ack (a driver VM too
// wedged to answer), and "cvd.heartbeat.delay" defers it by the scripted
// payload (a driver VM that is slow but alive — the false-positive hazard
// the watchdog's miss threshold exists for).
func (b *Backend) serviceHeartbeat() {
	req := b.ring.readU32(hdrHbReq)
	if req == b.hbSeen {
		return
	}
	b.hbSeen = req
	if faults.Point(b.driverK.Env, "cvd.heartbeat.drop") != nil {
		b.HbDropped++
		trace.Get(b.driverK.Env).Add("cvd.heartbeat.dropped", 1)
		return
	}
	if d := faults.Point(b.driverK.Env, "cvd.heartbeat.delay"); d != nil {
		delay := sim.Duration(d.Arg)
		b.hv.Env.After(delay, func() {
			if !b.ringCurrent() {
				return
			}
			b.ring.writeU32(hdrHbAck, req)
			b.HbAcked++
			trace.Get(b.driverK.Env).Add("cvd.heartbeat.acked", 1)
			b.complete(0, true)
		})
		return
	}
	b.ring.writeU32(hdrHbAck, req)
	b.HbAcked++
	trace.Get(b.driverK.Env).Add("cvd.heartbeat.acked", 1)
	b.complete(0, true)
}

// die marks the backend dead the abnormal way — injected crash or explicit
// Kill — and fires the death notification supervision may have registered.
// Orderly Stop does not come through here.
func (b *Backend) die() {
	if b.stopped {
		return
	}
	b.stopped = true
	b.dropMapCache()
	if b.pool != nil {
		b.pool.Leave(b)
	}
	if fn := b.onDeath; fn != nil {
		b.onDeath = nil
		fn()
	}
}

// dropMapCache tears down every cached guest-buffer mapping (no-op when the
// fast path is disabled). Part of backend teardown: a dead driver VM's EPT
// must not keep windows into guest data buffers.
func (b *Backend) dropMapCache() {
	if b.mapc != nil {
		b.mapc.dropAll()
	}
}

// Kill terminates the backend as an injected driver-VM crash would: the
// dispatcher exits without answering anything, and the death notification
// fires. Tests and fault harnesses use it to crash one specific channel's
// backend (the probabilistic "cvd.backend.die" point cannot aim).
func (b *Backend) Kill() {
	b.die()
	b.doorbell.Trigger()
}

// Alive reports whether the backend's dispatcher is still serving the ring.
func (b *Backend) Alive() bool { return !b.stopped }

// OnDeath registers fn to run once if the backend dies abnormally (injected
// crash or Kill; not an orderly Stop). Supervision registers here so an
// explicit fault-plan kill is detected immediately rather than after K
// missed heartbeats. A backend already dead fires fn at once.
func (b *Backend) OnDeath(fn func()) {
	if b.stopped {
		fn()
		return
	}
	b.onDeath = fn
}

func (b *Backend) oldestPosted() (int, bool) {
	best, bestSeq, found := -1, uint32(0), false
	for s := 0; s < slotCount; s++ {
		if b.ring.slotState(s) != slotPosted {
			continue
		}
		seq := b.ring.readU32(slotOff(s) + sSeq)
		if !found || seq < bestSeq {
			best, bestSeq, found = s, seq, true
		}
	}
	return best, found
}

// spawnHandler runs one forwarded operation on its own thread, as the paper
// does ("the CVD backend invokes a thread to execute the file operation"),
// so an operation blocking in the driver does not stall the queue. With a
// worker pool attached (Config.Workers > 0) the dispatcher enqueues to the
// pool instead and a bounded worker calls handle directly.
func (b *Backend) spawnHandler(req request) {
	b.driverK.Env.Spawn(
		fmt.Sprintf("cvd-op-%s-%d@%s", b.guestVM.Name, req.seq, b.driverK.Name),
		func(sp *sim.Proc) {
			b.handle(sp, req)
		})
}

// handle executes one forwarded operation on the calling proc — either a
// per-op handler thread (spawnHandler) or a pooled worker. It deserializes,
// adopts a driver-VM task bound to the request's trace ID, runs the file
// operation, and writes the response unless the ring's epoch moved on.
func (b *Backend) handle(sp *sim.Proc, req request) {
	{
		tr := trace.Get(b.driverK.Env)
		rid := uint64(req.rid)
		// Bind the handler proc to the forwarded request's ID so layers that
		// only see the Env (hypervisor memory ops, IOMMU) attribute their
		// spans to the right request.
		tr.Bind(sp, rid)
		defer tr.Unbind(sp)
		dstart := tr.Now()
		sp.Advance(perf.CostPost) // deserialize the request
		tr.Span(rid, b.driverVM.Name, trace.LayerBE, "dispatch", dstart, tr.Now())
		task := b.proc.AdoptTask(fmt.Sprintf("op%d", req.seq), sp)
		conduit := &remoteConduit{hv: b.hv, guest: b.guestVM, drv: b.driverVM, ref: req.ref}
		if b.mapc != nil && req.flags&reqFlagMapHint != 0 {
			// The frontend kept this data buffer's grant alive across
			// requests: route the operation's data movement through the
			// grant-map cache. Read buffers are written (copy-to-user),
			// write buffers are read (copy-from-user).
			switch req.op {
			case opRead:
				conduit.mapc, conduit.mapKind = b.mapc, grant.KindCopyTo
			case opWrite:
				conduit.mapc, conduit.mapKind = b.mapc, grant.KindCopyFrom
			}
			conduit.fileID = req.fileID
			conduit.bufVA = mem.GuestVirt(req.arg0)
			conduit.bufLen = req.arg1
			conduit.rid = rid
		}
		restore := task.Mark(conduit)
		estart := tr.Now()
		ret, errno := b.execute(task, req)
		restore()
		if tr != nil {
			tr.Group(rid, b.driverVM.Name, trace.LayerBE, "execute "+opName(req.op), estart, tr.Now())
		}
		cstart := tr.Now()
		sp.Advance(perf.CostComplete)
		tr.Span(rid, b.driverVM.Name, trace.LayerBE, "complete", cstart, tr.Now())
		if !b.ringCurrent() {
			// The backend died (Stop, an injected driver-VM crash) or was
			// superseded (the ring's restart epoch moved on) while this
			// handler was executing. The ring now belongs to a successor
			// backend and the frontend has already been failed with EREMOTE
			// for this slot — or the slot has been reclaimed and reposted in
			// the new epoch; a late response here would corrupt the
			// successor's view of the slot.
			return
		}
		b.ring.writeResponse(req.slot, ret, int32(errno))
		b.OpsHandled++
		tr.Add("cvd.backend.ops", 1)
		b.complete(rid, false)
	}
}

// complete signals the frontend that a response is ready: a cheap
// shared-page observation if a requester is spinning, an inter-VM interrupt
// otherwise. rid labels the crossing's trace span (0 for heartbeat acks and
// untraced runs). With completion batching armed, interrupt-path completions
// accumulate and share one response IRQ under the size+deadline flush
// policy; heartbeat acks (hb) bypass the batch so watchdog latency is never
// inflated — a flag, not a rid==0 check, because rids are only allocated
// when a tracer is installed.
func (b *Backend) complete(rid uint64, hb bool) {
	if b.ring.readU32(hdrFrontendPoll) > 0 {
		if tr := trace.Get(b.hv.Env); tr != nil {
			now := tr.Now()
			tr.Span(rid, b.guestVM.Name, trace.LayerIRQ, "poll-cross", now, now.Add(perf.CostPollCross))
		}
		b.hv.Env.After(perf.CostPollCross, func() {
			// The spinning requester notices the state change on its next
			// poll iteration; the response event is triggered by the
			// frontend ISR in interrupt mode, so emulate the doorbell here.
			if fe := b.frontendDoorbell; fe != nil {
				fe()
			}
		})
		return
	}
	if b.transport.BatchSize > 0 && b.transport.CoalesceWindow > 0 && !hb {
		b.respPending++
		if b.respPending >= b.transport.BatchSize {
			b.flushResp()
			return
		}
		if b.respPending == 1 {
			gen := b.respGen
			b.hv.Env.After(b.transport.CoalesceWindow, func() {
				if b.respGen != gen {
					return // a size-triggered flush already covered this window
				}
				b.flushResp()
			})
		}
		return
	}
	b.hv.SendInterrupt(b.guestVM, b.vecResp)
}

// flushResp sends the one response IRQ covering every completion batched
// since the last flush. The completed slots' descriptors (done bits) are
// already in the ring — writeResponse published them — so the frontend's
// scan collects the whole vector off this single interrupt. A flush whose
// backend has died or been superseded sends nothing: the reconnect sweep
// owns those completions now.
func (b *Backend) flushResp() {
	b.respGen++
	n := b.respPending
	b.respPending = 0
	if n == 0 || !b.ringCurrent() {
		return
	}
	b.RespFlushes++
	tr := trace.Get(b.hv.Env)
	tr.Add("cvd.backend.resp.flushes", 1)
	if n > 1 {
		tr.Add("cvd.backend.resp.coalesced", uint64(n-1))
	}
	tr.ObserveCount("cvd.backend.resp.batch", uint64(n))
	b.hv.SendInterrupt(b.guestVM, b.vecResp)
}

func (b *Backend) execute(task *kernel.Task, req request) (int32, kernel.Errno) {
	ops := b.node.Ops
	toErrno := func(err error) kernel.Errno {
		if err == nil {
			return 0
		}
		if e, ok := err.(kernel.Errno); ok {
			return e
		}
		return kernel.EIO
	}
	switch req.op {
	case opOpen:
		f := &kernel.File{Node: b.node, Flags: devfileFlags(req.arg0), Proc: b.proc}
		if err := ops.Open(&kernel.FopCtx{Task: task, File: f}); err != nil {
			return -1, toErrno(err)
		}
		b.files[req.fileID] = f
		return 0, 0
	case opRelease:
		f, ok := b.files[req.fileID]
		if !ok {
			if _, warm := b.warmFiles[req.fileID]; warm {
				// A file the predecessor held, released before any other
				// operation forced a warm reopen on the successor. Re-opening
				// it just to close it again would be wasted driver work: drop
				// the warm records and report success.
				delete(b.warmFiles, req.fileID)
				delete(b.warmVMAs, req.fileID)
				if b.mapc != nil {
					b.mapc.release(req.fileID)
				}
				return 0, 0
			}
			return -1, kernel.EINVAL
		}
		delete(b.files, req.fileID)
		delete(b.vmas, req.fileID)
		if b.mapc != nil {
			// The file is going away: its cached buffer mappings with it.
			b.mapc.release(req.fileID)
		}
		return 0, toErrno(ops.Release(&kernel.FopCtx{Task: task, File: f}))
	}
	f, ok := b.lookupFile(task, req.fileID)
	if !ok {
		return -1, kernel.EINVAL
	}
	c := &kernel.FopCtx{Task: task, File: f}
	switch req.op {
	case opRead:
		n, err := ops.Read(c, mem.GuestVirt(req.arg0), int(req.arg1))
		return int32(n), toErrno(err)
	case opWrite:
		n, err := ops.Write(c, mem.GuestVirt(req.arg0), int(req.arg1))
		return int32(n), toErrno(err)
	case opIoctl:
		ret, err := ops.Ioctl(c, devfileCmd(req.arg0), mem.GuestVirt(req.arg1))
		return ret, toErrno(err)
	case opMmap:
		v := &kernel.VMA{Proc: b.proc, Start: mem.GuestVirt(req.arg0), Len: req.arg1, File: f, Pgoff: req.arg2}
		if err := ops.Mmap(c, v); err != nil {
			return -1, toErrno(err)
		}
		m := b.vmas[req.fileID]
		if m == nil {
			m = make(map[mem.GuestVirt]*kernel.VMA)
			b.vmas[req.fileID] = m
		}
		m[v.Start] = v
		return 0, 0
	case opMunmap:
		v := b.vmas[req.fileID][mem.GuestVirt(req.arg0)]
		if v == nil {
			return -1, kernel.EINVAL
		}
		delete(b.vmas[req.fileID], mem.GuestVirt(req.arg0))
		// Destroy the hypervisor (EPT) mappings for every page of the
		// range; the guest kernel has already cleared its own page tables
		// (§5.2). Pages that were never faulted in simply return an error
		// we ignore.
		for off := uint64(0); off < v.Len; off += mem.PageSize {
			_ = task.Remote.UnmapPage(v.Start + mem.GuestVirt(off))
		}
		if v.OnUnmap != nil {
			return 0, toErrno(v.OnUnmap(c, v))
		}
		return 0, 0
	case opFault:
		v := b.vmas[req.fileID][mem.GuestVirt(req.arg1)]
		if v == nil {
			return -1, kernel.EINVAL
		}
		return 0, toErrno(ops.Fault(c, v, mem.GuestVirt(req.arg0)))
	case opPoll:
		pt := b.driverK.NewPollTable()
		mask := ops.Poll(c, pt)
		if uint64(mask)&req.arg0 == 0 {
			// Nothing ready: arm a poll-wake notification so the guest
			// kernel can re-evaluate when a driver wait queue fires. The
			// scheduler wake-up of the notifier is charged before the
			// notification crosses.
			env := b.driverK.Env
			pt.Event().OnFire(func() {
				env.After(perf.CostWakeup, func() { b.notify(notifPollWake) })
			})
		}
		return int32(mask), 0
	case opFasync:
		if err := ops.Fasync(c, req.arg0 != 0); err != nil {
			return -1, toErrno(err)
		}
		f.FasyncOn = req.arg0 != 0
		return 0, 0
	}
	return -1, kernel.ENOSYS
}

// lookupFile resolves a forwarded operation's fileID against the backend's
// open-file table, lazily re-opening a file inherited from a handover
// predecessor. The reopen runs in the calling operation's own handler-task
// context, so its driver work is charged to (and traced under) the request
// that forced it. A reopen failure surfaces as an unknown fileID — EINVAL,
// the same honest errno a stale fileID has always earned.
func (b *Backend) lookupFile(task *kernel.Task, fileID uint16) (*kernel.File, bool) {
	if f, ok := b.files[fileID]; ok {
		return f, true
	}
	wf, ok := b.warmFiles[fileID]
	if !ok {
		return nil, false
	}
	delete(b.warmFiles, fileID)
	ops := b.node.Ops
	f := &kernel.File{Node: b.node, Flags: wf.flags, Proc: b.proc}
	if err := ops.Open(&kernel.FopCtx{Task: task, File: f}); err != nil {
		delete(b.warmVMAs, fileID)
		return nil, false
	}
	f.FasyncOn = wf.fasync
	b.files[fileID] = f
	// Replay the predecessor's mmaps so a post-handover munmap/fault against
	// an inherited mapping finds its VMA. EPT entries are rebuilt on demand
	// by the fault path, exactly as after a guest-side first touch.
	for _, wv := range b.warmVMAs[fileID] {
		v := &kernel.VMA{Proc: b.proc, Start: wv.start, Len: wv.len, File: f, Pgoff: wv.pgoff}
		if err := ops.Mmap(&kernel.FopCtx{Task: task, File: f}, v); err != nil {
			continue
		}
		m := b.vmas[fileID]
		if m == nil {
			m = make(map[mem.GuestVirt]*kernel.VMA)
			b.vmas[fileID] = m
		}
		m[v.Start] = v
	}
	delete(b.warmVMAs, fileID)
	b.WarmReopens++
	trace.Get(b.driverK.Env).Add("cvd.handover.warm_reopens", 1)
	return f, true
}

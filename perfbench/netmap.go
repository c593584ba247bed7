package main

import (
	"math/rand"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
)

// netmap-tx: the left end of Figure 2. One Linux guest on the interrupt
// transport runs netmap pkt-gen with 64-byte packets at batch 1, so every
// packet is one forwarded poll — the small-operation forwarding path.
const (
	netmapPackets = 12000 // measured packets per repetition
	netmapPktLen  = 64
)

type netmapTx struct {
	warm    byte   // payload of the warm-up packets
	payload []byte // payload seed of each measured packet
}

func newNetmapTx(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &netmapTx{payload: make([]byte, netmapPackets)}
	w.warm = byte(rng.Intn(256))
	rng.Read(w.payload)
	return w
}

// Each measured packet costs one poll (plus a few while the ring is full);
// the warm-up, drain and set-up add a few hundred.
func (w *netmapTx) digestCap() int { return 2*len(w.payload) + 4096 }

func (w *netmapTx) build(sc *setupClock) (instance, error) {
	m, err := sc.newMachine(paradice.Config{})
	if err != nil {
		return nil, err
	}
	g, err := sc.addGuest(m, "guest1")
	if err != nil {
		return nil, err
	}
	if err := sc.connect(g, paradice.PathNetmap); err != nil {
		return nil, err
	}
	return &netmapRun{w: w, m: m, g: g}, nil
}

type netmapRun struct {
	w *netmapTx
	m *paradice.Machine
	g *paradice.Guest

	done     bool
	err      error
	sent     uint64 // packets handed to the ring, warm-up included
	checksum uint32 // what the NIC's checksum must read after sending them
	elapsed  sim.Duration
}

func (r *netmapRun) machine() *paradice.Machine { return r.m }

func (r *netmapRun) start(log *opLog) error {
	p, err := r.g.NewProcess("pkt-gen")
	if err != nil {
		return err
	}
	p.SpawnTask(clientTask, func(t *kernel.Task) {
		r.err = r.transmit(t, log)
		r.done = true
	})
	return nil
}

// transmit is pkt-gen's loop: fill one slot, poll to hand it to the NIC.
func (r *netmapRun) transmit(t *kernel.Task, log *opLog) error {
	nm, err := usrlib.OpenNetmap(t, paradice.PathNetmap)
	if err != nil {
		return err
	}
	// Pre-fault the mapped area, so the measurement excludes the one-time
	// page faults (pkt-gen's warm-up).
	if err := r.fill(nm, nm.NumSlots-1, r.w.warm); err != nil {
		return err
	}
	if err := nm.Sync(); err != nil {
		return err
	}
	if err := nm.Drain(); err != nil {
		return err
	}
	start := t.Sim().Now()
	for _, payload := range r.w.payload {
		free, err := nm.Free()
		if err != nil {
			return err
		}
		for free == 0 {
			if err := r.poll(t, nm, log); err != nil {
				return err
			}
			if free, err = nm.Free(); err != nil {
				return err
			}
			if free == 0 {
				t.Sim().Advance(5 * sim.Microsecond)
			}
		}
		if err := r.fill(nm, 1, payload); err != nil {
			return err
		}
		if err := r.poll(t, nm, log); err != nil {
			return err
		}
	}
	// Count only packets that left the wire.
	if err := nm.Drain(); err != nil {
		return err
	}
	r.elapsed = t.Sim().Now().Sub(start)
	return nm.Close()
}

// fill writes n packets and folds their bytes into the checksum the NIC
// must compute when it transmits them (the NIC folds every byte it reads
// by DMA as sum*31 + byte).
func (r *netmapRun) fill(nm *usrlib.NetmapCtx, n int, payload byte) error {
	if err := nm.FillBatch(n, netmapPktLen, payload); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < netmapPktLen; j++ {
			r.checksum = r.checksum*31 + uint32(payload+byte(j))
		}
	}
	r.sent += uint64(n)
	return nil
}

// poll is netmap's per-batch sync: poll for POLLOUT until the slots are
// handed to the hardware. Each poll is one timed system call.
func (r *netmapRun) poll(t *kernel.Task, nm *usrlib.NetmapCtx, log *opLog) error {
	for {
		var mask devfile.PollMask
		err := log.syscall(t, func() (err error) {
			mask, err = t.Poll(nm.FD, devfile.PollOut, -1)
			return err
		})
		if err != nil {
			return err
		}
		if mask&devfile.PollOut != 0 {
			return nil
		}
	}
}

func (r *netmapRun) finish() outcome {
	n := uint64(len(r.w.payload))
	o := outcome{ops: forwardedOps(r.m), attempted: n}
	nic := r.m.NIC
	switch {
	case !r.done:
		o.fail(n, "netmap-tx: pkt-gen did not finish (blocked: %v)", strandedClients(r.m))
	case r.err != nil:
		o.fail(n, "netmap-tx: pkt-gen: %v", r.err)
	}
	if nic.TxPackets != r.sent {
		diff := int64(r.sent) - int64(nic.TxPackets)
		if diff < 0 {
			diff = -diff
		}
		o.fail(uint64(diff), "netmap-tx: NIC transmitted %d frames, pkt-gen sent %d", nic.TxPackets, r.sent)
	}
	if nic.TxBytes != r.sent*netmapPktLen || nic.Checksum != r.checksum {
		o.fail(n, "netmap-tx: NIC read %d bytes with checksum %#x, want %d bytes with %#x",
			nic.TxBytes, nic.Checksum, r.sent*netmapPktLen, r.checksum)
	}
	mpps := 0.0
	if r.elapsed > 0 {
		mpps = float64(n) / r.elapsed.Seconds() / 1e6
	}
	o.virt = []value{{"virt_mpps", "Mpps", mpps}}
	return o
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
)

// fleet-openloop: many guests on the scale-out machine, open loop. Each
// guest's clients replay a seeded Poisson stream of small latency-critical
// and larger bulk ioctl writes against a sink device shared with other
// guests, at about 85% of the sinks' capacity, so the worker pools, the
// shards and the sinks queue under real contention.
const (
	fleetGuests  = 32
	fleetShards  = 4
	fleetWorkers = 4
	fleetSinks   = 4 // shared sinks, one per shard: guests/sinks guests each
	fleetClients = 8 // client processes per guest
	fleetRate    = 30_000
	fleetWindow  = 20 * sim.Millisecond
	fleetRTSize  = 256
	fleetBulk    = 2048
	fleetBulkOdd = 3 // bulk requests per latency-critical one
	fleetGuestMB = 32
	fleetDriveMB = 64

	// Sink service time base + perKB*size: 1.4 µs for rt, 4.2 µs for bulk,
	// 3.5 µs on average, against 8 guests × 30 k/s = 240 k/s per sink.
	fleetSinkBase  = 1 * sim.Microsecond
	fleetSinkPerKB = 1600 * sim.Nanosecond
)

// fleetReq is one scheduled request.
type fleetReq struct {
	due  sim.Time
	bulk bool
}

type fleet struct {
	streams [][]fleetReq // per guest, in due order
}

func newFleet(seed int64) workload {
	w := &fleet{streams: make([][]fleetReq, fleetGuests)}
	rng := rand.New(rand.NewSource(seed))
	for g := range w.streams {
		// Each guest's stream is independent: its own seed drawn from the
		// workload seed.
		grng := rand.New(rand.NewSource(rng.Int63()))
		t := 0.0
		for {
			t += grng.ExpFloat64() / fleetRate
			if t >= fleetWindow.Seconds() {
				break
			}
			w.streams[g] = append(w.streams[g], fleetReq{
				due:  sim.Time(t * 1e9),
				bulk: grng.Intn(fleetBulkOdd+1) != 0,
			})
		}
	}
	return w
}

func (w *fleet) digestCap() int {
	n := 0
	for _, s := range w.streams {
		n += len(s)
	}
	return n + 16*fleetGuests*fleetClients
}

func sinkPath(i int) string { return fmt.Sprintf("/dev/loadsink%d", i) }

func (w *fleet) build(sc *setupClock) (instance, error) {
	m, err := sc.newMachine(paradice.Config{
		Mode:         paradice.Adaptive,
		HostRAM:      (fleetGuests*fleetGuestMB + fleetShards*fleetDriveMB + 64) << 20,
		GuestRAM:     fleetGuestMB << 20,
		DriverRAM:    fleetDriveMB << 20,
		DriverShards: fleetShards,
		Workers:      fleetWorkers,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fleetSinks; i++ {
		sink := load.NewSink(m.Env, fleetSinkBase, fleetSinkPerKB)
		path := sinkPath(i)
		if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
			k.RegisterDevice(path, sink, sink)
			return nil
		}); err != nil {
			return nil, err
		}
		if err := m.PinDevice(path, i%fleetShards); err != nil {
			return nil, err
		}
	}
	r := &fleetRun{w: w, m: m, stats: make([]guestStats, fleetGuests)}
	for i := 0; i < fleetGuests; i++ {
		g, err := sc.addGuest(m, fmt.Sprintf("guest%d", i+1))
		if err != nil {
			return nil, err
		}
		if err := sc.connect(g, sinkPath(i%fleetSinks)); err != nil {
			return nil, err
		}
		r.guests = append(r.guests, g)
	}
	return r, nil
}

// guestStats is one guest's accounting: every offered request ends OK,
// throttled (EAGAIN), rejected (EBUSY) or as another errno.
type guestStats struct {
	offered, ok, throttled, rejected, errors uint64
	violations                               []string // non-errno failures
	clientsDone                              int
}

type fleetRun struct {
	w      *fleet
	m      *paradice.Machine
	guests []*paradice.Guest
	stats  []guestStats
	rt     []int64 // virtual latency of every OK request, due to completion
	bulk   []int64
}

func (r *fleetRun) machine() *paradice.Machine { return r.m }

func (r *fleetRun) start(log *opLog) error {
	for gi, g := range r.guests {
		st := &r.stats[gi]
		stream := r.w.streams[gi]
		st.offered = uint64(len(stream))
		path := sinkPath(gi % fleetSinks)
		for c := 0; c < fleetClients; c++ {
			// Deal the stream round-robin: each client's share stays in
			// due order.
			var mine []fleetReq
			for j := c; j < len(stream); j += fleetClients {
				mine = append(mine, stream[j])
			}
			p, err := g.NewProcess(fmt.Sprintf("load%d", c))
			if err != nil {
				return err
			}
			p.SpawnTask(clientTask, func(t *kernel.Task) {
				r.client(t, p, path, mine, st, log)
				st.clientsDone++
			})
		}
	}
	return nil
}

// client replays its requests open loop: each is issued at its due time,
// or at once if the client fell behind, and its latency counts from the
// due time.
func (r *fleetRun) client(t *kernel.Task, p *kernel.Process, path string, mine []fleetReq, st *guestStats, log *opLog) {
	if len(mine) == 0 {
		return
	}
	// Every client opens at start; the opens share the ring, so some bounce
	// with EBUSY and retry after a fixed backoff.
	fd := -1
	for attempt := 0; attempt < 10000 && fd < 0; attempt++ {
		f, err := t.Open(path, devfile.ORdWr)
		switch {
		case err == nil:
			fd = f
		case kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN):
			t.Sim().Sleep(20 * sim.Microsecond)
		default:
			st.errors += uint64(len(mine))
			st.violations = append(st.violations, fmt.Sprintf("open %s: %v", path, err))
			return
		}
	}
	if fd < 0 {
		st.violations = append(st.violations, fmt.Sprintf("open %s: still busy after 10000 attempts", path))
		return
	}
	buf, err := p.Alloc(fleetBulk)
	if err != nil {
		st.violations = append(st.violations, fmt.Sprintf("alloc: %v", err))
		return
	}
	for _, q := range mine {
		if now := t.Sim().Now(); q.due > now {
			t.Sim().Sleep(q.due.Sub(now))
		}
		size := fleetRTSize
		if q.bulk {
			size = fleetBulk
		}
		err := log.syscall(t, func() error {
			_, err := t.Ioctl(fd, load.Cmd(size), buf)
			return err
		})
		var errno kernel.Errno
		switch {
		case err == nil:
			st.ok++
			lat := int64(t.Sim().Now().Sub(q.due))
			if q.bulk {
				r.bulk = append(r.bulk, lat)
			} else {
				r.rt = append(r.rt, lat)
			}
		case kernel.IsErrno(err, kernel.EAGAIN):
			st.throttled++
		case kernel.IsErrno(err, kernel.EBUSY):
			st.rejected++
		case errors.As(err, &errno):
			st.errors++
		default:
			st.violations = append(st.violations, fmt.Sprintf("ioctl: %v", err))
		}
	}
	if err := t.Close(fd); err != nil {
		st.violations = append(st.violations, fmt.Sprintf("close: %v", err))
	}
}

func (r *fleetRun) finish() outcome {
	o := outcome{ops: forwardedOps(r.m)}
	var ok uint64
	for gi := range r.stats {
		st := &r.stats[gi]
		o.attempted += st.offered
		ok += st.ok
	}
	o.failed = o.attempted - ok
	if o.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("fleet-openloop: %d of %d requests did not complete", o.failed, o.attempted))
	}
	for gi := range r.stats {
		st := &r.stats[gi]
		if sum := st.ok + st.throttled + st.rejected + st.errors; sum != st.offered {
			o.problems = append(o.problems, fmt.Sprintf("fleet-openloop: guest%d offered %d, accounted %d (ok %d throttled %d rejected %d errors %d)",
				gi+1, st.offered, sum, st.ok, st.throttled, st.rejected, st.errors))
		}
		if len(st.violations) > 0 {
			o.problems = append(o.problems, fmt.Sprintf("fleet-openloop: guest%d: %d violations, first: %s",
				gi+1, len(st.violations), st.violations[0]))
		}
		if st.clientsDone != fleetClients {
			o.problems = append(o.problems, fmt.Sprintf("fleet-openloop: guest%d: %d of %d clients finished",
				gi+1, st.clientsDone, fleetClients))
		}
	}
	if s := strandedClients(r.m); len(s) > 0 {
		o.problems = append(o.problems, fmt.Sprintf("fleet-openloop: clients blocked after the run: %v", s))
	}
	sort.Slice(r.rt, func(i, j int) bool { return r.rt[i] < r.rt[j] })
	sort.Slice(r.bulk, func(i, j int) bool { return r.bulk[i] < r.bulk[j] })
	makespan := sim.Duration(r.m.Env.Now()).Seconds()
	goodput := 0.0
	if makespan > 0 {
		goodput = float64(ok) / makespan / 1e3
	}
	o.virt = []value{
		{"virt_rt_p50_us", "us", float64(quantile(r.rt, 0.50)) / 1e3},
		{"virt_rt_p99_us", "us", float64(quantile(r.rt, 0.99)) / 1e3},
		{"virt_bulk_p99_us", "us", float64(quantile(r.bulk, 0.99)) / 1e3},
		{"virt_goodput_kops", "kops/s", goodput},
		{"virt_rt_samples", "count", float64(len(r.rt))},
		{"virt_bulk_samples", "count", float64(len(r.bulk))},
	}
	return o
}

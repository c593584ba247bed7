package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
)

// The live-handover experiment: a planned driver-VM handover under sustained
// open-loop load, compared head-to-head against the crash-style
// RestartDriverVM at the same moment of the same workload. The claim under
// test is the tentpole of the handover work: because the successor boots and
// pre-warms while the predecessor still serves, and the switch itself only
// quiesces the rings for the drain window, a planned handover loses zero
// requests and pauses the device for microseconds — where a restart burns
// the full driver-VM boot as an outage and fails every request that arrives
// inside it.
//
// The workload is the PR 6 open-loop generator against the load sink at ~80%
// of the sink's serial capacity, plus a low-rate "witness" writer whose
// >= 2 KiB writes ride the bulk-grant fast path; the witness is what proves
// the successor comes up warm (its map-cache hits are seeded by the handover
// transfer, not by re-faulting).
//
// Everything runs on the virtual clock under fixed seeds, so the emitted
// rows are byte-identical across runs and bench-regress can gate them
// exactly: "failed"/handover must stay 0, downtime must not grow, and the
// warm counters must stay nonzero.

const (
	hoSinkBase  = 2 * sim.Microsecond
	hoSinkPerKB = 1 * sim.Microsecond
	hoSize      = 2048 // 4 µs service => 250 kops/s sink capacity
	hoSeed      = 4242

	// The lifecycle operation fires at this point in the arrival window;
	// prepare then pays the 100 ms successor boot, so the switch (or the
	// restart outage) lands around hoKickAt + CostDriverVMRestart, well
	// inside the arrival window.
	hoKickAt = 1 * sim.Millisecond
)

func init() {
	extraExperiments = append(extraExperiments, Experiment{
		ID:    "handover",
		Title: "Planned driver-VM handover vs restart under open-loop load",
		Run:   RunHandover,
	})
}

// hoProfile is the sustained load during the lifecycle operation: one bulk
// class at ~80% of sink capacity (full mode), open-loop Poisson arrivals.
func hoProfile(quick bool) load.Profile {
	rate, clients, duration := 200_000.0, 600, 120*sim.Millisecond
	if quick {
		rate, clients, duration = 60_000.0, 150, 115*sim.Millisecond
	}
	return load.Profile{
		Path:     load.SinkPath,
		Classes:  []load.Class{{Name: "bulk", QoS: 0, Size: hoSize, Weight: 1}},
		Arrival:  load.Poisson,
		Rate:     rate,
		Clients:  clients,
		Duration: duration,
		Seed:     hoSeed,
	}
}

// hoRig is one fully built machine + workload, ready to run.
type hoRig struct {
	m   *paradice.Machine
	g   *paradice.Guest
	gen *load.Generator

	witnessWrites  int   // completed witness writes
	witnessErrs    int   // failed witness writes (must stay 0 for handover)
	witnessLastErr error // last witness failure, for diagnostics
}

// newHoRig builds the machine (polling + map cache + TLB), registers the
// sink into every driver-VM generation, and starts the generator plus the
// witness writer.
func newHoRig(quick bool) (*hoRig, error) {
	m, err := paradice.New(paradice.Config{
		Mode:     paradice.Polling,
		GuestRAM: 256 << 20,
		MapCache: true,
		TLB:      true,
	})
	if err != nil {
		return nil, err
	}
	sink := load.NewSink(m.Env, hoSinkBase, hoSinkPerKB)
	// The sink must exist in the successor (and any restart replacement)
	// driver kernel too, or the rebind cannot find the device.
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		k.RegisterDevice(load.SinkPath, sink, sink)
		return nil
	}); err != nil {
		return nil, err
	}
	g, err := m.AddGuest("guest1", kernel.Linux)
	if err != nil {
		return nil, err
	}
	if err := g.Paravirtualize(load.SinkPath); err != nil {
		return nil, err
	}
	built(m)

	r := &hoRig{m: m, g: g}
	gen, err := load.NewGenerator(hoProfile(quick))
	if err != nil {
		return nil, err
	}
	if err := gen.Start(g.K); err != nil {
		return nil, err
	}
	r.gen = gen

	// The witness writer: one long-lived fd issuing 4 KiB writes every
	// 250 µs for the whole window. Each write is big enough for the
	// bulk-grant map hint, so pre-handover writes populate the predecessor's
	// map cache and post-handover writes prove the successor inherited it.
	proc, err := g.K.NewProcess("witness")
	if err != nil {
		return nil, err
	}
	dur := hoProfile(quick).Duration
	proc.SpawnTask("writer", func(t *kernel.Task) {
		// The open competes with every generator client's open at t=0;
		// EBUSY here is the same startup backpressure the clients retry.
		fd, err := t.Open(load.SinkPath, devfile.ORdWr)
		for attempt := 0; err != nil && attempt < 10000 &&
			(kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN)); attempt++ {
			t.Sim().Sleep(20 * sim.Microsecond)
			fd, err = t.Open(load.SinkPath, devfile.ORdWr)
		}
		if err != nil {
			r.witnessErrs++
			r.witnessLastErr = err
			return
		}
		buf, err := proc.Alloc(4096)
		if err != nil {
			r.witnessErrs++
			r.witnessLastErr = err
			return
		}
		end := t.Sim().Now().Add(dur)
		for t.Sim().Now() < end {
			// EBUSY/EAGAIN are backpressure, not loss: the post-drain replay
			// burst can transiently fill the ring, and a well-behaved app
			// retries exactly as it would under plain overload.
			_, err := t.Write(fd, buf, 4096)
			for attempt := 0; err != nil && attempt < 10000 &&
				(kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN)); attempt++ {
				t.Sim().Sleep(20 * sim.Microsecond)
				_, err = t.Write(fd, buf, 4096)
			}
			if err != nil {
				r.witnessErrs++
				r.witnessLastErr = err
			} else {
				r.witnessWrites++
			}
			t.Sim().Sleep(250 * sim.Microsecond)
		}
		t.Close(fd)
	})
	return r, nil
}

// errorsOf sums the honest-errno failures across classes.
func errorsOf(res *load.Result) uint64 {
	var n uint64
	for i := range res.Classes {
		n += res.Classes[i].Errors
	}
	return n
}

// RunHandover runs the workload twice — once with a planned handover, once
// with RestartDriverVM at the same virtual instant — and reports failed
// requests, downtime, and the handover's replay/warmth counters.
func RunHandover(quick bool) ([]Row, error) {
	// --- run 1: planned handover ---
	ho, err := newHoRig(quick)
	if err != nil {
		return nil, err
	}
	var hoErr error
	ho.m.Env.Spawn("handover-driver", func(p *sim.Proc) {
		p.Sleep(hoKickAt)
		hoErr = ho.m.HandoverDriverVM()
	})
	ho.m.Run()
	if hoErr != nil {
		return nil, fmt.Errorf("handover: %w", hoErr)
	}
	if !ho.gen.Done() {
		return nil, fmt.Errorf("handover: clients did not drain")
	}
	hoRes := ho.gen.Result()
	if len(hoRes.Violations) > 0 {
		return nil, fmt.Errorf("handover: %d violations: %s", len(hoRes.Violations), hoRes.Violations[0])
	}
	eps := ho.m.Handovers()
	if len(eps) != 1 || eps[0].Aborted {
		return nil, fmt.Errorf("handover: expected one committed episode, got %+v", eps)
	}
	ep := eps[0]
	if n := errorsOf(hoRes); n != 0 {
		return nil, fmt.Errorf("handover: %d requests failed during a planned handover", n)
	}
	if ho.witnessErrs != 0 {
		return nil, fmt.Errorf("handover: %d witness writes failed (last: %v)", ho.witnessErrs, ho.witnessLastErr)
	}
	be := ho.g.Backends[load.SinkPath]
	warmHits, _, _ := be.MapCacheStats()
	queued := ho.g.Frontends[load.SinkPath].QueuedPosts

	// --- run 2: crash-style restart at the same instant ---
	rst, err := newHoRig(quick)
	if err != nil {
		return nil, err
	}
	var rstErr error
	var rstDown sim.Duration
	rst.m.Env.Spawn("restart-driver", func(p *sim.Proc) {
		p.Sleep(hoKickAt)
		start := p.Now()
		rstErr = rst.m.RestartDriverVM()
		rstDown = p.Now().Sub(start)
	})
	rst.m.Run()
	if rstErr != nil {
		return nil, fmt.Errorf("restart: %w", rstErr)
	}
	if !rst.gen.Done() {
		return nil, fmt.Errorf("restart: clients did not drain")
	}
	rstRes := rst.gen.Result()
	if len(rstRes.Violations) > 0 {
		return nil, fmt.Errorf("restart: %d violations: %s", len(rstRes.Violations), rstRes.Violations[0])
	}

	// The handover's contract rows are gated. "failed"/handover has a
	// baseline of exactly 0, so any loss reads as 100% drift and fails:
	// zero loss is a hard gate, not a tolerance. The downtime (the ring
	// pause) gates like a latency. The warm and replay counters gate
	// downward: a warm-transfer regression shows up as these dropping
	// toward zero, which reads as a cold successor or lost parked posts.
	lower, higher := &Gate{Tol: 10}, &Gate{Tol: 5, HigherIsBetter: true}
	return []Row{
		{Series: "failed", X: "handover", Value: float64(errorsOf(hoRes)), Unit: "requests", Gate: lower},
		{Series: "failed", X: "restart", Value: float64(errorsOf(rstRes)), Unit: "requests"},
		{Series: "downtime", X: "handover", Value: ep.Pause.Microseconds(), Unit: "µs", Gate: lower},
		{Series: "downtime", X: "restart", Value: rstDown.Microseconds(), Unit: "µs"},
		{Series: "queued-replayed", X: "handover", Value: float64(queued), Unit: "posts", Gate: higher},
		{Series: "warm map hits", X: "handover", Value: float64(warmHits), Unit: "hits", Gate: higher},
		{Series: "warm reopens", X: "handover", Value: float64(be.WarmReopens), Unit: "files", Gate: higher},
	}, nil
}

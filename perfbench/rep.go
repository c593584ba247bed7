package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// workload is one benchmark input set. Its inputs are generated from the
// seed when the workload is made; a repetition builds a fresh machine and
// feeds it those inputs.
type workload interface {
	// build sets up a fresh machine, timing the set-up calls on sc.
	build(sc *setupClock) (instance, error)
	// digestCap is the flight-recorder capacity a traced repetition needs
	// to keep every guest system call's digest.
	digestCap() int
}

// instance is one repetition's machine with its guest clients.
type instance interface {
	machine() *paradice.Machine
	// start spawns the guest clients; they record their system calls in
	// log when it is not nil.
	start(log *opLog) error
	// finish checks the outputs once the simulation has drained.
	finish() outcome
}

// outcome is what a repetition's output checks found.
type outcome struct {
	ops       uint64   // forwarded file operations completed
	attempted uint64   // operations the workload attempted
	failed    uint64   // failed, shed or unverified operations
	problems  []string // output checks that failed
	virt      []value  // virtual-clock results, in a fixed order
}

func (o *outcome) fail(n uint64, format string, args ...any) {
	o.failed += n
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// repMode selects what a repetition records beside its timings.
type repMode string

const (
	// modePlain measures with tracing off and nothing else recorded.
	modePlain repMode = "plain"
	// modeProfiled runs under the CPU profiler and also times the clients'
	// system calls on the host clock.
	modeProfiled repMode = "profiled"
	// modeTraced arms the tracer, the flight recorder and a scheduler
	// observer, and records the clients' system calls on the virtual clock.
	modeTraced repMode = "traced"
)

// value is one named number of a repetition, with its unit.
type value struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// record is what one repetition reports to the parent process.
type record struct {
	SetupS     float64  `json:"setup_s"` // host CPU seconds to build the machine, guests and channels
	RunS       float64  `json:"run_s"`   // host CPU seconds in Machine.Run
	Ops        uint64   `json:"ops"`
	AllocBytes uint64   `json:"alloc_bytes"` // heap bytes allocated by set-up and run
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	Problems   []string `json:"problems"`
	Virt       []value  `json:"virt"`
	// Host holds host-clock per-layer values (profiled repetitions), CPU
	// the profile's nanoseconds per group, Exact the counters and virtual
	// attribution of a traced repetition, which must repeat exactly.
	Host  []value `json:"host"`
	CPU   []value `json:"cpu"`
	Exact []value `json:"exact"`

	peakRSS float64 // filled in by the parent from the process's usage
}

// runRep builds a machine, runs the workload on it, checks the outputs and
// returns what the mode records.
func runRep(w workload, mode repMode) (*record, error) {
	var prof *cpuProfile
	if mode == modeProfiled {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	var sc setupClock
	before := readRuntime()
	t0 := cpuNow()
	inst, err := w.build(&sc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := (cpuNow() - t0).Seconds()
	m := inst.machine()

	var log *opLog
	var tr *trace.Tracer
	var sched *schedCounter
	if mode != modePlain {
		log = &opLog{host: mode == modeProfiled}
	}
	if mode == modeTraced {
		tr = m.StartTrace()
		tr.SetEventRetention(false)
		tr.ArmFlightRecorder(trace.FlightConfig{Capacity: w.digestCap()})
		sched = &schedCounter{}
		m.Env.Observer = sched
	}
	if err := inst.start(log); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	t1 := cpuNow()
	m.Run()
	runS := (cpuNow() - t1).Seconds()
	out := inst.finish()
	rt := readRuntime().since(before)

	rec := &record{
		SetupS: setupS, RunS: runS, Ops: out.ops, AllocBytes: rt.allocBytes,
		Attempted: out.attempted, Failed: out.failed, Virt: out.virt,
	}
	switch mode {
	case modeProfiled:
		cpu, err := prof.stop()
		if err != nil {
			return nil, err
		}
		rec.CPU = cpu
		sort.Slice(log.hostNs, func(i, j int) bool { return log.hostNs[i] < log.hostNs[j] })
		ops := float64(out.ops)
		rec.Host = []value{
			{"setup.machine_s", "s", sc.machine.Seconds()},
			{"setup.guest_s", "s", sc.guests.Seconds()},
			{"setup.connect_s", "s", sc.channels.Seconds()},
			{"setup.total_s", "s", setupS},
			{"sim.run_s", "s", runS},
			{"kernel.syscall_host_ns.p50", "ns", float64(quantile(log.hostNs, 0.50))},
			{"kernel.syscall_host_ns.p99", "ns", float64(quantile(log.hostNs, 0.99))},
			{"runtime.allocs_per_op", "count", ratio(float64(rt.mallocs), ops)},
			{"runtime.alloc_bytes_per_op", "bytes", ratio(float64(rt.allocBytes), ops)},
			{"runtime.gc_cycles", "count", float64(rt.gcCycles)},
			{"runtime.gc_pause_s", "s", float64(rt.gcPauseNs) / 1e9},
		}
	case modeTraced:
		m.Env.Observer = nil
		m.StopTrace()
		rec.Exact = sampleLayers(m, tr, sched, log, &out)
	}
	rec.Problems = out.problems
	return rec, nil
}

// setupClock times the public set-up calls of a repetition in host CPU
// time.
type setupClock struct {
	machine  time.Duration // paradice.New
	guests   time.Duration // Machine.AddGuest, summed over guests
	channels time.Duration // Guest.Paravirtualize, summed over guests
}

func (c *setupClock) newMachine(cfg paradice.Config) (*paradice.Machine, error) {
	t := cpuNow()
	m, err := paradice.New(cfg)
	c.machine += cpuNow() - t
	return m, err
}

func (c *setupClock) addGuest(m *paradice.Machine, name string) (*paradice.Guest, error) {
	t := cpuNow()
	g, err := m.AddGuest(name, paradice.Linux)
	c.guests += cpuNow() - t
	return g, err
}

func (c *setupClock) connect(g *paradice.Guest, paths ...string) error {
	t := cpuNow()
	err := g.Paravirtualize(paths...)
	c.channels += cpuNow() - t
	return err
}

// clientTask names every guest task the benchmark spawns, so a client
// left blocked when the simulation drains can be told from the
// simulator's own daemons.
const clientTask = "perfbench-client"

// opLog records the system calls the benchmark's guest clients issue: the
// virtual interval of each (its guest and start and end on the virtual
// clock) and, when host is set, its host duration.
type opLog struct {
	host   bool
	hostNs []int64
	spans  []opSpan
}

// opSpan is one system call on the virtual clock.
type opSpan struct {
	vm         string
	start, end sim.Time
}

// syscall runs call, one guest system call issued by task t, and records
// it. A nil log just runs the call.
func (l *opLog) syscall(t *kernel.Task, call func() error) error {
	if l == nil {
		return call()
	}
	var h time.Time
	if l.host {
		h = time.Now()
	}
	start := t.Sim().Now()
	err := call()
	if l.host {
		l.hostNs = append(l.hostNs, int64(time.Since(h)))
	}
	l.spans = append(l.spans, opSpan{vm: t.Proc.K.Name, start: start, end: t.Sim().Now()})
	return err
}

// schedCounter is a sim.SchedObserver counting scheduling decisions.
type schedCounter struct {
	callbacks uint64
	resumes   uint64
}

func (s *schedCounter) SchedCallback(sim.Time)       { s.callbacks++ }
func (s *schedCounter) SchedResume(sim.Time, string) { s.resumes++ }

// runtimeCost is the Go runtime's bill for a repetition.
type runtimeCost struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	gcPauseNs  uint64
}

func readRuntime() runtimeCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCost{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC), ms.PauseTotalNs}
}

func (c runtimeCost) since(before runtimeCost) runtimeCost {
	return runtimeCost{
		allocBytes: c.allocBytes - before.allocBytes,
		mallocs:    c.mallocs - before.mallocs,
		gcCycles:   c.gcCycles - before.gcCycles,
		gcPauseNs:  c.gcPauseNs - before.gcPauseNs,
	}
}

// forwardedOps sums the completed round trips of every guest's CVD
// frontends: the forwarded file operations the machine served.
func forwardedOps(m *paradice.Machine) uint64 {
	var n uint64
	for _, g := range m.Guests() {
		for _, fe := range g.Frontends {
			n += fe.RoundTrips
		}
	}
	return n
}

// strandedClients names the benchmark's guest tasks that are still blocked
// after the simulation drained.
func strandedClients(m *paradice.Machine) []string {
	var out []string
	for _, name := range m.Env.Deadlocked() {
		if strings.HasSuffix(name, "/"+clientTask) {
			out = append(out, name)
		}
	}
	return out
}

// cpuNow returns the CPU time this process has used, user and system, in
// all its threads. Host costs are measured on it rather than on the wall
// clock: the collector's threads count, and time the host takes the vCPU
// away does not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

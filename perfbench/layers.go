package main

import (
	"fmt"
	"math"
	"sort"

	"paradice"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// registryCounters are the tracer's counters reported per layer, under
// their own names.
var registryCounters = []struct{ name, unit string }{
	{"hv.copy.ops", "count"}, {"hv.copy.bytes", "bytes"}, {"hv.map.pages", "count"},
	{"hv.irq.sent", "count"}, {"hv.grant.validations", "count"}, {"hv.tlb.hit", "count"},
	{"hv.tlb.miss", "count"}, {"iommu.dma.ops", "count"}, {"iommu.dma.bytes", "bytes"},
}

// sampleLayers reads a traced repetition's counters and digests, and
// reconciles the flight recorder's attribution: each digest's hops must sum
// to its latency exactly, and every system call the clients timed must have
// a digest with the same guest and virtual start and end. Everything it
// returns is on the virtual clock or a count, so it repeats exactly.
func sampleLayers(m *paradice.Machine, tr *trace.Tracer, sched *schedCounter, log *opLog, out *outcome) []value {
	guests := make(map[string]bool)
	for _, g := range m.Guests() {
		guests[g.K.Name] = true
	}

	fr := tr.Flight()
	digests := fr.Digests()
	if fr.Total() != uint64(len(digests)) {
		out.problems = append(out.problems, fmt.Sprintf("flight recorder kept %d of %d digests; raise its capacity",
			len(digests), fr.Total()))
	}
	type key struct {
		vm         string
		start, end sim.Time
	}
	unmatched := make(map[key]int)
	var hops [trace.HopCount][]int64
	var syscalls, untiled, overlapped int
	for _, d := range digests {
		if !guests[d.VM] {
			continue
		}
		syscalls++
		unmatched[key{d.VM, d.Start, d.End}]++
		var sum sim.Duration
		for h, v := range d.Hops {
			sum += v
			hops[h] = append(hops[h], int64(v))
		}
		if sum != d.Latency() {
			untiled++
		}
		// The queue hop is the latency the work spans left uncovered; below
		// zero, the request's work spans overlap one another.
		if d.Hops[trace.HopQueue] < 0 {
			overlapped++
		}
	}
	if untiled > 0 {
		out.problems = append(out.problems, fmt.Sprintf("hop reconciliation: %d digests whose hops do not sum to their latency", untiled))
	}
	missing := 0
	for _, sp := range log.spans {
		k := key{sp.vm, sp.start, sp.end}
		if unmatched[k] == 0 {
			missing++
			continue
		}
		unmatched[k]--
	}
	if missing > 0 {
		out.problems = append(out.problems, fmt.Sprintf("hop reconciliation: %d of %d timed system calls have no digest with the same virtual interval",
			missing, len(log.spans)))
	}
	var virtNs []int64
	for _, sp := range log.spans {
		virtNs = append(virtNs, int64(sp.end.Sub(sp.start)))
	}
	sort.Slice(virtNs, func(i, j int) bool { return virtNs[i] < virtNs[j] })

	var fe struct {
		roundTrips, doorbells, rejected, throttled uint64
		spin                                       sim.Duration
	}
	var be struct {
		ops, wakes, polled, flushes uint64
		spin                        sim.Duration
	}
	for _, g := range m.Guests() {
		for _, f := range g.Frontends {
			fe.roundTrips += f.RoundTrips
			fe.doorbells += f.DoorbellIRQs
			fe.rejected += f.Rejected
			fe.throttled += f.Throttled
			fe.spin += f.SpinTime
		}
		for _, b := range g.Backends {
			be.ops += b.OpsHandled
			be.wakes += b.WakeIRQs
			be.polled += b.PolledPosts
			be.flushes += b.RespFlushes
			be.spin += b.SpinTime
		}
	}
	var enqueued, served uint64
	maxDepth := 0
	for _, sh := range m.Shards() {
		if sh.Pool == nil {
			continue
		}
		enqueued += sh.Pool.Enqueued
		served += sh.Pool.Served
		if sh.Pool.MaxDepth > maxDepth {
			maxDepth = sh.Pool.MaxDepth
		}
	}
	reg := tr.Metrics()
	irqsPerOp := 0.0
	if fe.roundTrips > 0 {
		irqsPerOp = float64(reg.Counter("hv.irq.sent")) / float64(fe.roundTrips)
	}
	eptPages := 0
	for _, vm := range m.HV.VMs() {
		eptPages += vm.EPT.Count()
	}
	vals := []value{
		{"sim.callbacks", "count", float64(sched.callbacks)},
		{"sim.resumes", "count", float64(sched.resumes)},
		{"kernel.syscalls", "count", float64(syscalls)},
		{"kernel.syscall_virt_ns.p50", "ns", float64(quantile(virtNs, 0.50))},
		{"kernel.syscall_virt_ns.p99", "ns", float64(quantile(virtNs, 0.99))},
		{"cvd.fe.round_trips", "count", float64(fe.roundTrips)},
		{"cvd.fe.doorbell_irqs", "count", float64(fe.doorbells)},
		{"cvd.fe.rejected", "count", float64(fe.rejected)},
		{"cvd.fe.throttled", "count", float64(fe.throttled)},
		{"cvd.fe.spin_s", "s", fe.spin.Seconds()},
		{"cvd.be.ops", "count", float64(be.ops)},
		{"cvd.be.wake_irqs", "count", float64(be.wakes)},
		{"cvd.be.polled_posts", "count", float64(be.polled)},
		{"cvd.be.resp_flushes", "count", float64(be.flushes)},
		{"cvd.be.spin_s", "s", be.spin.Seconds()},
		{"cvd.pool.enqueued", "count", float64(enqueued)},
		{"cvd.pool.served", "count", float64(served)},
		{"cvd.pool.max_depth", "count", float64(maxDepth)},
		{"cvd.irqs_per_op", "ratio", irqsPerOp},
	}
	for _, c := range registryCounters {
		vals = append(vals, value{c.name, c.unit, float64(reg.Counter(c.name))})
	}
	vals = append(vals,
		value{"mem.ept_pages", "count", float64(eptPages)},
		value{"hop.overlapped_ops", "count", float64(overlapped)})
	for h := trace.Hop(0); h < trace.HopCount; h++ {
		sort.Slice(hops[h], func(i, j int) bool { return hops[h][i] < hops[h][j] })
		vals = append(vals,
			value{"hop." + h.String() + ".p50_ns", "ns", float64(quantile(hops[h], 0.50))},
			value{"hop." + h.String() + ".p99_ns", "ns", float64(quantile(hops[h], 0.99))})
	}
	return vals
}

// perLayer computes the traced run's metrics: host costs are medians over
// the untraced repetitions, which ran under the CPU profiler; counters and
// virtual attribution come from the traced repetitions, which must agree
// exactly.
func perLayer(res *result, profiled, traced []*record) {
	exact := traced[0].Exact
	for i, r := range traced[1:] {
		if !sameValues(exact, r.Exact) {
			res.problems = append(res.problems, fmt.Sprintf(
				"nondeterminism: traced repetition %d read different counters or virtual attribution than the first", i+2))
		}
	}
	for i, v := range profiled[0].Host {
		res.add(v.Name, v.Unit, median(collect(profiled, func(r *record) float64 { return r.Host[i].Value })))
	}
	for _, v := range exact {
		res.add(v.Name, v.Unit, v.Value)
	}
	runS := median(collect(profiled, func(r *record) float64 { return r.RunS }))
	dispatches := lookup(exact, "sim.callbacks") + lookup(exact, "sim.resumes")
	res.add("sim.ns_per_dispatch", "ns", ratio(runS*1e9, dispatches))
	res.add("trace.overhead", "ratio", ratio(median(collect(traced, func(r *record) float64 { return r.RunS })), runS))

	var total float64
	cpu := make([]float64, len(cpuGroups))
	for _, r := range profiled {
		for i, v := range r.CPU {
			cpu[i] += v.Value
			total += v.Value
		}
	}
	for i, g := range cpuGroups {
		res.add("cpu."+g, "share", ratio(cpu[i], total))
	}

	for _, v := range virtMetrics {
		res.add(v.Name, v.Unit, lookup(profiled[0].Virt, v.Name))
	}
	res.add("error_rate", "ratio", ratio(float64(res.failed), float64(res.attempted)))
}

// lookup returns the named value, or 0.
func lookup(vals []value, name string) float64 {
	for _, v := range vals {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

// sameValues reports whether two value lists are identical, bit for bit.
func sameValues(a, b []value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

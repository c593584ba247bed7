// Command perfbench is the repository's two-clock benchmark. It runs one
// workload on freshly built Paradice machines, over and over for a fixed
// host-time budget, and reports two kinds of numbers:
//
//   - host-clock cost: set-up time, forwarded file operations per host
//     second, heap bytes allocated and peak resident memory;
//   - virtual-clock results: what the model says the hardware would take
//     (the Figure 2 packet rate, the Figure 5 multiplication time, the
//     tail latencies of many guests sharing sinks).
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing
// off. With -trace 1 it makes a separate run that reports per-layer numbers:
// host time of each set-up call, scheduler dispatch counts, CVD and
// hypervisor counters, the flight recorder's per-hop virtual times, a CPU
// profile folded by package, and Go runtime costs. Every number is taken
// from outside the simulator, through its public functions and counters.
//
// Every repetition runs in a fresh child process of this command: the
// simulator never ends the goroutines of a drained machine, so a process
// that built machine after machine would carry every earlier one in its
// heap. Every repetition of a run uses the same seeded inputs, so every
// virtual result must repeat bit for bit, with tracing off and on; a
// mismatch, a failed output check or a failed operation makes the run exit
// non-zero.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload netmap-tx --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// repTimeout bounds one repetition's child process.
const repTimeout = 90 * time.Second

// run parses the command line, measures the workload and prints the
// result; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds to repeat the workload for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	repFlag := fs.String("rep", "", "run one repetition in this mode (plain, profiled or traced) and print its record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if *repFlag != "" {
		return childRep(spec, *seed, repMode(*repFlag), stdout, stderr)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	p := &parent{self: self, spec: spec, seed: *seed, stderr: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	res, err := p.measure(budget, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d reps=%d attempted=%d failed=%d\n",
		spec.name, *seed, *traceFlag, res.reps, res.attempted, res.failed)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "# %-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "# FAILED: %s\n", p)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct() {
		return 1
	}
	return 0
}

// childRep runs one repetition and prints its record as JSON.
func childRep(spec workloadSpec, seed int64, mode repMode, stdout, stderr io.Writer) int {
	switch mode {
	case modePlain, modeProfiled, modeTraced:
	default:
		fmt.Fprintf(stderr, "perfbench: unknown repetition mode %q\n", mode)
		return 2
	}
	rec, err := runRep(spec.make(seed), mode)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one run reports.
type result struct {
	reps      int
	attempted uint64
	failed    uint64
	problems  []string // failed output checks and determinism mismatches
	metrics   []metric
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// json renders the result line.
func (r *result) json() (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]valueUnit)}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = valueUnit{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// parent runs repetitions as child processes of the benchmark's own
// executable and aggregates their records.
type parent struct {
	self   string
	spec   workloadSpec
	seed   int64
	stderr io.Writer
}

// measure runs the workload for the budget and computes the metrics the
// mode reports.
func (p *parent) measure(budget time.Duration, traced bool) (*result, error) {
	start := time.Now()
	if !traced {
		reps, err := p.repeat(modePlain, start.Add(budget), 3)
		if err != nil {
			return nil, err
		}
		return plainResult(reps), nil
	}
	// The traced run: half the budget untraced under the CPU profiler (host
	// costs by package and by call), half with the tracer and the flight
	// recorder armed (counters and virtual attribution).
	profiled, err := p.repeat(modeProfiled, start.Add(budget/2), 2)
	if err != nil {
		return nil, err
	}
	tracedReps, err := p.repeat(modeTraced, start.Add(budget), 2)
	if err != nil {
		return nil, err
	}
	return tracedResult(profiled, tracedReps), nil
}

// plainResult aggregates the repetitions of an untraced run.
func plainResult(reps []*record) *result {
	res := &result{reps: len(reps)}
	tally(res, reps)
	checkSame(res, reps)
	endToEnd(res, reps)
	return res
}

// tracedResult aggregates the repetitions of a traced run.
func tracedResult(profiled, traced []*record) *result {
	all := append(append([]*record(nil), profiled...), traced...)
	res := &result{reps: len(all)}
	tally(res, all)
	checkSame(res, all)
	perLayer(res, profiled, traced)
	return res
}

// repeat runs repetitions until the deadline, and at least least of them.
func (p *parent) repeat(mode repMode, deadline time.Time, least int) ([]*record, error) {
	var reps []*record
	for len(reps) < least || time.Now().Before(deadline) {
		r, err := p.child(mode)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", mode, len(reps)+1, err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// child runs one repetition in a fresh process and waits for it to end.
func (p *parent) child(mode repMode) (*record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, p.self, "--workload", p.spec.name,
		"--seed", fmt.Sprint(p.seed), "--rep", string(mode))
	cmd.Stdout = &out
	cmd.Stderr = p.stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(out.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("reading its record: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.peakRSS = float64(ru.Maxrss) * 1024 // Linux reports kilobytes
	}
	return rec, nil
}

// tally sums attempted and failed operations and collects the output-check
// failures of every repetition.
func tally(res *result, reps []*record) {
	seen := make(map[string]bool)
	for _, r := range reps {
		res.attempted += r.Attempted
		res.failed += r.Failed
		for _, p := range r.Problems {
			if !seen[p] {
				seen[p] = true
				res.problems = append(res.problems, p)
			}
		}
	}
}

// checkSame is the determinism and trace-neutrality guard: every virtual
// result of every repetition, traced or not, must equal the first
// repetition's bit for bit.
func checkSame(res *result, reps []*record) {
	for i, r := range reps[1:] {
		if !sameValues(reps[0].Virt, r.Virt) {
			res.problems = append(res.problems, fmt.Sprintf("nondeterminism: repetition %d has virtual results %v, the first %v",
				i+2, r.Virt, reps[0].Virt))
		}
	}
}

// endToEnd computes the metrics a user of the simulator sees, each the
// median over the repetitions.
func endToEnd(res *result, reps []*record) {
	res.add("setup_s", "s", median(collect(reps, func(r *record) float64 { return r.SetupS })))
	res.add("host_ops_per_s", "1/s", median(collect(reps, func(r *record) float64 { return float64(r.Ops) / r.RunS })))
	res.add("alloc_bytes", "bytes", median(collect(reps, func(r *record) float64 { return float64(r.AllocBytes) })))
	res.add("peak_rss_bytes", "bytes", median(collect(reps, func(r *record) float64 { return r.peakRSS })))
}

func collect(reps []*record, f func(*record) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted values: the value
// of rank ceil(q*n), the definition the simulator's histograms use.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

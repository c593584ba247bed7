package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricReported builds the command and runs every workload for
// the shortest budget in both modes: each run must pass its checks, echo
// its seed, and report exactly the metrics BENCHMARK.json names, with their
// units.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	spec := readSpec(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for traceMode, want := range map[int][]struct{ Name, Unit string }{0: spec.EndToEnd, 1: spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, traceMode), func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "17", "--seconds", "0.01",
					"--trace", fmt.Sprint(traceMode))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s\n%s", err, out, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if !strings.Contains(lines[0], "seed=17") {
					t.Errorf("seed not echoed: %q", lines[0])
				}
				var res struct {
					Correct           bool
					Attempted, Failed uint64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if traceMode == 1 {
					var cpu float64
					for name, m := range res.Metrics {
						if strings.HasPrefix(name, "cpu.") {
							cpu += m.Value
						}
					}
					if math.Abs(cpu-1) > 1e-9 {
						t.Errorf("cpu shares sum to %v", cpu)
					}
					if e := res.Metrics["error_rate"].Value; e != 0 {
						t.Errorf("error_rate = %v", e)
					}
				} else {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestFailedCheckRaisesErrorRate runs a small matrix workload whose CPU
// reference for the second product has been corrupted: the output check
// must fail that product, and the traced run must report it in error_rate
// and as a failed check.
func TestFailedCheckRaisesErrorRate(t *testing.T) {
	w := newGPUMatmulSized(5, 24, 2)
	w.want[1][7] += 1
	var profiled, traced []*record
	for i := 0; i < 2; i++ {
		p, err := runRep(w, modeProfiled)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runRep(w, modeTraced)
		if err != nil {
			t.Fatal(err)
		}
		profiled, traced = append(profiled, p), append(traced, tr)
	}
	res := tracedResult(profiled, traced)
	if res.correct() {
		t.Fatal("a run with a wrong product reads correct")
	}
	if res.attempted != 8 || res.failed != 4 {
		t.Errorf("attempted %d failed %d, want 8 and 4", res.attempted, res.failed)
	}
	for _, m := range res.metrics {
		if m.name == "error_rate" && m.value != 0.5 {
			t.Errorf("error_rate = %v, want 0.5", m.value)
		}
	}
	if len(res.problems) != 1 || !strings.Contains(res.problems[0], "differs from the CPU reference") {
		t.Errorf("problems = %q", res.problems)
	}
}

// TestDeterminismGuard feeds the aggregation repetitions that disagree on a
// virtual result or a traced counter.
func TestDeterminismGuard(t *testing.T) {
	rep := func(virt, callbacks float64) *record {
		return &record{
			Attempted: 1, Ops: 1, SetupS: 1, RunS: 1,
			Virt:  []value{{"virt_mpps", "Mpps", virt}},
			Exact: []value{{"sim.callbacks", "count", callbacks}},
		}
	}
	if res := plainResult([]*record{rep(1, 0), rep(1, 0), rep(1, 0)}); !res.correct() {
		t.Errorf("identical repetitions flagged: %q", res.problems)
	}
	if res := plainResult([]*record{rep(1, 0), rep(1, 0), rep(math.Nextafter(1, 2), 0)}); res.correct() {
		t.Error("a virtual result one ulp off passed")
	}
	if res := tracedResult([]*record{rep(1, 0), rep(1, 0)}, []*record{rep(1, 5), rep(1, 6)}); res.correct() {
		t.Error("traced repetitions with different callback counts passed")
	}
}

func TestCPUGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"paradice/internal/cvd.(*Backend).oldestPosted":   "cvd",
		"paradice/internal/device/gpu.(*GPU).execCompute": "device",
		"paradice/internal/driver/drm.(*Driver).ioctl":    "driver",
		"paradice/internal/iommu.(*DMA).Read":             "hv",
		"paradice/internal/usrlib.(*GPUCtx).WriteF32":     "workload",
		"main.(*fleetRun).client":                         "workload",
		"paradice.(*Machine).AddGuest":                    "other",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime.map",
		"runtime.mapaccess2_fast64":                       "runtime.map",
		"runtime.mallocgc":                                "runtime.malloc_gc",
		"runtime.scanobject":                              "runtime.malloc_gc",
		"runtime.chanrecv":                                "runtime.sched_chan",
		"runtime.futex":                                   "runtime.sched_chan",
		"runtime.memmove":                                 "other",
	} {
		if got := cpuGroup(fn); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

package main

import (
	"math/rand"

	"paradice"
	"paradice/internal/device/gpu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
	wl "paradice/internal/workload"
)

// gpu-matmul: Figure 5's order-500 OpenCL multiplication, back to back on
// the paravirtual GPU. Few forwarded operations, each moving megabytes:
// buffer-object mmap faults, 1 MB guest writes through page tables, the
// device's compute, and the result read back.
const (
	matmulOrder = 500
	matmulRuns  = 2 // multiplications per repetition, each on its own inputs
)

type gpuMatmul struct {
	n    int
	a, b [][]float32 // inputs of each multiplication
	want [][]float32 // their products, computed on the CPU
}

func newGPUMatmul(seed int64) workload {
	return newGPUMatmulSized(seed, matmulOrder, matmulRuns)
}

func newGPUMatmulSized(seed int64, n, runs int) *gpuMatmul {
	rng := rand.New(rand.NewSource(seed))
	w := &gpuMatmul{n: n}
	for i := 0; i < runs; i++ {
		a, b := make([]float32, n*n), make([]float32, n*n)
		for j := range a {
			a[j] = rng.Float32()
			b[j] = rng.Float32()
		}
		w.a = append(w.a, a)
		w.b = append(w.b, b)
		w.want = append(w.want, referenceProduct(a, b, n))
	}
	return w
}

// referenceProduct multiplies on the CPU.
func referenceProduct(a, b []float32, n int) []float32 {
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		out := c[i*n : i*n+n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			row := b[k*n : k*n+n]
			for j := range out {
				out[j] += aik * row[j]
			}
		}
	}
	return c
}

// productMatches compares every entry of a product with the reference,
// within the rounding slack of an order-n float32 dot product.
func productMatches(want, got []float32, n int) bool {
	if len(got) != len(want) {
		return false
	}
	limit := float32(n) * 1e-4
	for i, w := range want {
		d := w - got[i]
		if d < -limit || d > limit {
			return false
		}
	}
	return true
}

func (w *gpuMatmul) digestCap() int { return 4096 * len(w.a) }

func (w *gpuMatmul) build(sc *setupClock) (instance, error) {
	m, err := sc.newMachine(paradice.Config{})
	if err != nil {
		return nil, err
	}
	g, err := sc.addGuest(m, "guest1")
	if err != nil {
		return nil, err
	}
	if err := sc.connect(g, paradice.PathGPU); err != nil {
		return nil, err
	}
	return &gpuRun{w: w, m: m, g: g, elapsed: make([]sim.Duration, len(w.a)), got: make([][]float32, len(w.a))}, nil
}

type gpuRun struct {
	w *gpuMatmul
	m *paradice.Machine
	g *paradice.Guest

	done    bool
	err     error
	elapsed []sim.Duration // virtual experiment time of each multiplication
	got     [][]float32    // the products read back
}

func (r *gpuRun) machine() *paradice.Machine { return r.m }

func (r *gpuRun) start(log *opLog) error {
	p, err := r.g.NewProcess("opencl")
	if err != nil {
		return err
	}
	p.SpawnTask(clientTask, func(t *kernel.Task) {
		for i := range r.w.a {
			if r.err = r.multiply(t, log, i); r.err != nil {
				break
			}
		}
		r.done = true
	})
	return nil
}

// multiply is the Figure 5 benchmark body: OpenCL set-up, three buffer
// objects mapped into the application, the inputs written, the compute
// submitted and waited for, the product read back. Calls that are one
// system call each are timed.
func (r *gpuRun) multiply(t *kernel.Task, log *opLog, i int) error {
	n := r.w.n
	bytes := uint64(n) * uint64(n) * 4
	mapLen := (bytes + mem.PageSize - 1) &^ (mem.PageSize - 1)
	copyCost := perf.Copy(int(bytes), int(bytes)/mem.PageSize+1)

	start := t.Sim().Now()
	t.Sim().Advance(wl.CLSetupTime)
	var g *usrlib.GPUCtx
	if err := log.syscall(t, func() (err error) { g, err = usrlib.OpenGPU(t, paradice.PathGPU); return err }); err != nil {
		return err
	}
	var handles [3]uint32
	var vas [3]mem.GuestVirt
	for j := range handles {
		if err := log.syscall(t, func() (err error) { handles[j], err = g.CreateBO(bytes); return err }); err != nil {
			return err
		}
		va, err := g.MapBO(handles[j], mapLen)
		if err != nil {
			return err
		}
		vas[j] = va
	}
	if err := g.WriteF32(vas[0], r.w.a[i]); err != nil {
		return err
	}
	if err := g.WriteF32(vas[1], r.w.b[i]); err != nil {
		return err
	}
	t.Sim().Advance(2 * copyCost)
	var fence uint32
	if err := log.syscall(t, func() (err error) {
		fence, err = g.SubmitIB([]uint32{gpu.OpCompute, handles[0], handles[1], handles[2], uint32(n)})
		return err
	}); err != nil {
		return err
	}
	if err := log.syscall(t, func() error { return g.WaitFence(fence) }); err != nil {
		return err
	}
	got, err := g.ReadF32(vas[2], n*n)
	if err != nil {
		return err
	}
	r.got[i] = got
	t.Sim().Advance(copyCost)
	for _, va := range vas {
		if err := log.syscall(t, func() error { return g.UnmapBO(va, mapLen) }); err != nil {
			return err
		}
	}
	if err := log.syscall(t, g.Close); err != nil {
		return err
	}
	r.elapsed[i] = t.Sim().Now().Sub(start)
	return nil
}

func (r *gpuRun) finish() outcome {
	runs := uint64(len(r.w.a))
	o := outcome{ops: forwardedOps(r.m), attempted: runs}
	switch {
	case !r.done:
		o.fail(runs, "gpu-matmul: client did not finish (blocked: %v)", strandedClients(r.m))
	case r.err != nil:
		o.fail(runs, "gpu-matmul: %v", r.err)
	}
	var total sim.Duration
	for i, want := range r.w.want {
		total += r.elapsed[i]
		if r.got[i] != nil && !productMatches(want, r.got[i], r.w.n) {
			o.fail(1, "gpu-matmul: product %d differs from the CPU reference", i)
		}
	}
	o.virt = []value{{"virt_matmul_s", "s", total.Seconds() / float64(runs)}}
	return o
}

package main

// workloadSpec names a workload and makes it from a seed.
type workloadSpec struct {
	name string
	make func(seed int64) workload
}

var workloads = []workloadSpec{
	{name: "netmap-tx", make: newNetmapTx},
	{name: "gpu-matmul", make: newGPUMatmul},
	{name: "fleet-openloop", make: newFleet},
}

// virtMetrics are the virtual-clock results of all workloads. The traced
// run reports each of them; a workload reports 0 for the ones that are not
// its own.
var virtMetrics = []value{
	{Name: "virt_mpps", Unit: "Mpps"},
	{Name: "virt_matmul_s", Unit: "s"},
	{Name: "virt_rt_p50_us", Unit: "us"},
	{Name: "virt_rt_p99_us", Unit: "us"},
	{Name: "virt_bulk_p99_us", Unit: "us"},
	{Name: "virt_goodput_kops", Unit: "kops/s"},
	{Name: "virt_rt_samples", Unit: "count"},
	{Name: "virt_bulk_samples", Unit: "count"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

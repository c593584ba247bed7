package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running CPU profile of this process.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the CPU nanoseconds of each group, by
// the function executing when the sample was taken (flat).
func (p *cpuProfile) stop() ([]value, error) {
	pprof.StopCPUProfile()
	flat, err := flatByFunction(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	per := make(map[string]int64)
	for fn, ns := range flat {
		per[cpuGroup(fn)] += ns
	}
	out := make([]value, len(cpuGroups))
	for i, g := range cpuGroups {
		out[i] = value{"cpu." + g, "ns", float64(per[g])}
	}
	return out, nil
}

// cpuGroups are the groups CPU samples are folded into, in report order.
var cpuGroups = []string{
	"sim", "mem", "hv", "grant", "cvd", "kernel", "driver", "device", "load",
	"workload", "trace", "runtime.map", "runtime.malloc_gc", "runtime.sched_chan", "other",
}

// cpuGroup maps a function's full name to its group: the simulator's own
// packages by name (iommu counts with hv; the user-space libraries and the
// benchmark's clients count as workload), the Go runtime's map, allocation
// and collection, and scheduling and channel work, and the rest as other.
func cpuGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "paradice/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "sim", "mem", "hv", "grant", "cvd", "kernel", "driver", "device", "load", "trace":
			return pkg
		case "iommu":
			return "hv"
		case "workload", "usrlib":
			return "workload"
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "workload"
	}
	if strings.HasPrefix(fn, "internal/runtime/maps.") {
		return "runtime.map"
	}
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return "other"
	}
	for _, p := range runtimeMap {
		if strings.HasPrefix(name, p) {
			return "runtime.map"
		}
	}
	for _, p := range runtimeAlloc {
		if strings.HasPrefix(name, p) {
			return "runtime.malloc_gc"
		}
	}
	for _, p := range runtimeSched {
		if strings.HasPrefix(name, p) {
			return "runtime.sched_chan"
		}
	}
	return "other"
}

var (
	runtimeMap   = []string{"map", "memhash", "aeshash", "strhash", "nilinterhash", "interhash", "efaceHash", "typehash"}
	runtimeAlloc = []string{
		"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "rawbyteslice", "rawstring",
		"nextFreeFast", "heapSetType", "heapBits", "typePointers", "(*typePointers)",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*pageAlloc)", "(*pallocBits)", "(*gcBits)", "(*gcWork)",
		"(*gcControllerState)", "(*sweepLocked)", "(*sweepLocker)", "(*wbBuf)", "(*mSpanStateBox)", "(*fixalloc)",
		"gc", "scan", "mark", "greyobject", "findObject", "spanOf", "sweep", "bgsweep", "bgscavenge", "scavenge",
		"wbBuf", "bulkBarrier", "typedmemmove", "typedslicecopy", "publicationBarrier", "sysAlloc", "sysUsed",
		"sysUnused", "madvise", "stkbucket", "deductAssistCredit", "memclr",
	}
	runtimeSched = []string{
		"chan", "selectgo", "send", "recv", "gopark", "goready", "ready", "park_m", "schedule", "findRunnable",
		"execute", "gogo", "mcall", "systemstack", "casgstatus", "runqget", "runqput", "runqsteal", "runqgrab",
		"stealWork", "wakep", "startm", "stopm", "handoffp", "acquirep", "releasep", "futex", "notesleep",
		"notewakeup", "semasleep", "semawakeup", "lock", "unlock", "lock2", "unlock2", "procyield", "osyield",
		"usleep", "nanotime", "checkTimers", "goschedImpl", "gosched", "goexit", "newproc", "(*waitq)",
		"resetspinning", "netpoll", "entersyscall", "exitsyscall", "acquirem", "releasem",
	}
)

// flatByFunction decodes a gzip-compressed pprof CPU profile and returns
// the CPU nanoseconds of each function as the innermost frame of a sample.
func flatByFunction(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = make(map[uint64]int64)  // function id -> string index
		locLeaf  = make(map[uint64]uint64) // location id -> innermost function id
		samples  [][]uint64                // location ids, leaf first
		values   [][]int64
		types    [][2]int64 // sample types: type and unit string indexes
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, locs)
			values = append(values, vals)
		case 4: // location
			var id, leaf uint64
			first := true
			if err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined function
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLeaf[id] = leaf
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueType := -1
	for i, t := range types {
		if t[0] >= 0 && int(t[0]) < len(strs) && strs[t[0]] == "cpu" {
			valueType = i
		}
	}
	if valueType < 0 {
		return nil, errors.New("no cpu sample type")
	}
	flat := make(map[string]int64)
	for i, locs := range samples {
		if len(locs) == 0 || valueType >= len(values[i]) {
			continue
		}
		idx, ok := funcName[locLeaf[locs[0]]]
		name := "?"
		if ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		flat[name] += values[i][valueType]
	}
	return flat, nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// Command paradice-bench regenerates every table and figure of the paper's
// evaluation (§6) from the simulation and prints them as text series,
// paper-value alongside measured where the paper states a number.
//
// Usage:
//
//	paradice-bench                 # run everything at full fidelity
//	paradice-bench -quick          # reduced iteration counts (~seconds)
//	paradice-bench -exp fig2,fig5  # selected experiments
//	paradice-bench -list           # list experiment IDs
//	paradice-bench -json           # machine-readable results on stdout
//	paradice-bench -trace DIR      # per-machine Chrome traces + metrics
//	paradice-bench -cpuprofile FILE -memprofile FILE
//	                               # pprof CPU / allocation profiles of the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"paradice"
	"paradice/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts for a fast pass")
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout")
	traceDir := flag.String("trace", "", "directory for per-machine Chrome traces and metrics dumps")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiments to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the experiments to `file`")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// With -trace, every machine an experiment builds gets a tracer; the
	// trace and metrics of machine N of experiment E land in
	// DIR/E-NN.trace.json and DIR/E-NN.metrics.txt after the experiment.
	var traced []*paradice.Machine
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bench.OnMachine = func(m *paradice.Machine) {
			m.StartTrace()
			traced = append(traced, m)
		}
	}

	type jsonResult struct {
		ID    string      `json:"id"`
		Title string      `json:"title"`
		Rows  []bench.Row `json:"rows,omitempty"`
		Error string      `json:"error,omitempty"`
	}
	var results []jsonResult

	stopProfile, err := startProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	failed := false
	for _, e := range selected {
		if !*jsonOut {
			fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		}
		rows, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  ERROR: %v\n", err)
			results = append(results, jsonResult{ID: e.ID, Title: e.Title, Error: err.Error()})
			failed = true
		} else {
			results = append(results, jsonResult{ID: e.ID, Title: e.Title, Rows: rows})
			if !*jsonOut {
				printRows(rows, e.IsTable)
				fmt.Println()
			}
		}
		for i, m := range traced {
			if err := dumpTrace(m, *traceDir, e.ID, i); err != nil {
				fmt.Fprintf(os.Stderr, "  trace export: %v\n", err)
				failed = true
			}
		}
		traced = traced[:0]
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed = true
	}
	if *memProfile != "" {
		if err := writeFile(*memProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// startProfile starts a CPU profile into path (nothing when path is empty)
// and returns the function that stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// dumpTrace writes one traced machine's Chrome trace and metrics dump and
// detaches the tracer.
func dumpTrace(m *paradice.Machine, dir, exp string, n int) error {
	tr := m.StopTrace()
	if tr == nil {
		return nil
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%02d", exp, n))
	if err := writeFile(base+".trace.json", tr.WriteChrome); err != nil {
		return err
	}
	return writeFile(base+".metrics.txt", tr.WriteMetrics)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRows(rows []bench.Row, table bool) {
	for _, r := range rows {
		// The "~" marks an approximate quantile: the histogram spilled its
		// exact reservoir and the value is a log2-bucket upper bound.
		mark := " "
		if r.Approx {
			mark = "~"
		}
		switch {
		case table && r.Paper != 0:
			fmt.Printf("  %-16s %-52s %s%8.0f %-10s (paper: %.0f)\n", r.Series, r.X, mark, r.Value, r.Unit, r.Paper)
		case table:
			fmt.Printf("  %-16s %-52s %s%8.0f %s\n", r.Series, r.X, mark, r.Value, r.Unit)
		case r.Paper != 0:
			fmt.Printf("  %-16s %-22s %s%10.3f %-6s (paper: %.1f)\n", r.Series, r.X, mark, r.Value, r.Unit, r.Paper)
		default:
			fmt.Printf("  %-16s %-22s %s%10.3f %s\n", r.Series, r.X, mark, r.Value, r.Unit)
		}
	}
}

// Command bench-regress guards the perf trajectory: it compares fresh
// `paradice-bench -json` runs against the committed baseline (BENCH.json)
// and fails when a gated row drifted past its tolerance in the bad
// direction.
//
// The experiments declare which rows are gated, with what tolerance and in
// which direction, where they build those rows (bench.Row.Gate). The gate
// enforced is the one recorded in the baseline: a change that drops or
// loosens a Gate in code is still held to the committed gate until the
// baseline is regenerated in review. A current row that carries a gate the
// baseline lacks fails too, so a new gate lands only with its baseline.
// Every gated baseline row must be present in the current runs.
//
// Usage (one experiment per process: a drained machine is never freed, so
// several experiments in one process add up to gigabytes):
//
//	for e in noop fig5 tail handover adaptive multivm; do
//		paradice-bench -json -exp $e > current-$e.json
//	done
//	bench-regress -baseline BENCH.json current-*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"paradice/internal/bench"
)

// parse reads one paradice-bench -json document into rows, keyed by
// "experiment/series/x", adding them to rows.
func parse(path string, data []byte, rows map[string]bench.Row) error {
	var results []bench.Result
	if err := json.Unmarshal(data, &results); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, res := range results {
		if res.Error != "" {
			return fmt.Errorf("%s: experiment %s errored: %s", path, res.ID, res.Error)
		}
		for _, r := range res.Rows {
			key := res.ID + "/" + r.Series + "/" + r.X
			if _, dup := rows[key]; dup {
				return fmt.Errorf("%s: row %s appears twice", path, key)
			}
			rows[key] = r
		}
	}
	return nil
}

func load(paths ...string) (map[string]bench.Row, error) {
	rows := make(map[string]bench.Row)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := parse(path, data, rows); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func sortedKeys(rows map[string]bench.Row) []string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compare gates every gated baseline row against the current run, by the
// baseline's gate. It returns the per-row report lines, the failures, and
// the number of gated rows checked.
func compare(base, cur map[string]bench.Row) (report, failures []string, gated int) {
	for _, key := range sortedKeys(base) {
		want := base[key]
		if want.Gate == nil {
			continue
		}
		gated++
		got, ok := cur[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%-40s missing from current run", key))
			continue
		}
		tol := want.Gate.Tol
		drift := 0.0
		if want.Value != 0 {
			drift = 100 * (got.Value - want.Value) / want.Value
		} else if got.Value != 0 {
			drift = 100 // from zero to nonzero: report as full drift
		}
		bad := drift > tol
		dir := ">"
		if want.Gate.HigherIsBetter {
			bad = drift < -tol
			dir = "<-"
		}
		status := "ok"
		if bad {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%-40s %.3f -> %.3f (%+.1f%% %s %.0f%%)",
				key, want.Value, got.Value, drift, dir, tol))
		}
		report = append(report, fmt.Sprintf("  %-40s baseline %12.3f  current %12.3f  %+7.1f%%  %s",
			key, want.Value, got.Value, drift, status))
	}
	for _, key := range sortedKeys(cur) {
		if cur[key].Gate != nil && base[key].Gate == nil {
			failures = append(failures, fmt.Sprintf("%-40s gated in current run but not in baseline (regenerate it)", key))
		}
	}
	return report, failures, gated
}

func main() {
	baseline := flag.String("baseline", "BENCH.json", "committed baseline JSON")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench-regress [-baseline BENCH.json] current.json...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-regress:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-regress:", err)
		os.Exit(2)
	}

	report, failures, gated := compare(base, cur)
	if gated == 0 {
		fmt.Fprintln(os.Stderr, "bench-regress: baseline has no gated rows")
		os.Exit(2)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbench-regress: %d gated row(s) failed:\n  %s\n",
			len(failures), strings.Join(failures, "\n  "))
		os.Exit(1)
	}
	fmt.Printf("bench-regress: %d gated rows within tolerance of %s\n", gated, *baseline)
}

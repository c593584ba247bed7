package main

import (
	"encoding/json"
	"strings"
	"testing"

	"paradice/internal/bench"
)

// fixture builds a paradice-bench -json document with one gated noop row,
// two gated tail p99 rows, one gated per-hop attribution p99 row, the gated
// higher-is-better tail max-sustained row, and two ungated rows, at the
// given values.
func fixture(noop, rtP99, bulkP99, sustained float64) []bench.Result {
	return fixtureAttr(noop, rtP99, bulkP99, 4.0, sustained)
}

func fixtureAttr(noop, rtP99, bulkP99, attrP99, sustained float64) []bench.Result {
	lat := func() *bench.Gate { return &bench.Gate{Tol: 10} }
	return []bench.Result{
		{ID: "noop", Title: "no-op", Rows: []bench.Row{
			{Series: "Paradice(P)", X: "no-op fileop", Value: noop, Unit: "µs", Gate: lat()},
			{Series: "Paradice(P)", X: "unguarded", Value: 999, Unit: "µs"},
		}},
		{ID: "tail", Title: "tail", Rows: []bench.Row{
			{Series: "rt p99", X: "load=60k/s", Value: rtP99, Unit: "µs", Gate: lat()},
			{Series: "bulk p99", X: "load=60k/s", Value: bulkP99, Unit: "µs", Gate: lat()},
			{Series: "attr rt backend p99", X: "load=60k/s", Value: attrP99, Unit: "µs", Gate: lat()},
			{Series: "rt p50", X: "load=60k/s", Value: 5.0, Unit: "µs"},
			{Series: "max-sustained", X: "goodput>=97%", Value: sustained, Unit: "kops/s",
				Gate: &bench.Gate{Tol: 5, HigherIsBetter: true}},
		}},
	}
}

// regate applies edit to the gate of every gated row of results.
func regate(results []bench.Result, edit func(r *bench.Row)) []bench.Result {
	for i := range results {
		for j := range results[i].Rows {
			if results[i].Rows[j].Gate != nil {
				edit(&results[i].Rows[j])
			}
		}
	}
	return results
}

func mustParse(t *testing.T, results []bench.Result) map[string]bench.Row {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bench.Row)
	if err := parse("fixture", data, rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// Only gated rows participate: the noop latency, the p99 rows, and the
// max-sustained row — not the unguarded latency or the p50 — and each keeps
// the gate its experiment declared.
func TestParseGuardedRows(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))
	want := []string{
		"noop/Paradice(P)/no-op fileop",
		"tail/rt p99/load=60k/s",
		"tail/bulk p99/load=60k/s",
		"tail/attr rt backend p99/load=60k/s",
		"tail/max-sustained/goodput>=97%",
	}
	var gated []string
	for k, r := range base {
		if r.Gate != nil {
			gated = append(gated, k)
		}
	}
	if len(gated) != len(want) {
		t.Fatalf("%d gated rows, want %d: %v", len(gated), len(want), gated)
	}
	for _, k := range want {
		if base[k].Gate == nil {
			t.Errorf("row %q lost its gate", k)
		}
	}
	report, _, n := compare(base, base)
	if n != len(want) || len(report) != len(want) {
		t.Errorf("compare checked %d rows (%d report lines), want %d", n, len(report), len(want))
	}
	if g := base["tail/max-sustained/goodput>=97%"].Gate; !g.HigherIsBetter || g.Tol != 5 {
		t.Errorf("max-sustained gate = %+v, want higher-is-better at 5%%", *g)
	}
}

// Identical runs pass; a small in-tolerance drift passes; and a latency
// IMPROVEMENT (downward) passes however large.
func TestComparePass(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))
	for _, cur := range [][]bench.Result{
		fixture(35.3, 11.8, 13.4, 240), // identical
		fixture(36.0, 12.5, 13.9, 235), // few percent, inside tolerance
		fixture(20.0, 6.0, 7.0, 300),   // big improvement in the good direction
	} {
		_, failures, _ := compare(base, mustParse(t, cur))
		if len(failures) != 0 {
			t.Errorf("unexpected failures for %+v:\n%s", cur, strings.Join(failures, "\n"))
		}
	}
}

// A >10% p99 regression fails even when every mean-level row is flat.
func TestCompareP99Drift(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))
	cur := mustParse(t, fixture(35.3, 13.2, 13.4, 240)) // rt p99 +11.9%
	_, failures, _ := compare(base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "rt p99") {
		t.Fatalf("failures = %v, want exactly the rt p99 row", failures)
	}
}

// An attribution row regressing past tolerance fails on its own, even when
// the end-to-end p99s are flat — a hop-level shift is caught hop by hop.
func TestCompareAttrDrift(t *testing.T) {
	base := mustParse(t, fixtureAttr(35.3, 11.8, 13.4, 4.0, 240))
	cur := mustParse(t, fixtureAttr(35.3, 11.8, 13.4, 4.8, 240)) // attr +20%
	_, failures, _ := compare(base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "attr rt backend p99") {
		t.Fatalf("failures = %v, want exactly the attr row", failures)
	}
}

// A gated row missing from the current run fails.
func TestCompareMissingRow(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))
	cur := mustParse(t, fixture(35.3, 11.8, 13.4, 240)[:1]) // noop only
	_, failures, _ := compare(base, cur)
	if len(failures) != 4 {
		t.Fatalf("failures = %v, want the four missing tail rows", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "missing") {
			t.Errorf("failure %q does not report a missing row", f)
		}
	}
}

// max-sustained is higher-is-better: a drop beyond 5% fails, a rise never
// does — the exact opposite of the latency rows.
func TestCompareThroughputDirection(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))

	cur := mustParse(t, fixture(35.3, 11.8, 13.4, 180)) // -25% capacity
	_, failures, _ := compare(base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "max-sustained") {
		t.Fatalf("failures = %v, want exactly the max-sustained row", failures)
	}

	cur = mustParse(t, fixture(35.3, 11.8, 13.4, 300)) // +25% capacity: fine
	_, failures, _ = compare(base, cur)
	if len(failures) != 0 {
		t.Fatalf("capacity gain flagged as regression: %v", failures)
	}
}

// The baseline's gate wins: a current run whose rows dropped their gates,
// or loosened them (huge tolerance, flipped direction), still fails on the
// drift the committed gates forbid.
func TestCompareBaselineGateWins(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))
	for name, edit := range map[string]func(r *bench.Row){
		"dropped":  func(r *bench.Row) { r.Gate = nil },
		"loosened": func(r *bench.Row) { r.Gate = &bench.Gate{Tol: 1000, HigherIsBetter: !r.Gate.HigherIsBetter} },
	} {
		cur := mustParse(t, regate(fixture(35.3, 13.2, 13.4, 180), edit)) // rt p99 +11.9%, capacity -25%
		_, failures, _ := compare(base, cur)
		if len(failures) != 2 || !strings.Contains(failures[0], "max-sustained") || !strings.Contains(failures[1], "rt p99") {
			t.Errorf("%s gates: failures = %v, want the rt p99 and max-sustained rows", name, failures)
		}
	}
}

// An ungated baseline row is ignored, however far it drifts.
func TestCompareUngatedBaselineIgnored(t *testing.T) {
	base := mustParse(t, regate(fixture(35.3, 11.8, 13.4, 240), func(r *bench.Row) { r.Gate = nil }))
	cur := mustParse(t, regate(fixture(99, 99, 99, 1), func(r *bench.Row) { r.Gate = nil }))
	report, failures, n := compare(base, cur)
	if n != 0 || len(report) != 0 || len(failures) != 0 {
		t.Fatalf("ungated rows compared: %d checked, report %v, failures %v", n, report, failures)
	}
}

// A current row that carries a gate the baseline lacks fails: a new gate
// must land together with its regenerated baseline.
func TestCompareGateMissingFromBaseline(t *testing.T) {
	base := mustParse(t, fixture(35.3, 11.8, 13.4, 240))
	cur := fixture(35.3, 11.8, 13.4, 240)
	cur[1].Rows[3].Gate = &bench.Gate{Tol: 10} // rt p50 newly gated
	cur[1].Rows = append(cur[1].Rows, bench.Row{Series: "rt p999", X: "load=60k/s", Value: 20, Unit: "µs",
		Gate: &bench.Gate{Tol: 10}}) // a new gated row
	_, failures, _ := compare(base, mustParse(t, cur))
	if len(failures) != 2 || !strings.Contains(failures[0], "rt p50") || !strings.Contains(failures[1], "rt p999") {
		t.Fatalf("failures = %v, want the newly gated rt p50 and rt p999 rows", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "not in baseline") {
			t.Errorf("failure %q does not name the missing baseline gate", f)
		}
	}
}

// An errored experiment in either file is a hard parse error, not a silent
// skip.
func TestParseErroredExperiment(t *testing.T) {
	err := parse("fixture", []byte(`[{"id": "tail", "error": "boom", "rows": []}]`), map[string]bench.Row{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the experiment error surfaced", err)
	}
}

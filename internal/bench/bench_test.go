package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"noop", "fig2", "fig3", "fig4", "fig5", "fig6",
		"mouse", "camera", "audio", "table1", "table2", "table3", "analyzer",
		"ablation", "adaptive", "bulk", "handover", "multivm", "tail", "walkcache"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if _, ok := Find("fig99"); ok {
		t.Fatal("fig99 found")
	}
}

func TestTable3Rows(t *testing.T) {
	rows, err := RunTable3(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d approaches", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Series != "Paradice" || strings.Contains(last.X, "no") {
		t.Fatalf("Paradice row = %+v; the paper's point is all four yes", last)
	}
}

func TestTable2MeasuresRealCode(t *testing.T) {
	rows, err := RunTable2(true)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range rows {
		total += r.Value
	}
	if total < 5000 {
		t.Fatalf("measured %0.f LoC across components; expected a real tree", total)
	}
}

func TestAnalyzerRowsIncludeVSync(t *testing.T) {
	rows, err := RunAnalyzer(true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.Series == "DRM_WAIT_VSYNC" {
			found = true
			if strings.Contains(r.X, "JIT") {
				t.Fatal("vsync wait should be static")
			}
		}
	}
	if !found {
		t.Fatal("analyzer rows missing DRM_WAIT_VSYNC")
	}
}

func TestNoopExperimentQuick(t *testing.T) {
	rows, err := RunNoop(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Value < 30 || rows[0].Value > 40 {
		t.Fatalf("interrupt no-op = %.1fµs", rows[0].Value)
	}
	if rows[1].Value > 4 {
		t.Fatalf("polled no-op = %.1fµs", rows[1].Value)
	}
}

// Every gate spells out its tolerance: a zero Tol would fail on any drift
// at all, which no gate intends. The committed baseline names the
// experiments that gate rows; each of them is run in quick mode here (all
// twenty in one process would hold gigabytes: drained machines are never
// freed) and must emit only gates with Tol > 0, as must the baseline.
func TestGatesDeclareTolerance(t *testing.T) {
	data, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var base []Result
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	checkGates := func(src, id string, rows []Row) (gated bool) {
		for _, r := range rows {
			if r.Gate != nil {
				gated = true
				if !(r.Gate.Tol > 0) {
					t.Errorf("%s %s/%s/%s: gate tolerance %g", src, id, r.Series, r.X, r.Gate.Tol)
				}
			}
		}
		return gated
	}
	checked := 0
	for _, res := range base {
		if !checkGates("BENCH.json", res.ID, res.Rows) {
			continue
		}
		e, ok := Find(res.ID)
		if !ok {
			t.Fatalf("BENCH.json gates unknown experiment %s", res.ID)
		}
		rows, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		checkGates("quick", res.ID, rows)
		checked++
	}
	if checked == 0 {
		t.Fatal("BENCH.json gates no rows")
	}
}

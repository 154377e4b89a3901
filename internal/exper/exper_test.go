package exper

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
	"repro/internal/wltest"
)

// smallRunner uses a reduced suite so experiment tests stay fast.
func smallRunner() *Runner {
	return NewRunner([]*prog.Workload{
		polybench.TwoDConv(48, 48),
		polybench.Gemm(16),
		polybench.Atax(48, 48),
	})
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	if tab.ID != "table1" || len(tab.Rows) != 12 {
		t.Fatalf("table1: %d rows", len(tab.Rows))
	}
	// Find capability 6.1 and check the anomaly row.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "6.1" {
			found = true
			if row[1] != "2" || row[2] != "128" || row[3] != "4" {
				t.Errorf("6.1 row = %v", row)
			}
		}
		if row[0] == "3.0" && row[1] != "N" {
			t.Errorf("3.0 FP16 should be N, got %v", row[1])
		}
	}
	if !found {
		t.Error("capability 6.1 missing")
	}
}

func TestTable3(t *testing.T) {
	tab := Table3()
	if len(tab.Rows) != 3 {
		t.Fatalf("table3 rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "Titan Xp") {
		t.Error("table3 should list the Titan Xp")
	}
}

func TestTable4(t *testing.T) {
	r := NewRunner(polybench.Suite())
	tab := r.Table4()
	if len(tab.Rows) != 14 {
		t.Fatalf("table4 rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "2DCONV" {
		t.Errorf("first benchmark = %v", tab.Rows[0][0])
	}
}

func TestFig4FractionsSumToOne(t *testing.T) {
	r := smallRunner()
	tab, err := r.Fig4(hw.System1())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sum := 0.0
		for _, cell := range row[1:4] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s fractions sum to %v", row[0], sum)
		}
	}
}

func TestFig5BestChangesWithSize(t *testing.T) {
	r := smallRunner()
	tab, err := r.Fig5(hw.System1())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatal("too few size points")
	}
	first := tab.Rows[0][len(tab.Rows[0])-1]
	last := tab.Rows[len(tab.Rows)-1][len(tab.Rows[0])-1]
	if first == last {
		t.Errorf("best method should change across sizes: %s at both ends", first)
	}
	if first != "loop" {
		t.Errorf("smallest size best = %s, want loop", first)
	}
}

func TestFig6QualityBounds(t *testing.T) {
	r := smallRunner()
	tab, err := r.Fig6(hw.System1())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			q, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if q < 0 || q > 1 {
				t.Errorf("%s quality %v out of range", row[0], q)
			}
		}
	}
}

func TestFig9AndCachingAcrossFigures(t *testing.T) {
	r := NewRunner([]*prog.Workload{wltest.VecCombine(1 << 14), wltest.HalfHostile(1 << 13)})
	opts := scaler.DefaultOptions()
	sys := hw.System1()
	fig9, err := r.Fig9(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks + geomean row.
	if len(fig9.Rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(fig9.Rows))
	}
	if fig9.Rows[2][0] != "geomean" {
		t.Error("missing geomean row")
	}
	cached := len(r.done)
	if _, err := r.Fig10a(sys, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig10b(sys, opts); err != nil {
		t.Fatal(err)
	}
	if len(r.done) != cached {
		t.Error("fig10 must reuse fig9 comparisons")
	}
}

func TestFig10bFractionsTiny(t *testing.T) {
	r := NewRunner([]*prog.Workload{wltest.VecCombine(1 << 13)})
	tab, err := r.Fig10b(hw.System1(), scaler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	frac, err := strconv.ParseFloat(tab.Rows[0][len(tab.Rows[0])-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if frac >= 1 {
		t.Errorf("tested fraction = %v, want << 1", frac)
	}
}

func TestFig11TwoRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the comparison suite on two bus variants")
	}
	r := NewRunner([]*prog.Workload{wltest.VecCombine(1 << 16)})
	tab, err := r.Fig11(scaler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "x16" || tab.Rows[1][0] != "x8" {
		t.Fatalf("fig11 rows: %+v", tab.Rows)
	}
}

func TestFig12Rows(t *testing.T) {
	r := NewRunner([]*prog.Workload{wltest.VecCombine(1 << 13)})
	tab, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	// 3 input sets + 2 extra TOQ rows.
	if len(tab.Rows) != 5 {
		t.Fatalf("fig12 rows = %d", len(tab.Rows))
	}
	if !strings.HasPrefix(tab.Rows[0][0], "set=") || !strings.HasPrefix(tab.Rows[4][0], "toq=") {
		t.Errorf("row labels: %v %v", tab.Rows[0][0], tab.Rows[4][0])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "== x: demo ==") {
		t.Error("title line")
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,long-header" {
		t.Errorf("csv: %q", buf.String())
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if geomean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
}

func TestAllOnReducedSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	r := NewRunner(polybench.SmallSuite())
	tables, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	// 3 tables + fig4/5/6 + (fig9 + dist) x 3 systems + fig10a/b + fig11 + fig12.
	if len(tables) != 16 {
		t.Fatalf("All returned %d tables, want 16", len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if tab == nil || len(tab.Rows) == 0 {
			t.Fatalf("empty table in All output")
		}
		if seen[tab.ID] {
			t.Fatalf("duplicate table id %q", tab.ID)
		}
		seen[tab.ID] = true
	}
}

package exper

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
	"repro/internal/wltest"
)

func TestMarkdown(t *testing.T) {
	tab := &Table{
		ID:     "demo",
		Title:  "a title",
		Header: []string{"x", "y"},
		Rows:   [][]string{{"1", "2"}},
	}
	md := tab.Markdown()
	for _, want := range []string{"**demo**", "| x | y |", "|---|---|", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAblation(t *testing.T) {
	r := NewRunner([]*prog.Workload{wltest.VecCombine(1 << 15)})
	tab, err := r.Ablation(hw.System1())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // one benchmark + geomean
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	row := tab.Rows[0]
	full, err := strconv.ParseFloat(row[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	noWild, err := strconv.ParseFloat(row[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	noPre, err := strconv.ParseFloat(row[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The full search dominates both ablations (its space is a superset)
	// up to prediction noise.
	if full < noWild*0.98 || full < noPre*0.98 {
		t.Errorf("full %v should not lose to ablations (%v, %v)", full, noWild, noPre)
	}
	// Trial columns parse as integers.
	if _, err := strconv.Atoi(row[4]); err != nil {
		t.Errorf("trials full: %v", err)
	}
	if _, err := strconv.Atoi(row[5]); err != nil {
		t.Errorf("trials no-wildcard: %v", err)
	}
}

func TestNoiseSweep(t *testing.T) {
	r := NewRunner([]*prog.Workload{wltest.VecCombine(1 << 14)})
	tab, err := r.NoiseSweep(hw.System1(), []float64{0, 0.05, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every amplitude must keep all workloads above TOQ.
	for _, row := range tab.Rows {
		if row[3] != "1/1" {
			t.Errorf("jitter %s: passing = %s", row[0], row[3])
		}
	}
}

// TestNoiseZeroRowReusesFig9: a system without jitter never reads its
// jitter seed, so the noise sweep's 0% row, whose system carries a seed,
// is the measurement fig9 already made on the base system. It must run
// no new task and inspect the system only once.
func TestNoiseZeroRowReusesFig9(t *testing.T) {
	r := NewRunner(polybench.SmallSuite())
	var log strings.Builder
	r.Log = &log
	sys := hw.System1()
	if _, err := r.Fig9(sys, scaler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ran := r.TasksRun()
	if _, err := r.NoiseSweep(sys, []float64{0}); err != nil {
		t.Fatal(err)
	}
	if n := r.TasksRun() - ran; n != 0 {
		t.Errorf("the 0%% noise row ran %d new tasks, want 0", n)
	}
	if n := strings.Count(log.String(), "inspecting "+sys.Name); n != 1 {
		t.Errorf("%s inspected %d times, want 1", sys.Name, n)
	}
}

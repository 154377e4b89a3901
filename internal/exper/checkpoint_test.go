package exper

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
	"repro/internal/scaler"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func ckRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	r := smallRunner()
	ck, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Checkpoint = ck
	return r
}

func fig9CSV(t *testing.T, r *Runner) []byte {
	t.Helper()
	tab, err := r.Fig9(hw.System1(), scaler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointResume is the acceptance check for checkpoint/resume: a
// run interrupted after some tasks resumes without re-executing them,
// and the resumed artifacts are byte-identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	want := fig9CSV(t, smallRunner())
	dir := t.TempDir()

	// "Interrupted" run: only the first workload's comparison completes
	// before the process dies.
	r1 := ckRunner(t, dir)
	if _, err := r1.Compare(hw.System1(), r1.Suite[0], scaler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if r1.TasksRun() != 1 || r1.TasksRestored() != 0 {
		t.Fatalf("interrupted run: run=%d restored=%d", r1.TasksRun(), r1.TasksRestored())
	}

	// Resumed run: one task restores, the remaining two execute.
	r2 := ckRunner(t, dir)
	got := fig9CSV(t, r2)
	if r2.TasksRun() != 2 || r2.TasksRestored() != 1 {
		t.Errorf("resumed run: run=%d restored=%d, want 2/1", r2.TasksRun(), r2.TasksRestored())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed fig9 differs:\n--- fresh ---\n%s\n--- resumed ---\n%s", want, got)
	}

	// Fully-checkpointed run: nothing executes, artifacts still match —
	// including at Jobs 8.
	r3 := ckRunner(t, dir)
	r3.Jobs = 8
	got3 := fig9CSV(t, r3)
	if r3.TasksRun() != 0 || r3.TasksRestored() != 3 {
		t.Errorf("warm run: run=%d restored=%d, want 0/3", r3.TasksRun(), r3.TasksRestored())
	}
	if !bytes.Equal(got3, want) {
		t.Error("warm-checkpoint fig9 differs from fresh run")
	}
}

// TestCheckpointScaleTasks covers the PreScaler-only task kind (fig12's
// shape) through a save/restore cycle.
func TestCheckpointScaleTasks(t *testing.T) {
	dir := t.TempDir()
	opts := scaler.DefaultOptions()
	scale := func(r *Runner) *scaler.Result {
		t.Helper()
		res, err := r.measure([]task{{sys: hw.System1(), w: r.Suite[1], opts: opts}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].ps
	}
	want := scale(ckRunner(t, dir))
	r2 := ckRunner(t, dir)
	got := scale(r2)
	if r2.TasksRestored() != 1 {
		t.Fatalf("scale task not restored")
	}
	if got.Speedup != want.Speedup || got.Quality != want.Quality || got.Trials != want.Trials {
		t.Errorf("restored scale result differs: %+v vs %+v", got, want)
	}
	if got.SearchSpace != want.SearchSpace || !bytes.Equal(mustJSON(t, got.Config), mustJSON(t, want.Config)) {
		t.Error("restored config/search-space differs")
	}
}

// TestCheckpointEnvironmentMismatch: a checkpoint written under fault
// injection must never satisfy a faults-off run (and vice versa) — the
// environment is part of the task fingerprint.
func TestCheckpointEnvironmentMismatch(t *testing.T) {
	dir := t.TempDir()
	r1 := ckRunner(t, dir)
	if _, err := r1.Compare(hw.System1(), r1.Suite[0], scaler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r2 := ckRunner(t, dir)
	r2.Retries = 5 // different resilience environment
	if _, err := r2.Compare(hw.System1(), r2.Suite[0], scaler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if r2.TasksRestored() != 0 || r2.TasksRun() != 1 {
		t.Errorf("mismatched environment restored a checkpoint: run=%d restored=%d",
			r2.TasksRun(), r2.TasksRestored())
	}
}

// TestCheckpointCorruptFileIsMiss: a truncated or garbage checkpoint
// file is treated as absent, not as an error.
func TestCheckpointCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	r1 := ckRunner(t, dir)
	if _, err := r1.Compare(hw.System1(), r1.Suite[0], scaler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files: %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("{truncated"), 0o666); err != nil {
		t.Fatal(err)
	}
	r2 := ckRunner(t, dir)
	if _, err := r2.Compare(hw.System1(), r2.Suite[0], scaler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if r2.TasksRestored() != 0 || r2.TasksRun() != 1 {
		t.Errorf("corrupt checkpoint: run=%d restored=%d, want 1/0", r2.TasksRun(), r2.TasksRestored())
	}
}

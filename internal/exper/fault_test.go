package exper

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/scaler"
)

// TestRunnerTaskRetryRecovers: a device-lost fault on a task's first
// attempt is not retryable inside the scaler, but the runner's
// task-level retry re-runs the whole task under a fresh salt high word
// and the result matches a clean run.
func TestRunnerTaskRetryRecovers(t *testing.T) {
	clean := smallRunner()
	want, err := clean.Compare(hw.System1(), clean.Suite[1], scaler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	r := smallRunner()
	// Device loss on the very first runtime op, at task-attempt 0 only
	// (salt 0); attempt 1 runs under salt 1<<16 and stays clean.
	r.Faults = &fault.Spec{Script: []fault.ScriptRule{
		{Kind: fault.DevLost, From: 0, To: 1, Salts: []uint64{0}},
	}}
	got, err := r.Compare(hw.System1(), r.Suite[1], scaler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.PreScaler.Speedup != want.PreScaler.Speedup ||
		got.PreScaler.Quality != want.PreScaler.Quality ||
		got.PreScaler.Trials != want.PreScaler.Trials ||
		got.Baseline.Speedup != want.Baseline.Speedup {
		t.Errorf("retried task differs from clean run: %+v vs %+v", got.PreScaler, want.PreScaler)
	}
}

// TestRunnerTaskRetryExhaustion: a fault that persists across every
// task attempt surfaces as the task's error instead of hanging or
// crashing the runner.
func TestRunnerTaskRetryExhaustion(t *testing.T) {
	r := smallRunner()
	r.Faults = &fault.Spec{Script: []fault.ScriptRule{
		{Kind: fault.DevLost, From: 0, To: 1}, // all salts: every attempt dies
	}}
	_, err := r.Compare(hw.System1(), r.Suite[0], scaler.DefaultOptions())
	if err == nil {
		t.Fatal("persistent device loss must fail the task")
	}
	if !strings.Contains(err.Error(), "CL_DEVICE_NOT_AVAILABLE") {
		t.Errorf("error should carry the CL status: %v", err)
	}
}

// TestMeasureAggregatesErrors is the regression test for the bug where
// the worker pool reported only the lowest-indexed task error: with
// every task failing, the joined error must name each failed workload.
func TestMeasureAggregatesErrors(t *testing.T) {
	r := smallRunner()
	r.Jobs = 4
	r.Faults = &fault.Spec{Script: []fault.ScriptRule{
		{Kind: fault.Write, From: 0, To: 1}, // first write fails at every salt
	}}
	_, err := r.measure(r.suiteTasks(true, scaler.DefaultOptions(), hw.System1()))
	if err == nil {
		t.Fatal("all tasks fail; measure must report it")
	}
	for _, w := range r.Suite {
		if !strings.Contains(err.Error(), w.Name) {
			t.Errorf("aggregated error omits %s: %v", w.Name, err)
		}
	}
}

// TestExperFaultDeterminismAcrossJobs: under rate-sampled injection the
// rendered artifacts are byte-identical at any worker count, because
// fault decisions depend only on each run's op sequence.
func TestExperFaultDeterminismAcrossJobs(t *testing.T) {
	spec, err := fault.Parse("write:0.01,launch:0.005,alloc:0.002,devlost:1e-4,nan:0.001")
	if err != nil {
		t.Fatal(err)
	}
	run := func(jobs int) []byte {
		r := smallRunner()
		r.Jobs = jobs
		r.Faults = spec.WithSeed(7)
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
	seq, par := run(1), run(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("fig9 under faults differs between Jobs=1 and Jobs=8:\n--- 1 ---\n%s\n--- 8 ---\n%s", seq, par)
	}
}

package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.10GHz
BenchmarkProgRun/gemm/batch-8         	     416	   5000000 ns/op	     222 B/op	       5 allocs/op
BenchmarkProgRun/gemm/batch-8         	     420	   6000000 ns/op	     222 B/op	       5 allocs/op
BenchmarkProgRun/gemm/batch-8         	     410	   5500000 ns/op	     222 B/op	       5 allocs/op
BenchmarkProgRun/gemm/tree-8          	      44	  55000000 ns/op	     504 B/op	       8 allocs/op
PASS
pkg: repro/internal/prog
BenchmarkProgRun-8                    	    8000	    140000 ns/op	    2100 B/op	      30 allocs/op
ok  	repro/internal/prog	2.0s
`

func parseSample(t *testing.T) *benchfmt.File {
	t.Helper()
	p := &parser{samples: map[string][]sample{}}
	if err := p.feed(strings.NewReader(sampleOutput)); err != nil {
		t.Fatal(err)
	}
	return p.summarize()
}

func TestParseAndMedian(t *testing.T) {
	f := parseSample(t)
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks: %v", len(f.Benchmarks), f.Benchmarks)
	}
	b, ok := f.Benchmarks["repro/BenchmarkProgRun/gemm/batch"]
	if !ok {
		t.Fatalf("missing batch entry: %v", f.Benchmarks)
	}
	if b.NsOp != 5500000 || b.Runs != 3 || b.AllocsOp != 5 {
		t.Fatalf("bad median summary: %+v", b)
	}
	// The two same-named benchmarks in different packages must not merge.
	if _, ok := f.Benchmarks["repro/internal/prog/BenchmarkProgRun"]; !ok {
		t.Fatalf("per-package keying lost: %v", f.Benchmarks)
	}
	if f.CPU != "Test CPU @ 2.10GHz" || f.Count != 3 {
		t.Fatalf("header fields: cpu=%q count=%d", f.CPU, f.Count)
	}
}

func TestCompareTolerance(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	if n := compare(base, cur, 0.15); n != 0 {
		t.Fatalf("identical summaries produced %d failures", n)
	}
	slow := cur.Benchmarks["repro/BenchmarkProgRun/gemm/batch"]
	slow.NsOp *= 1.5
	cur.Benchmarks["repro/BenchmarkProgRun/gemm/batch"] = slow
	if n := compare(base, cur, 0.15); n != 1 {
		t.Fatalf("50%% regression produced %d failures, want 1", n)
	}
	// A different CPU downgrades the absolute-time regression to a warning.
	cur.CPU = "Other CPU"
	if n := compare(base, cur, 0.15); n != 0 {
		t.Fatalf("cross-CPU regression produced %d failures, want 0", n)
	}
}

// compareOutput runs compare and returns what it printed.
func compareOutput(t *testing.T, base, cur *benchfmt.File) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	compare(base, cur, 0.15)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestCompareWarnsOnByteGrowth(t *testing.T) {
	const name = "repro/internal/prog/BenchmarkProgRun"
	base := parseSample(t)
	grow := func(f float64) *benchfmt.File {
		cur := parseSample(t)
		b := cur.Benchmarks[name]
		b.BOp *= f
		cur.Benchmarks[name] = b
		return cur
	}
	if out := compareOutput(t, base, grow(1.1)); strings.Contains(out, "B/op") {
		t.Errorf("B/op growth within tolerance warned:\n%s", out)
	}
	out := compareOutput(t, base, grow(2))
	if !strings.Contains(out, "warn "+name+": B/op grew 2100 -> 4200") {
		t.Errorf("doubled B/op did not warn:\n%s", out)
	}
	if n := compare(base, grow(2), 0.15); n != 0 {
		t.Errorf("B/op growth produced %d failures, want a warning only", n)
	}
}

func serviceFile(p99, rps float64) *benchfmt.File {
	return &benchfmt.File{
		Schema: benchfmt.Schema, CPU: "Test CPU @ 2.10GHz",
		Service: &benchfmt.Service{
			Requests: 1000, Seconds: 2, ThroughputRPS: rps,
			P50Ms: p99 / 4, P99Ms: p99, MaxMs: p99 * 2,
		},
	}
}

func TestCompareService(t *testing.T) {
	base := serviceFile(40, 500)
	if n := compare(base, serviceFile(40, 500), 0.15); n != 0 {
		t.Fatalf("identical service summaries produced %d failures", n)
	}
	if n := compare(base, serviceFile(80, 500), 0.15); n != 1 {
		t.Fatalf("2x p99 regression produced %d failures, want 1", n)
	}
	if n := compare(base, serviceFile(40, 250), 0.15); n != 1 {
		t.Fatalf("halved throughput produced %d failures, want 1", n)
	}
	// Errors in the current run are fatal regardless of timing.
	bad := serviceFile(40, 500)
	bad.Service.Errors = 3
	if n := compare(base, bad, 0.15); n != 1 {
		t.Fatalf("errored run produced %d failures, want 1", n)
	}
	// Cross-CPU: timing gates downgrade to warnings.
	other := serviceFile(80, 250)
	other.CPU = "Other CPU"
	if n := compare(base, other, 0.15); n != 0 {
		t.Fatalf("cross-CPU service regression produced %d failures, want 0", n)
	}
	// A baseline with a service section requires one in the current run.
	if n := compare(base, &benchfmt.File{Schema: benchfmt.Schema, CPU: base.CPU}, 0.15); n != 1 {
		t.Fatalf("missing service section produced %d failures, want 1", n)
	}
}

func TestSpeedupGate(t *testing.T) {
	f := parseSample(t)
	// tree 55e6 / batch 5.5e6 = 10x.
	if n := checkSpeedup(f, nil, 5); n != 0 {
		t.Fatalf("10x pair failed a 5x gate")
	}
	if n := checkSpeedup(f, nil, 20); n != 1 {
		t.Fatalf("10x pair passed a 20x gate")
	}
	delete(f.Benchmarks, "repro/BenchmarkProgRun/gemm/batch")
	if n := checkSpeedup(f, nil, 5); n != 1 {
		t.Fatalf("missing pairs must fail the gate")
	}
}

// TestKernelSpeedupFloor checks the per-pair floor: against a baseline,
// a pair must keep 0.78 of its baseline speedup even when the geomean
// floor passes, on any CPU, and without a baseline only the geomean
// counts.
func TestKernelSpeedupFloor(t *testing.T) {
	base := parseSample(t) // gemm: 10x
	withSpeedup := func(x float64) *benchfmt.File {
		cur := parseSample(t)
		b := cur.Benchmarks["repro/BenchmarkProgRun/gemm/batch"]
		b.NsOp = cur.Benchmarks["repro/BenchmarkProgRun/gemm/tree"].NsOp / x
		cur.Benchmarks["repro/BenchmarkProgRun/gemm/batch"] = b
		return cur
	}
	if n := checkSpeedup(withSpeedup(8), base, 5); n != 0 {
		t.Errorf("8x against a 10x baseline (floor 7.8x) produced %d failures, want 0", n)
	}
	if n := checkSpeedup(withSpeedup(7), base, 5); n != 1 {
		t.Errorf("7x against a 10x baseline (floor 7.8x) produced %d failures, want 1", n)
	}
	other := withSpeedup(7)
	other.CPU = "Other CPU"
	if n := checkSpeedup(other, base, 5); n != 1 {
		t.Errorf("cross-CPU 7x against a 10x baseline produced %d failures, want 1", n)
	}
	if n := checkSpeedup(withSpeedup(7), nil, 5); n != 0 {
		t.Errorf("7x without a baseline produced %d failures against a 5x geomean floor, want 0", n)
	}
	if n := checkSpeedup(withSpeedup(4), base, 5); n != 2 {
		t.Errorf("4x against a 10x baseline and a 5x geomean floor produced %d failures, want 2", n)
	}
}

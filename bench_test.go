// Package repro's top-level benchmarks regenerate the paper's tables and
// figures through the testing.B harness — one benchmark per table/figure,
// reporting the headline scalar of each as a custom metric (geomean
// speedup, trial counts, quality). The full pretty-printed/CSV form of
// the same data comes from `go run ./cmd/experiments`.
//
// The figure benchmarks share one Runner so comparisons are executed once
// per (system, benchmark) even when several figures need them; a single
// b.N iteration does real work, subsequent iterations hit the cache.
//
// The benchmarks run the full evaluation suite (Table 4 sizes), so a
// complete `go test -bench=. .` takes on the order of ten minutes; the
// Runner cache keeps the total equal to one pass over the suite per
// system even though several figures share measurements.
package repro

import (
	"context"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// benchSuite is the evaluation suite used by the benchmarks.
func benchSuite() []*prog.Workload {
	return polybench.Suite()
}

var (
	benchRunnerOnce sync.Once
	benchRunner     *exper.Runner
)

func sharedRunner() *exper.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = exper.NewRunner(benchSuite())
	})
	return benchRunner
}

func parse(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// BenchmarkTable1Throughput regenerates Table 1 (compute-capability
// arithmetic throughput).
func BenchmarkTable1Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exper.Table1()
		if len(t.Rows) != 12 {
			b.Fatal("table1 rows")
		}
	}
}

// BenchmarkTable3Systems regenerates Table 3 (evaluation systems).
func BenchmarkTable3Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exper.Table3().Rows) != 3 {
			b.Fatal("table3 rows")
		}
	}
}

// BenchmarkTable4Benchmarks regenerates Table 4 (benchmark spec).
func BenchmarkTable4Benchmarks(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if len(r.Table4().Rows) != 14 {
			b.Fatal("table4 rows")
		}
	}
}

// BenchmarkFig4Categorization regenerates Figure 4 (HtoD/kernel/DtoH
// fractions) and reports the number of data-intensive benchmarks.
func BenchmarkFig4Categorization(b *testing.B) {
	r := sharedRunner()
	var dataIntensive int
	for i := 0; i < b.N; i++ {
		t, err := r.Fig4(hw.System1())
		if err != nil {
			b.Fatal(err)
		}
		dataIntensive = 0
		for _, row := range t.Rows {
			if row[4] == "data-intensive" {
				dataIntensive++
			}
		}
	}
	b.ReportMetric(float64(dataIntensive), "data-intensive")
}

// BenchmarkFig5Conversion regenerates Figure 5 (conversion method times
// across sizes) and reports how many distinct best methods appear.
func BenchmarkFig5Conversion(b *testing.B) {
	r := sharedRunner()
	var distinct int
	for i := 0; i < b.N; i++ {
		t, err := r.Fig5(hw.System1())
		if err != nil {
			b.Fatal(err)
		}
		seen := map[string]bool{}
		for _, row := range t.Rows {
			seen[row[len(row)-1]] = true
		}
		distinct = len(seen)
	}
	b.ReportMetric(float64(distinct), "best-methods")
}

// BenchmarkFig6HalfQuality regenerates Figure 6 (all-half output quality
// per input set) and reports the mean quality per set.
func BenchmarkFig6HalfQuality(b *testing.B) {
	r := sharedRunner()
	var def, img, rnd float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig6(hw.System1())
		if err != nil {
			b.Fatal(err)
		}
		def, img, rnd = 0, 0, 0
		for _, row := range t.Rows {
			def += parse(b, row[1])
			img += parse(b, row[2])
			rnd += parse(b, row[3])
		}
		n := float64(len(t.Rows))
		def, img, rnd = def/n, img/n, rnd/n
	}
	b.ReportMetric(def, "default-q")
	b.ReportMetric(img, "image-q")
	b.ReportMetric(rnd, "random-q")
}

// fig9Bench runs the Figure 9 comparison on one system and reports the
// geomean speedups of the three techniques.
func fig9Bench(b *testing.B, sys *hw.System) {
	r := sharedRunner()
	var ik, pfp, ps float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig9(sys, scaler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1] // geomean row
		ik, pfp, ps = parse(b, last[1]), parse(b, last[2]), parse(b, last[3])
	}
	b.ReportMetric(ik, "in-kernel-x")
	b.ReportMetric(pfp, "pfp-x")
	b.ReportMetric(ps, "prescaler-x")
}

// BenchmarkFig9System1 regenerates Figure 9 (a) on the Titan Xp system.
func BenchmarkFig9System1(b *testing.B) { fig9Bench(b, hw.System1()) }

// BenchmarkFig9System2 regenerates Figure 9 (b) on the V100 system.
func BenchmarkFig9System2(b *testing.B) { fig9Bench(b, hw.System2()) }

// BenchmarkFig9System3 regenerates Figure 9 (c) on the 2080 Ti system.
func BenchmarkFig9System3(b *testing.B) { fig9Bench(b, hw.System3()) }

// BenchmarkFig9Distributions regenerates Figure 9 (d-e) on system 1 and
// reports how many objects PreScaler left at FP64.
func BenchmarkFig9Distributions(b *testing.B) {
	r := sharedRunner()
	var fp64 float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig9Dist(hw.System1(), scaler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		fp64 = parse(b, t.Rows[1][1]) // prescaler row, FP64 column
	}
	b.ReportMetric(fp64, "prescaler-fp64-objs")
}

// BenchmarkFig10aBreakdown regenerates Figure 10 (a) and reports the mean
// PreScaler total time normalized to baseline.
func BenchmarkFig10aBreakdown(b *testing.B) {
	r := sharedRunner()
	var norm float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig10a(hw.System1(), scaler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		norm = 0
		for _, row := range t.Rows {
			norm += parse(b, row[7]) + parse(b, row[8]) // P.K + P.T
		}
		norm /= float64(len(t.Rows))
	}
	b.ReportMetric(norm, "prescaler-norm-time")
}

// BenchmarkFig10bTrials regenerates Figure 10 (b) and reports the mean
// number of PreScaler execution trials.
func BenchmarkFig10bTrials(b *testing.B) {
	r := sharedRunner()
	var trials float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig10b(hw.System1(), scaler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		trials = 0
		for _, row := range t.Rows {
			trials += parse(b, row[6])
		}
		trials /= float64(len(t.Rows))
	}
	b.ReportMetric(trials, "trials")
}

// BenchmarkFig11Bandwidth regenerates Figure 11 (x16 vs x8) and reports
// the PreScaler geomean speedup at each width.
func BenchmarkFig11Bandwidth(b *testing.B) {
	r := sharedRunner()
	var x16, x8 float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig11(scaler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		x16 = parse(b, t.Rows[0][2])
		x8 = parse(b, t.Rows[1][2])
	}
	b.ReportMetric(x16, "x16-speedup")
	b.ReportMetric(x8, "x8-speedup")
}

// BenchmarkFig12Adaptivity regenerates Figure 12 (input sets and TOQ
// sweep) and reports the speedups of the three input sets.
func BenchmarkFig12Adaptivity(b *testing.B) {
	r := sharedRunner()
	var def, img, rnd float64
	for i := 0; i < b.N; i++ {
		t, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		def = parse(b, t.Rows[0][1])
		img = parse(b, t.Rows[1][1])
		rnd = parse(b, t.Rows[2][1])
	}
	b.ReportMetric(def, "default-x")
	b.ReportMetric(img, "image-x")
	b.ReportMetric(rnd, "random-x")
}

// BenchmarkSearchWorkers measures what Options.Workers speculation buys
// one cold search, on a compute-bound (2MM) and a transfer-bound (ATAX)
// benchmark on system 1 at TOQ 0.90. Each op is one decision made the
// way cmd/prescaler makes it: a freshly built workload and options
// completed by Normalize, so a fresh EvalCache. Besides wall ns/op it
// reports the process CPU time per op (getrusage, all threads) and the
// trial count: speculation pays when ns/op falls with Workers while
// cpu-ms/op and trials hold.
//
//	go test -run - -bench BenchmarkSearchWorkers -benchtime 5x .
func BenchmarkSearchWorkers(b *testing.B) {
	fw := core.NewFramework(hw.System1())
	for _, name := range []string{"2MM", "ATAX"} {
		for _, workers := range []int{1, 2} {
			b.Run(name+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				trials := 0
				cpu0 := cpuTime()
				for i := 0; i < b.N; i++ {
					opts, err := scaler.Options{TOQ: 0.90, Workers: workers,
						Retries: scaler.DefaultOptions().Retries}.Normalize()
					if err != nil {
						b.Fatal(err)
					}
					sp, err := fw.Scale(context.Background(), polybench.ByName(name), opts)
					if err != nil {
						b.Fatal(err)
					}
					trials = sp.Search.Trials
				}
				cpu := cpuTime() - cpu0
				b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
				b.ReportMetric(float64(trials), "trials")
			})
		}
	}
}

// cpuTime is the user plus system CPU time the process has used so far,
// over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

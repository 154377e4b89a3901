// Package repro's top-level benchmark measures what Options.Workers
// speculation buys one cold search (BenchmarkSearchWorkers, the source
// of DESIGN §10's speculation table). The paper's tables and figures
// come from `go run ./cmd/experiments`.
package repro

import (
	"context"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/scaler"
)

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

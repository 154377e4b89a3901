package baseline

import (
	"context"
	"testing"

	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
)

func TestInKernelGreedyFallback(t *testing.T) {
	// 3MM has 7 objects: 3^7 = 2187 > InKernelExhaustiveLimit, so the
	// greedy descent runs: 1 reference + 7 objects x 2 lower types = 15.
	w := polybench.ThreeMM(12)
	out, err := InKernel(context.Background(), hw.System2(), w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 15 {
		t.Errorf("greedy trials = %d, want 15", out.Trials)
	}
	if out.Quality < 0.90 {
		t.Errorf("quality = %v", out.Quality)
	}
	if out.Speedup < 1 {
		t.Errorf("speedup = %v", out.Speedup)
	}
}

func TestInKernelGreedyMonotoneImprovement(t *testing.T) {
	// The greedy descent never keeps a config slower than baseline, so
	// Final.Total <= BaselineTime always.
	w := polybench.Mvt(96) // 5 objects: 243 > limit -> greedy
	out, err := InKernel(context.Background(), hw.System1(), w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Final.Total > out.BaselineTime {
		t.Errorf("greedy result %v slower than baseline %v", out.Final.Total, out.BaselineTime)
	}
	if out.Trials != 11 {
		t.Errorf("greedy trials = %d, want 11 (1 + 5 objects x 2)", out.Trials)
	}
}

package scaler

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/prog"
	"repro/internal/wltest"
)

// TestEngineSearchBitIdentical is the system-level acceptance check for
// the batch interpreter: a full search must produce the same decision,
// accounting, and byte-identical observability artifacts whether trials
// execute on the Reference tree walker (wltest.OnReference) or the batch
// engine, at any worker count.
func TestEngineSearchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *prog.Workload
		sys  *hw.System
	}{
		{"vec-combine/sys1", wltest.VecCombine(1 << 12), hw.System1()},
		{"half-hostile/sys2", wltest.HalfHostile(1 << 12), hw.System2()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				// Workers=8 speculates only over a cache.
				cache := func() *prog.EvalCache {
					if workers > 1 {
						return prog.NewEvalCache()
					}
					return nil
				}
				seq, traceT, csvT, explT := observedSearch(t, wltest.OnReference(tc.w), tc.sys, workers, cache())
				bat, traceB, csvB, explB := observedSearch(t, tc.w, tc.sys, workers, cache())

				if a, b := configKey(tc.w, seq.Config), configKey(tc.w, bat.Config); a != b {
					t.Errorf("workers=%d: chosen config differs:\ntree:  %s\nbatch: %s", workers, a, b)
				}
				if seq.Trials != bat.Trials {
					t.Errorf("workers=%d: trial count differs: %d vs %d", workers, seq.Trials, bat.Trials)
				}
				if seq.Speedup != bat.Speedup || seq.Quality != bat.Quality || seq.Final.Total != bat.Final.Total {
					t.Errorf("workers=%d: measured outcome differs: %v/%v/%v vs %v/%v/%v", workers,
						seq.Speedup, seq.Quality, seq.Final.Total, bat.Speedup, bat.Quality, bat.Final.Total)
				}
				if !bytes.Equal(traceT, traceB) {
					t.Errorf("workers=%d: Chrome trace JSON differs between engines", workers)
				}
				if !bytes.Equal(csvT, csvB) {
					t.Errorf("workers=%d: metrics CSV differs between engines", workers)
				}
				if explT != explB {
					t.Errorf("workers=%d: explain report differs between engines", workers)
				}
			}
		})
	}
}

package exper

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// TestEvalCacheArtifactsByteIdentical is the experiment-level acceptance
// check for incremental trial evaluation: every CSV and JSON artifact
// produced with EvalCache on must be byte-identical to the cache-off
// run, sequentially and under the worker pool.
func TestEvalCacheArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact sweep; run without -short")
	}
	plain := runArtifacts(t, 1, true)
	for _, jobs := range []int{1, 8} {
		cached := runArtifacts(t, jobs, false)
		for _, c := range []struct {
			name         string
			plain, cache []byte
		}{
			{"fig9 CSV", plain.fig9, cached.fig9},
			{"fig9dist CSV", plain.fig9dist, cached.fig9dist},
			{"fig10a CSV", plain.fig10a, cached.fig10a},
			{"fig10b CSV", plain.fig10b, cached.fig10b},
			{"fig12 CSV", plain.fig12, cached.fig12},
			{"ablation CSV", plain.ablation, cached.ablation},
			{"bench fig9 JSON", plain.bench, cached.bench},
		} {
			if !bytes.Equal(c.plain, c.cache) {
				t.Errorf("Jobs=%d: %s differs with EvalCache on:\n--- off ---\n%s\n--- on ---\n%s",
					jobs, c.name, c.plain, c.cache)
			}
		}
	}
}

// TestRunnerEvalStats checks that the runner accumulates per-task cache
// counters and that a cache-off runner reports zeros.
func TestRunnerEvalStats(t *testing.T) {
	sys := hw.System1()
	opts := scaler.DefaultOptions()

	r := smallRunner()
	if _, err := r.Fig9(sys, opts); err != nil {
		t.Fatal(err)
	}
	st := r.EvalStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cached runner stats = %+v, want nonzero hits and misses", st)
	}
	if st.Hits < st.Misses {
		t.Errorf("sharing one cache across four techniques should serve most ops from cache: %+v", st)
	}

	off := smallRunner()
	off.noEvalCache = true
	if _, err := off.Fig9(sys, opts); err != nil {
		t.Fatal(err)
	}
	if st := off.EvalStats(); st != (prog.EvalStats{}) {
		t.Errorf("cache-off runner stats = %+v, want zeros", st)
	}
}

package scaler

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/prog"
	"repro/internal/wltest"
)

// TestEvalCacheSearchBitIdentical is the acceptance check for
// incremental trial evaluation: a search with the cache must match a
// cache-free search in its decision and every exported observability
// artifact, byte for byte — at Workers=1 and under the speculative
// executor at Workers=8, at the default byte budget and at a zero one.
// At zero the cache stores nothing, so every speculative run is refused
// a place in the run memo and the sequential loop runs it again live.
func TestEvalCacheSearchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *prog.Workload
		sys  *hw.System
	}{
		{"vec-combine/sys1", wltest.VecCombine(1 << 12), hw.System1()},
		{"half-hostile/sys2", wltest.HalfHostile(1 << 12), hw.System2()},
		{"compute-heavy/sys1", wltest.ComputeHeavy(1<<12, 4), hw.System1()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, trace0, csv0, expl0 := observedSearch(t, tc.w, tc.sys, 1, nil)
			for _, zeroBudget := range []bool{false, true} {
				for _, workers := range []int{1, 8} {
					cache := prog.NewEvalCache()
					if zeroBudget {
						cache.SetMemoryLimit(0)
					}
					cached, trace1, csv1, expl1 := observedSearch(t, tc.w, tc.sys, workers, cache)

					at := fmt.Sprintf("Workers=%d, zero budget %v", workers, zeroBudget)
					if a, b := configKey(tc.w, plain.Config), configKey(tc.w, cached.Config); a != b {
						t.Errorf("%s: chosen config differs:\nplain:  %s\ncached: %s", at, a, b)
					}
					if plain.Trials != cached.Trials || plain.Speedup != cached.Speedup ||
						plain.Quality != cached.Quality || plain.Final.Total != cached.Final.Total {
						t.Errorf("%s: outcome differs: %d/%v/%v/%v vs %d/%v/%v/%v",
							at, plain.Trials, plain.Speedup, plain.Quality, plain.Final.Total,
							cached.Trials, cached.Speedup, cached.Quality, cached.Final.Total)
					}
					if !bytes.Equal(trace0, trace1) {
						t.Errorf("%s: Chrome trace JSON differs with the cache on", at)
					}
					if !bytes.Equal(csv0, csv1) {
						t.Errorf("%s: metrics CSV differs with the cache on", at)
					}
					if expl0 != expl1 {
						t.Errorf("%s: explain report differs with the cache on", at)
					}
					if st := cache.Stats(); !zeroBudget && st.Hits == 0 {
						t.Errorf("%s: cache saw no hits across a whole search", at)
					}
				}
			}
		})
	}
}

// TestEvalCacheSearchSavesWork checks the point of the exercise: a
// search over a multi-object workload must serve a meaningful share of
// its ops from the cache. (The ≥2x executed-op reduction of the
// acceptance criteria comes from sharing one cache across all four
// techniques of a comparison; a lone search clears a lower bar.)
func TestEvalCacheSearchSavesWork(t *testing.T) {
	w := wltest.VecCombine(1 << 10)
	sys := hw.System1()
	cache := prog.NewEvalCache()
	opts := DefaultOptions()
	opts.EvalCache = cache
	if _, err := New(sys, dbFor(sys), w, opts).Search(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits*3 < st.Misses {
		t.Errorf("expected at least a quarter of ops served from cache, got %+v", st)
	}
}

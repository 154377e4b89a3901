package scaler

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/wltest"
)

// observedSearch runs one observed search at the given worker count over
// cache (nil runs without one) and returns the result plus the exported
// trace JSON, metrics CSV, and rendered explain report.
func observedSearch(t *testing.T, w *prog.Workload, sys *hw.System, workers int, cache *prog.EvalCache) (*Result, []byte, []byte, string) {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	opts.EvalCache = cache
	o := obs.New()
	opts.Obs = o
	res, err := New(sys, dbFor(sys), w, opts).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var trace, csv bytes.Buffer
	if err := o.Tracer().WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), csv.Bytes(), o.Explain()
}

// checkSpeculated fails the test unless the Workers=8 search's cache saw
// more probes (hits plus misses) than the Workers=1 search's: every
// speculative run the decision loop consumes is probed by its worker and
// again by the loop's replay, so a search that never speculated would
// compare itself with itself.
func checkSpeculated(t *testing.T, what string, seq, par *prog.EvalCache) {
	t.Helper()
	s1, s8 := seq.Stats(), par.Stats()
	p1, p8 := s1.Hits+s1.Misses, s8.Hits+s8.Misses
	t.Logf("%s: %d cache probes at Workers=8, %d at Workers=1", what, p8, p1)
	if p8 <= p1 {
		t.Errorf("%s: Workers=8 search did not speculate: %d cache probes, Workers=1 %d", what, p8, p1)
	}
}

// TestParallelSearchBitIdentical is the determinism acceptance check for
// the speculative trial executor: a search at Workers=8 must match
// Workers=1 in its decision (chosen configuration), its accounting
// (trial count, Eq.1-3 spaces, speedup, quality), and every exported
// observability artifact, byte for byte. Speculation needs a cache, so
// each search gets a fresh one.
func TestParallelSearchBitIdentical(t *testing.T) {
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
			cache1, cache8 := prog.NewEvalCache(), prog.NewEvalCache()
			seq, trace1, csv1, expl1 := observedSearch(t, tc.w, tc.sys, 1, cache1)
			par, trace8, csv8, expl8 := observedSearch(t, tc.w, tc.sys, 8, cache8)
			checkSpeculated(t, tc.name, cache1, cache8)

			if a, b := configKey(tc.w, seq.Config), configKey(tc.w, par.Config); a != b {
				t.Errorf("chosen config differs:\nWorkers=1: %s\nWorkers=8: %s", a, b)
			}
			if seq.Trials != par.Trials {
				t.Errorf("trial count differs: %d vs %d", seq.Trials, par.Trials)
			}
			if seq.SearchSpace != par.SearchSpace || seq.TreeSpace != par.TreeSpace || seq.PredictedSpace != par.PredictedSpace {
				t.Errorf("search-space bounds differ: %v/%v/%v vs %v/%v/%v",
					seq.SearchSpace, seq.TreeSpace, seq.PredictedSpace,
					par.SearchSpace, par.TreeSpace, par.PredictedSpace)
			}
			if seq.Speedup != par.Speedup || seq.Quality != par.Quality || seq.Final.Total != par.Final.Total {
				t.Errorf("measured outcome differs: %v/%v/%v vs %v/%v/%v",
					seq.Speedup, seq.Quality, seq.Final.Total, par.Speedup, par.Quality, par.Final.Total)
			}
			if !bytes.Equal(trace1, trace8) {
				t.Error("Chrome trace JSON differs between Workers=1 and Workers=8")
			}
			if !bytes.Equal(csv1, csv8) {
				t.Error("metrics CSV differs between Workers=1 and Workers=8")
			}
			if expl1 != expl8 {
				t.Error("explain report differs between Workers=1 and Workers=8")
			}
		})
	}
}

// TestParallelSearchWithoutObserver checks the Workers path with
// observability off (the common experiment-runner configuration) and
// with the ablation variants, which exercise different merge paths.
func TestParallelSearchWithoutObserver(t *testing.T) {
	sys := hw.System1()
	w := wltest.VecCombine(1 << 12)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"no-wildcard", Options{TOQ: 0.90, DisableWildcard: true}},
		{"no-full-precision-pass", Options{TOQ: 0.90, DisableFullPrecisionPass: true}},
	} {
		seqOpts, parOpts := tc.opts, tc.opts
		seqOpts.Workers, parOpts.Workers = 1, 8
		seqOpts.EvalCache, parOpts.EvalCache = prog.NewEvalCache(), prog.NewEvalCache()
		seq, err := New(sys, dbFor(sys), w, seqOpts).Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(sys, dbFor(sys), w, parOpts).Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkSpeculated(t, tc.name, seqOpts.EvalCache, parOpts.EvalCache)
		if a, b := configKey(w, seq.Config), configKey(w, par.Config); a != b {
			t.Errorf("%s: chosen config differs:\n%s\n%s", tc.name, a, b)
		}
		if seq.Trials != par.Trials || seq.Speedup != par.Speedup || seq.Quality != par.Quality {
			t.Errorf("%s: outcome differs: %d/%v/%v vs %d/%v/%v",
				tc.name, seq.Trials, seq.Speedup, seq.Quality, par.Trials, par.Speedup, par.Quality)
		}
	}
}

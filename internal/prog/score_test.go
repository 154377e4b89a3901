package prog_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
	"repro/internal/wltest"
)

// scoring records the outputs each QualityNamed call compares, by the
// identity of their storage: the score memo keys on the same identity,
// and the cache keeps every registered storage alive, so an identity seen
// twice is an output scored twice.
type scoring struct {
	calls int
	seen  map[string]bool
	again int // calls whose outputs were scored before
}

func (s *scoring) hook(names []string, ref, res *prog.Result) {
	var b bytes.Buffer
	for _, name := range names {
		for _, r := range []*prog.Result{ref, res} {
			if a := r.Outputs[name]; a != nil && a.Len() > 0 {
				fmt.Fprintf(&b, "%p/%d ", &a.Values()[0], a.Len())
			} else {
				b.WriteString("- ")
			}
		}
	}
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	s.calls++
	if s.seen[b.String()] {
		s.again++
	}
	s.seen[b.String()] = true
}

// search runs one search of w on fw's system at toq over cache, with
// every QualityNamed call reported to sc, and returns the result and its
// wire decision.
func search(t *testing.T, fw *core.Framework, sys *hw.System, w *prog.Workload, toq float64, set prog.InputSet, cache *prog.EvalCache, sc *scoring) (*scaler.Result, []byte) {
	t.Helper()
	remove := prog.SetScoreHook(sc.hook)
	defer remove()
	opts := scaler.DefaultOptions()
	opts.TOQ, opts.InputSet, opts.Workers, opts.EvalCache = toq, set, 1, cache
	res, err := scaler.New(sys, fw.DB(), w, opts).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := api.EncodeDecision(&body, api.NewDecision(sys, w, res, toq, set)); err != nil {
		t.Fatal(err)
	}
	return res, body.Bytes()
}

// TestWarmSearchScoresOnlyNewOutputs runs a search at TOQ 0.90 and then a
// second one over the same EvalCache, as prescalerd does for a new TOQ or
// a new input set on a cached pair. The second search must answer
// exactly what a search over a fresh cache answers, while computing
// element errors only for outputs the cache has not scored before: none
// of them at a new TOQ, all of them on new inputs, whose reference is
// new.
func TestWarmSearchScoresOnlyNewOutputs(t *testing.T) {
	sys := hw.System1()
	fw := core.NewFramework(sys)
	// Compute- and data-intensive, at reduced sizes so the test stays
	// quick under -race.
	for _, w := range []*prog.Workload{polybench.TwoMM(32), polybench.Atax(256, 256)} {
		for _, leg := range []struct {
			name  string
			toq   float64
			set   prog.InputSet
			reuse bool // the first search scored what this one needs
		}{
			{"toq-0.95", 0.95, prog.InputDefault, true},
			{"random-inputs", 0.90, prog.InputRandom, false},
		} {
			t.Run(w.Name+"/"+leg.name, func(t *testing.T) {
				cache := prog.NewEvalCache()
				shared := &scoring{}
				search(t, fw, sys, w, 0.90, prog.InputDefault, cache, shared)
				first := shared.calls
				warm, warmBody := search(t, fw, sys, w, leg.toq, leg.set, cache, shared)
				warmCalls := shared.calls - first

				fresh := &scoring{}
				cold, coldBody := search(t, fw, sys, w, leg.toq, leg.set, prog.NewEvalCache(), fresh)
				if !reflect.DeepEqual(warm, cold) {
					t.Error("warm search Result differs from a fresh-cache search")
				}
				if !bytes.Equal(warmBody, coldBody) {
					t.Errorf("warm decision differs from a fresh-cache search:\n%s\n%s", warmBody, coldBody)
				}
				if shared.again != 0 {
					t.Errorf("%d score(s) recomputed outputs the cache had scored", shared.again)
				}
				switch {
				case leg.reuse && warmCalls != 0:
					t.Errorf("warm search scored %d outputs, want 0: the first search scored them all", warmCalls)
				case !leg.reuse && warmCalls != fresh.calls:
					t.Errorf("warm search scored %d outputs, a fresh search %d: a new reference needs new scores", warmCalls, fresh.calls)
				}
				if fresh.calls != cold.Trials-1 {
					t.Errorf("fresh search scored %d outputs over %d trials", fresh.calls, cold.Trials-1)
				}
			})
		}
	}

	// Outputs the cache does not hold are scored every time: a faulted
	// system bypasses the cache, and a cache with no byte budget drops
	// every entry it records.
	spec, err := fault.Parse("nan:0.001")
	if err != nil {
		t.Fatal(err)
	}
	faulted := sys.Clone()
	faulted.Faults = spec.WithSeed(1)
	for _, bypass := range []struct {
		name   string
		sys    *hw.System
		budget int64
	}{
		{"faulted", faulted, 1 << 30},
		{"over-budget", sys, 0},
	} {
		t.Run(bypass.name, func(t *testing.T) {
			w := polybench.Atax(256, 256)
			cache := prog.NewEvalCache()
			cache.SetMemoryLimit(bypass.budget)
			sc := &scoring{}
			search(t, fw, bypass.sys, w, 0.90, prog.InputDefault, cache, sc)
			before := sc.calls
			res, _ := search(t, fw, bypass.sys, w, 0.95, prog.InputDefault, cache, sc)
			if got, want := sc.calls-before, res.Trials-1; got != want {
				t.Errorf("second search scored %d trials, want all %d", got, want)
			}
			if n := cache.Entries(); n != 0 {
				t.Errorf("cache holds %d entries, want none", n)
			}
		})
	}
}

// TestSharedCacheConcurrentSearches runs searches at several TOQs at
// once over one EvalCache, with speculative workers, as the daemon's
// searches and sessions share a pair's cache. Each must answer what a
// search over a fresh cache answers. Run it under -race.
func TestSharedCacheConcurrentSearches(t *testing.T) {
	sys := hw.System1()
	db := core.NewFramework(sys).DB()
	w := wltest.HalfHostile(1 << 12)
	toqs := []float64{0.90, 0.95, 0.90, 0.99, 0.95, 0.80}
	run := func(toq float64, cache *prog.EvalCache) ([]byte, error) {
		opts := scaler.DefaultOptions()
		opts.TOQ, opts.Workers, opts.EvalCache = toq, 2, cache
		res, err := scaler.New(sys.Clone(), db, w, opts).Search(context.Background())
		if err != nil {
			return nil, err
		}
		var body bytes.Buffer
		err = api.EncodeDecision(&body, api.NewDecision(sys, w, res, toq, prog.InputDefault))
		return body.Bytes(), err
	}
	shared := prog.NewEvalCache()
	got := make([][]byte, len(toqs))
	errs := make([]error, len(toqs))
	var wg sync.WaitGroup
	for i, toq := range toqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(toq, shared)
		}()
	}
	wg.Wait()
	for i, toq := range toqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := run(toq, prog.NewEvalCache())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("TOQ %.2f over the shared cache:\n%s\nfresh cache:\n%s", toq, got[i], want)
		}
	}
}

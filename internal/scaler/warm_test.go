package scaler

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/wltest"
)

// coldSearch runs a plain search on w over set and returns the result.
func coldSearch(t *testing.T, sys *hw.System, w *prog.Workload, set prog.InputSet, workers int) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.InputSet = set
	opts.Workers = workers
	res, err := New(sys, dbFor(sys), w, opts).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// warmSearchFrom re-searches w on set seeded from a prior result, over
// cache (nil runs without one).
func warmSearchFrom(t *testing.T, sys *hw.System, w *prog.Workload, set prog.InputSet, seed *Seed, workers int, cache *prog.EvalCache) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.InputSet = set
	opts.Workers = workers
	opts.EvalCache = cache
	opts.Seed = seed
	res, err := New(sys, dbFor(sys), w, opts).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// seedOf derives a Seed from a prior search result, mirroring what the
// session layer persists: the chosen config plus per-object error
// contributions of the final run against the profiling reference.
func seedOf(t *testing.T, sys *hw.System, w *prog.Workload, set prog.InputSet, res *Result) *Seed {
	t.Helper()
	ref, err := prog.Run(sys, w, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Seed{
		Config: res.Config,
		ObjErr: prog.ObjectErrors(w, ref.Ops, ref, res.Final),
	}
}

// TestWarmDriftKeepsUnmovedObjects: VecCombine's relative errors are
// scale-invariant, so a random->image drift moves no object's error
// contribution: the warm search should trial the seed once, keep every
// object, and use far fewer trials than a cold search on the same
// drifted inputs.
func TestWarmDriftKeepsUnmovedObjects(t *testing.T) {
	w := wltest.VecCombine(1 << 12)
	sys := hw.System1()
	gen1 := coldSearch(t, sys, w, prog.InputRandom, 0)
	seed := seedOf(t, sys, w, prog.InputRandom, gen1)

	cold := coldSearch(t, sys, w, prog.InputImage, 0)
	warm := warmSearchFrom(t, sys, w, prog.InputImage, seed, 0, nil)

	if warm.Warm == nil {
		t.Fatal("warm search did not record a WarmReport")
	}
	if !warm.Warm.SeedPassed {
		t.Fatalf("seed should pass TOQ on image inputs, quality %v", warm.Warm.SeedQuality)
	}
	if len(warm.Warm.Moved) != 0 {
		t.Errorf("moved objects = %v, want none (relative error is scale-invariant)", warm.Warm.Moved)
	}
	if len(warm.Warm.Kept) != len(w.Objects) {
		t.Errorf("kept %d objects, want %d", len(warm.Warm.Kept), len(w.Objects))
	}
	if warm.Quality < 0.90 {
		t.Errorf("warm quality %v below TOQ", warm.Quality)
	}
	if warm.Trials >= cold.Trials {
		t.Errorf("warm trials %d not fewer than cold %d", warm.Trials, cold.Trials)
	}
	// The kept decision must match the seed's targets.
	for name, oc := range gen1.Config.Objects {
		if got := warm.Config.Objects[name].Target; got != oc.Target {
			t.Errorf("object %s: warm target %v != seed target %v", name, got, oc.Target)
		}
	}
}

// TestWarmTOQRepairRaisesPrecision: RangeHostile passes at half on random
// inputs but overflows binary16 at image range; a warm re-search seeded
// from the random decision must detect the TOQ failure, repair upward,
// and still spend fewer trials than a cold search.
func TestWarmTOQRepairRaisesPrecision(t *testing.T) {
	w := wltest.RangeHostile(1 << 18)
	sys := hw.System1() // transfer-dominated at this size: half wins on random
	gen1 := coldSearch(t, sys, w, prog.InputRandom, 0)
	if tgt := gen1.Config.Objects["c"].Target; tgt != precision.Half {
		t.Fatalf("random search should pick half for c, got %v", tgt)
	}
	seed := seedOf(t, sys, w, prog.InputRandom, gen1)

	cold := coldSearch(t, sys, w, prog.InputImage, 0)
	warm := warmSearchFrom(t, sys, w, prog.InputImage, seed, 0, nil)

	if warm.Warm == nil || warm.Warm.SeedPassed {
		t.Fatalf("seed should fail TOQ on image inputs: %+v", warm.Warm)
	}
	if len(warm.Warm.Repaired) == 0 {
		t.Error("repair pass raised no object")
	}
	if warm.Quality < 0.90 {
		t.Errorf("warm quality %v below TOQ", warm.Quality)
	}
	if tgt := warm.Config.Objects["c"].Target; tgt == precision.Half {
		t.Error("repaired decision still stores c at half")
	}
	if warm.Trials >= cold.Trials {
		t.Errorf("warm trials %d not fewer than cold %d", warm.Trials, cold.Trials)
	}
}

// TestWarmDeterministicAcrossWorkers: the warm path must produce the
// same decision, trial count, and warm report at any worker count. The
// drifted seed keeps every VecCombine object and repairs RangeHostile
// one trial at a time, neither of which speculates; a baseline seed
// without error contributions re-searches every object from the
// original precision, which does.
func TestWarmDeterministicAcrossWorkers(t *testing.T) {
	for _, w := range []*prog.Workload{wltest.VecCombine(1 << 12), wltest.RangeHostile(1 << 18)} {
		sys := hw.System1()
		gen1 := coldSearch(t, sys, w, prog.InputRandom, 0)
		for _, tc := range []struct {
			name        string
			seed        *Seed
			speculative bool
		}{
			{"drifted", seedOf(t, sys, w, prog.InputRandom, gen1), false},
			{"baseline", &Seed{Config: prog.Baseline(w)}, true},
		} {
			what := w.Name + "/" + tc.name
			cache1, cache8 := prog.NewEvalCache(), prog.NewEvalCache()
			a := warmSearchFrom(t, sys, w, prog.InputImage, tc.seed, 1, cache1)
			b := warmSearchFrom(t, sys, w, prog.InputImage, tc.seed, 8, cache8)
			if tc.speculative {
				checkSpeculated(t, what, cache1, cache8)
			}
			if a.Trials != b.Trials {
				t.Errorf("%s: trials differ across workers: %d vs %d", what, a.Trials, b.Trials)
			}
			if !reflect.DeepEqual(a.Warm, b.Warm) {
				t.Errorf("%s: warm reports differ across workers:\n  %+v\n  %+v", what, a.Warm, b.Warm)
			}
			ka := configKey(w, a.Config)
			kb := configKey(w, b.Config)
			if ka != kb {
				t.Errorf("%s: configs differ across workers:\n  %q\n  %q", what, ka, kb)
			}
		}
	}
}

// TestColdPathUnchangedBySeedField: a nil Seed must leave the search
// identical to one built before the field existed (same config and
// trial count as a second independent cold run).
func TestColdPathUnchangedBySeedField(t *testing.T) {
	w := wltest.VecCombine(1 << 12)
	a := coldSearch(t, hw.System1(), w, prog.InputImage, 0)
	b := coldSearch(t, hw.System1(), w, prog.InputImage, 4)
	if a.Trials != b.Trials || configKey(w, a.Config) != configKey(w, b.Config) {
		t.Errorf("cold search not deterministic: trials %d vs %d", a.Trials, b.Trials)
	}
}

// TestProjectSeedSanitizes: garbage seed configs (unknown objects,
// invalid targets, wrong plan counts) are projected onto valid choices
// rather than crashing or skewing the search.
func TestProjectSeedSanitizes(t *testing.T) {
	w := wltest.VecCombine(1 << 12)
	bad := &prog.Config{Objects: map[string]prog.ObjectConfig{
		"a":     {Target: precision.Type(99)},
		"ghost": {Target: precision.Half},
		"c":     {Target: precision.Half}, // plans missing: must be rebuilt
		"tmp":   {Target: precision.Single},
		"b":     {Target: precision.Half},
	}}
	res := warmSearchFrom(t, hw.System1(), w, prog.InputImage, &Seed{Config: bad}, 0, nil)
	if res.Quality < 0.90 {
		t.Errorf("quality %v below TOQ after sanitized warm start", res.Quality)
	}
	for name, oc := range res.Config.Objects {
		if !oc.Target.Valid() {
			t.Errorf("object %s: invalid target %v survived projection", name, oc.Target)
		}
	}
}

package scaler

import (
	"math"

	"repro/internal/precision"
	"repro/internal/prog"
)

// Seed warm-starts a search from a previous decision on the same
// workload. The drift-adaptation path of the decision service uses it:
// when a session's inputs drift (or achieved quality misses TOQ), the
// re-search starts from the generation it is replacing instead of from
// scratch, re-validating only the objects whose error contribution
// moved. A search with a nil Seed is byte-identical to the pre-seed
// implementation; the warm path is reached only when one is supplied.
type Seed struct {
	// Config is the previous decision's configuration. Targets outside
	// the device's supported set and malformed plans are projected back
	// onto valid choices, so a config deserialized from a persisted
	// session snapshot is safe to pass directly.
	Config *prog.Config
	// ObjErr carries the per-object error contributions recorded when
	// Config was validated (prog.ObjectErrors of its final run against
	// the then-current reference). Objects whose contribution under the
	// new inputs stays within MoveThreshold of these values keep their
	// seeded target without re-search. A nil map re-validates every
	// object.
	ObjErr map[string]float64
	// MoveThreshold is the absolute change in mean element error beyond
	// which an object counts as moved. Zero selects 1e-3 — comfortably
	// above the rounding jitter two same-shaped input streams produce,
	// well below the collapse a range drift causes.
	MoveThreshold float64
}

// defaultMoveThreshold is Seed.MoveThreshold when left zero.
const defaultMoveThreshold = 1e-3

// WarmReport describes what the warm-started search did with its seed,
// for the session layer's generation diff ("what changed and why").
type WarmReport struct {
	// SeedQuality is the seeded configuration's measured quality under
	// the search's input set (0 when the seed could not execute).
	SeedQuality float64
	// SeedPassed reports whether the seed met TOQ as-is.
	SeedPassed bool
	// Moved lists objects whose error contribution shifted beyond the
	// threshold and were re-searched.
	Moved []string
	// Kept lists objects that kept their seeded target without a trial.
	Kept []string
	// Repaired lists objects raised toward the original precision by the
	// TOQ-repair pass (seed missed TOQ).
	Repaired []string
}

// warmSearch is the Options.Seed replacement for the cold pipeline's
// pre-full-precision pass and full per-object descent. It trials the
// projected seed once; if the seed meets TOQ, only objects whose error
// contribution moved are re-searched (descending from their seeded
// target, so the candidate lists are strictly shorter than the cold
// search's); if it misses TOQ, a repair pass raises objects — in the
// usual descending-effective-time visit order — one precision step at a
// time until the configuration passes. Either way every executed trial
// goes through runTrial, so memoization, replays of speculative runs from
// the EvalCache, fault retries and progress events behave exactly as in
// the cold path, and the result is deterministic at any Workers value.
func (s *Scaler) warmSearch(types []precision.Type) (*prog.Config, error) {
	seed := s.opts.Seed
	thr := seed.MoveThreshold
	if thr <= 0 {
		thr = defaultMoveThreshold
	}
	rep := &WarmReport{}
	s.warm = rep
	j := s.opts.Obs.Journal()

	cfg := s.projectSeed(types)
	rec, _, err := s.runTrial(cfg, "warm seed")
	if err != nil {
		if !IsTrialFailure(err) {
			return nil, err
		}
		// The seed cannot execute at all (fault injection): the baseline
		// configuration — memoized from the profiling run — is the only
		// known-safe start, and the final validation tail re-checks it.
		if j != nil {
			j.Note("warm seed failed to execute (%v); reverting to baseline", err)
		}
		return prog.Baseline(s.w), nil
	}
	rep.SeedQuality = rec.quality
	if rec.quality < s.opts.TOQ {
		if j != nil {
			j.Note("warm seed missed TOQ (%.4f < %.2f); repairing upward", rec.quality, s.opts.TOQ)
		}
		return s.warmRepair(cfg, types, rep)
	}
	rep.SeedPassed = true

	// The seed still satisfies TOQ: re-search only the objects whose
	// error contribution moved under the new inputs.
	errs := prog.ObjectErrors(s.w, s.ref.Ops, s.ref, rec.res)
	current := cfg
	for i := range s.info.Objects {
		obj := &s.info.Objects[i]
		moved := true
		if seed.ObjErr != nil {
			prev, ok := seed.ObjErr[obj.Name]
			moved = !ok || math.Abs(errs[obj.Name]-prev) > thr
		}
		target := current.Objects[obj.Name].Target
		if !target.Valid() {
			target = s.w.Original
		}
		if !moved {
			rep.Kept = append(rep.Kept, obj.Name)
			s.progress(ProgressEvent{
				Kind: "object", Object: obj.Name, Target: target.String(),
				Trial: s.trials, Verdict: "kept",
			})
			continue
		}
		rep.Moved = append(rep.Moved, obj.Name)
		chosen, err := s.searchObject(current, obj, typesFrom(types, target))
		if err != nil {
			return nil, err
		}
		current = chosen
		target = current.Objects[obj.Name].Target
		if !target.Valid() {
			target = s.w.Original
		}
		s.progress(ProgressEvent{
			Kind: "object", Object: obj.Name, Target: target.String(),
			Trial: s.trials, Verdict: "chosen",
		})
	}
	return current, nil
}

// warmRepair raises a TOQ-violating seed toward the original precision:
// objects are visited in descending effective time and lifted one
// precision step at a time (rebuilding best direct plans) until the
// configuration passes TOQ or everything sits at the original. The pass
// is deliberately conservative — it prefers few trials over a globally
// optimal config; with every object at the original it converges to the
// baseline, which the final validation tail can always fall back to.
func (s *Scaler) warmRepair(cfg *prog.Config, types []precision.Type, rep *WarmReport) (*prog.Config, error) {
	current := cfg.Clone()
	for i := range s.info.Objects {
		obj := &s.info.Objects[i]
		raised := false
		for {
			t := current.Objects[obj.Name].Target
			if !t.Valid() {
				t = s.w.Original
			}
			next, ok := typeAbove(types, t)
			if !ok {
				break
			}
			cand := current.Clone()
			cand.Objects[obj.Name] = prog.ObjectConfig{
				Target: next,
				Plans:  s.bestDirectPlans(obj, next),
			}
			rec, _, err := s.runTrial(cand, obj.Name+" raise "+next.String())
			if err != nil {
				if !IsTrialFailure(err) {
					return nil, err
				}
				// Keep climbing: an unexecutable candidate is treated like a
				// TOQ failure, and the climb converges to the baseline.
				current = cand
				continue
			}
			current = cand
			if !raised {
				raised = true
				rep.Repaired = append(rep.Repaired, obj.Name)
			}
			if rec.quality >= s.opts.TOQ {
				s.progress(ProgressEvent{
					Kind: "object", Object: obj.Name, Target: next.String(),
					Trial: s.trials, Verdict: "repaired",
				})
				return current, nil
			}
		}
		if raised {
			t := current.Objects[obj.Name].Target
			s.progress(ProgressEvent{
				Kind: "object", Object: obj.Name, Target: t.String(),
				Trial: s.trials, Verdict: "repaired",
			})
		}
	}
	return current, nil
}

// projectSeed maps the seed configuration onto the profiled workload:
// unknown objects are dropped, missing ones filled at the original
// precision, unsupported targets clamped to the original, and plans
// that do not match the profiled transfer-event count (or reference
// invalid types) rebuilt as best direct plans. The result is safe to
// trial regardless of where the seed came from.
func (s *Scaler) projectSeed(types []precision.Type) *prog.Config {
	seed := s.opts.Seed.Config
	cfg := prog.Baseline(s.w)
	for i := range s.info.Objects {
		obj := &s.info.Objects[i]
		t := s.w.Original
		oc, ok := seed.Objects[obj.Name]
		if ok && oc.Target.Valid() && typeIn(types, oc.Target) {
			t = oc.Target
		}
		rebuilt := !ok || t != oc.Target || len(oc.Plans) != len(obj.Transfers)
		if !rebuilt {
			for _, p := range oc.Plans {
				if !p.Mid.Valid() {
					rebuilt = true
					break
				}
			}
		}
		out := prog.ObjectConfig{Target: t}
		if rebuilt {
			out.Plans = s.bestDirectPlans(obj, t)
		} else {
			out.Plans = append(out.Plans, oc.Plans...)
		}
		cfg.Objects[obj.Name] = out
	}
	return cfg
}

// typeIn reports whether t is in the candidate list.
func typeIn(types []precision.Type, t precision.Type) bool {
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}

// typesFrom returns the suffix of the descending candidate list starting
// at t, or the full list when t is absent.
func typesFrom(types []precision.Type, t precision.Type) []precision.Type {
	for i, x := range types {
		if x == t {
			return types[i:]
		}
	}
	return types
}

// typeAbove returns the next higher precision than t in the descending
// candidate list.
func typeAbove(types []precision.Type, t precision.Type) (precision.Type, bool) {
	for i, x := range types {
		if x == t {
			if i == 0 {
				return 0, false
			}
			return types[i-1], true
		}
	}
	return 0, false
}

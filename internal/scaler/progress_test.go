package scaler

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/prog"
	"repro/internal/wltest"
)

// progressSearch runs one search over a fresh EvalCache with a
// collecting Progress hook, and returns the cache too.
func progressSearch(t *testing.T, workers int) (*Result, []ProgressEvent, *prog.EvalCache) {
	t.Helper()
	sys := hw.System1()
	w := wltest.VecCombine(1 << 12)
	opts := DefaultOptions()
	opts.Workers = workers
	opts.EvalCache = prog.NewEvalCache()
	var events []ProgressEvent
	opts.Progress = func(ev ProgressEvent) { events = append(events, ev) }
	res, err := New(sys, dbFor(sys), w, opts).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, events, opts.EvalCache
}

// The hook must see the full milestone sequence: start, profile, at
// least one trial per executed configuration, one object decision per
// memory object, and a final event matching the result.
func TestProgressEventSequence(t *testing.T) {
	res, events, _ := progressSearch(t, 1)
	if len(events) < 4 {
		t.Fatalf("only %d progress events: %+v", len(events), events)
	}
	if events[0].Kind != "start" || events[0].Workload != "veccombine" {
		t.Errorf("first event = %+v, want start", events[0])
	}
	if events[1].Kind != "profile" || events[1].Trial != 1 {
		t.Errorf("second event = %+v, want profile trial 1", events[1])
	}
	last := events[len(events)-1]
	if last.Kind != "final" {
		t.Fatalf("last event = %+v, want final", last)
	}
	if last.Trial != res.Trials || last.Quality != res.Quality || last.Speedup != res.Speedup {
		t.Errorf("final event %+v does not match result trials=%d quality=%v speedup=%v",
			last, res.Trials, res.Quality, res.Speedup)
	}

	trials, objects := 0, 0
	for _, ev := range events {
		if ev.TOQ != 0.90 {
			t.Errorf("event missing TOQ stamp: %+v", ev)
		}
		switch ev.Kind {
		case "trial":
			trials++
			if ev.Label == "" || ev.Verdict == "" {
				t.Errorf("trial event missing label/verdict: %+v", ev)
			}
		case "object":
			objects++
			if ev.Object == "" || ev.Target == "" || ev.Verdict != "chosen" {
				t.Errorf("object event malformed: %+v", ev)
			}
		}
	}
	if trials == 0 {
		t.Error("no trial events emitted")
	}
	w := wltest.VecCombine(1 << 12)
	if objects != len(w.Objects) {
		t.Errorf("%d object events, want %d", objects, len(w.Objects))
	}
}

// The event stream is part of the determinism contract: identical at
// any Workers value, and the hook itself must not perturb the search.
func TestProgressDeterministicAndInert(t *testing.T) {
	res1, ev1, cache1 := progressSearch(t, 1)
	_, ev8, cache8 := progressSearch(t, 8)
	checkSpeculated(t, "progress", cache1, cache8)
	if !reflect.DeepEqual(ev1, ev8) {
		t.Errorf("progress events differ across Workers:\n1: %+v\n8: %+v", ev1, ev8)
	}

	sys := hw.System1()
	w := wltest.VecCombine(1 << 12)
	opts := DefaultOptions()
	opts.EvalCache = prog.NewEvalCache()
	plain, err := New(sys, dbFor(sys), w, opts).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trials != res1.Trials || plain.Quality != res1.Quality ||
		plain.Final.Total != res1.Final.Total {
		t.Errorf("progress hook perturbed the search: trials %d vs %d, quality %v vs %v",
			plain.Trials, res1.Trials, plain.Quality, res1.Quality)
	}
	if a, b := configKey(w, plain.Config), configKey(w, res1.Config); a != b {
		t.Errorf("progress hook changed the chosen config")
	}
}

package scaler

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/ocl"
	"repro/internal/wltest"
)

func injected(status ocl.Status) error {
	return &ocl.Error{Status: status, Op: "test", Injected: true}
}

// TestRetryFaultsRecovers: a transient fault on attempt 0 is retried
// under a fresh fault salt, and the salt is restored afterwards.
func TestRetryFaultsRecovers(t *testing.T) {
	sys := hw.System1()
	s := New(sys, dbFor(sys), wltest.VecCombine(1<<10), DefaultOptions())
	var salts []uint64
	err := s.retryFaults("test", func() error {
		salts = append(salts, sys.FaultSalt)
		if len(salts) == 1 {
			return injected(ocl.StatusOutOfHostMemory)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(salts, []uint64{0, 1}) {
		t.Errorf("attempt salts = %v, want [0 1]", salts)
	}
	if sys.FaultSalt != 0 {
		t.Errorf("salt not restored: %d", sys.FaultSalt)
	}
}

// TestRetryFaultsExhaustion: a fault that persists across every retry
// becomes a TrialError carrying the attempt count.
func TestRetryFaultsExhaustion(t *testing.T) {
	sys := hw.System1()
	s := New(sys, dbFor(sys), wltest.VecCombine(1<<10), DefaultOptions())
	calls := 0
	err := s.retryFaults("doomed", func() error {
		calls++
		return injected(ocl.StatusOutOfHostMemory)
	})
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("want *TrialError, got %v", err)
	}
	// DefaultOptions has Retries=2: attempt 0 plus 2 retries.
	if te.Attempts != 3 || calls != 3 {
		t.Errorf("attempts = %d (calls %d), want 3", te.Attempts, calls)
	}
	if te.Label != "doomed" || !IsTrialFailure(err) {
		t.Errorf("TrialError = %+v", te)
	}
}

// TestRetryFaultsDeviceLostNotRetried: device loss is not transient, so
// it fails the trial on the first attempt.
func TestRetryFaultsDeviceLostNotRetried(t *testing.T) {
	sys := hw.System1()
	s := New(sys, dbFor(sys), wltest.VecCombine(1<<10), DefaultOptions())
	err := s.retryFaults("lost", func() error {
		return injected(ocl.StatusDeviceNotAvailable)
	})
	var te *TrialError
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Fatalf("device loss: got %v, want TrialError after 1 attempt", err)
	}
}

// TestRetryFaultsPanicIsolated: a panic inside a trial is recovered into
// a structured error and retried like a transient fault.
func TestRetryFaultsPanicIsolated(t *testing.T) {
	sys := hw.System1()
	s := New(sys, dbFor(sys), wltest.VecCombine(1<<10), DefaultOptions())
	calls := 0
	err := s.retryFaults("flaky", func() error {
		calls++
		if calls == 1 {
			panic("spurious")
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("panic retry: err=%v calls=%d", err, calls)
	}
}

// TestRetryFaultsProgrammingErrorAborts: a non-fault error must abort
// immediately — retrying a genuine bug would only mask it.
func TestRetryFaultsProgrammingErrorAborts(t *testing.T) {
	sys := hw.System1()
	s := New(sys, dbFor(sys), wltest.VecCombine(1<<10), DefaultOptions())
	sentinel := errors.New("bug")
	calls := 0
	err := s.retryFaults("bug", func() error { calls++; return sentinel })
	if !errors.Is(err, sentinel) || IsTrialFailure(err) || calls != 1 {
		t.Errorf("got err=%v calls=%d, want the sentinel after one call", err, calls)
	}
}

// TestSearchRecoversFromScriptedFault: the first write of every run at
// salt 0 fails; each trial recovers on its salt-1 retry, and the search
// result is identical to the fault-free search.
func TestSearchRecoversFromScriptedFault(t *testing.T) {
	w := wltest.VecCombine(1 << 12)
	clean := hw.System1()
	sClean := New(clean, dbFor(clean), w, DefaultOptions())
	want, err := sClean.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sys := hw.System1()
	sys.Faults = &fault.Spec{Script: []fault.ScriptRule{
		{Kind: fault.Write, From: 0, To: 1, Salts: []uint64{0}},
	}}
	o := obs.New()
	opts := DefaultOptions()
	opts.Obs = o
	s := New(sys, dbFor(sys), w, opts)
	got, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality != want.Quality || got.Speedup != want.Speedup || got.Trials != want.Trials {
		t.Errorf("recovered search differs: quality %v/%v speedup %v/%v trials %d/%d",
			got.Quality, want.Quality, got.Speedup, want.Speedup, got.Trials, want.Trials)
	}
	if !reflect.DeepEqual(got.Config, want.Config) {
		t.Error("recovered search chose a different config")
	}
	if o.Metrics().Counter("trial_retries").Value() == 0 {
		t.Error("scripted fault produced no retries")
	}
	if o.Metrics().Counter("trials_failed").Value() != 0 {
		t.Error("every trial should have recovered")
	}
}

// TestSearchDegradesUnderFaults: at rates and seed found by scanning
// (see git history), several trials exhaust their retries; the search
// treats them as TOQ failures, keeps going, and still lands at or above
// the quality floor. Deterministic: the decision stream is a pure
// function of the seed and the op sequence.
func TestSearchDegradesUnderFaults(t *testing.T) {
	spec, err := fault.Parse("write:0.05,launch:0.03,devlost:0.004,nan:0.02")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, float64, float64) {
		sys := hw.System1()
		sys.Faults = spec.WithSeed(12)
		o := obs.New()
		opts := DefaultOptions()
		opts.Obs = o
		s := New(sys, dbFor(sys), wltest.VecCombine(1<<12), opts)
		res, err := s.Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, o.Metrics().Counter("trials_failed").Value(), o.Metrics().Counter("trial_retries").Value()
	}
	res, failed, retries := run()
	if failed == 0 || retries == 0 {
		t.Fatalf("seed 12 should exhaust some trials (failed=%g retries=%g)", failed, retries)
	}
	if res.Quality < 0.90 {
		t.Errorf("degraded search fell below TOQ: %v", res.Quality)
	}
	res2, failed2, retries2 := run()
	if res.Quality != res2.Quality || res.Trials != res2.Trials || failed != failed2 || retries != retries2 {
		t.Error("two runs with the same fault seed diverged")
	}
}

// TestSearchProfilingFailureIsFatal: if profiling itself cannot complete
// within the retry budget there is no reference to fall back to, so the
// search reports the typed failure instead of fabricating a result.
func TestSearchProfilingFailureIsFatal(t *testing.T) {
	spec, err := fault.Parse("write:0.05,launch:0.03,devlost:0.004,nan:0.02")
	if err != nil {
		t.Fatal(err)
	}
	sys := hw.System1()
	sys.Faults = spec.WithSeed(22) // scanned: profiling exhausts its retries
	s := New(sys, dbFor(sys), wltest.VecCombine(1<<12), DefaultOptions())
	_, err = s.Search(context.Background())
	if err == nil {
		t.Fatal("seed 22 should make profiling fail")
	}
	if !IsTrialFailure(err) || !strings.Contains(err.Error(), "profile") {
		t.Errorf("profiling failure: %v", err)
	}
}

// TestSearchFaultDeterminismAcrossWorkers: a faulted search does not
// speculate, because no EvalCache serves a system with fault injection
// and speculative runs reach the decision loop only through the cache's
// run memo. So Workers=8 runs the sequential schedule, and the outcome
// and the fault counters are the same at any Workers value.
func TestSearchFaultDeterminismAcrossWorkers(t *testing.T) {
	spec, err := fault.Parse("write:0.05,launch:0.03,devlost:0.004,nan:0.02")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, float64, float64) {
		sys := hw.System1()
		sys.Faults = spec.WithSeed(12)
		o := obs.New()
		opts := DefaultOptions()
		opts.Obs = o
		opts.Workers = workers
		s := New(sys, dbFor(sys), wltest.VecCombine(1<<12), opts)
		res, err := s.Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, o.Metrics().Counter("trials_failed").Value(), o.Metrics().Counter("trial_retries").Value()
	}
	r1, f1, rt1 := run(1)
	r8, f8, rt8 := run(8)
	if r1.Quality != r8.Quality || r1.Speedup != r8.Speedup || r1.Trials != r8.Trials {
		t.Errorf("workers 1 vs 8 diverged: quality %v/%v speedup %v/%v trials %d/%d",
			r1.Quality, r8.Quality, r1.Speedup, r8.Speedup, r1.Trials, r8.Trials)
	}
	if !reflect.DeepEqual(r1.Config, r8.Config) {
		t.Error("workers 1 vs 8 chose different configs")
	}
	if f1 != f8 || rt1 != rt8 {
		t.Errorf("fault counters diverged: failed %g/%g retries %g/%g", f1, f8, rt1, rt8)
	}
}

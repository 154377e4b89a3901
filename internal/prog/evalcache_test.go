package prog

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// runPair runs the same (workload, config) once without a cache and once
// with the given cache, and requires the two results to be deeply equal —
// outputs, op trace, event trace, and every accumulated time.
func runPair(t *testing.T, sys *hw.System, w *Workload, set InputSet, cfg *Config, cache *EvalCache) *Result {
	t.Helper()
	plain, err := Run(sys, w, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunWithCache(sys, w, set, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cached result differs from plain run (cfg=%+v)", cfg)
	}
	return cached
}

func TestEvalCacheIdenticalResults(t *testing.T) {
	w := testWorkload(256)
	sys := hw.System1()
	cache := NewEvalCache()

	// A sequence of configurations sharing most of their ops, like a
	// search would produce. Every one must match its uncached twin.
	single := NewConfig(w, precision.Single)
	onlyB := Baseline(w)
	onlyB.Objects["b"] = ObjectConfig{Target: precision.Single,
		Plans: []convert.Plan{{Host: convert.MethodLoop, Mid: precision.Single}}}
	for _, cfg := range []*Config{nil, nil, single, onlyB, NewConfig(w, precision.Half)} {
		runPair(t, sys, w, InputDefault, cfg, cache)
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected both hits and misses across the sequence, got %+v", st)
	}
	if st.OpsSkipped != st.Hits {
		t.Errorf("OpsSkipped = %d, want %d", st.OpsSkipped, st.Hits)
	}
}

func TestEvalCacheHitStats(t *testing.T) {
	w := testWorkload(64) // 5 ops: write a, write b, mul, add, read c
	sys := hw.System1()
	cache := NewEvalCache()
	if _, err := RunWithCache(sys, w, InputDefault, nil, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 5 {
		t.Fatalf("first run stats = %+v, want 0 hits / 5 misses", st)
	}
	if _, err := RunWithCache(sys, w, InputDefault, nil, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 5 || st.Misses != 5 {
		t.Fatalf("second run stats = %+v, want 5 hits / 5 misses", st)
	}
}

// TestEvalCachePartialInvalidation changes only object b between trials
// and checks that exactly the ops the dependency index predicts re-run:
// the write of a is untouched, everything downstream of b misses.
func TestEvalCachePartialInvalidation(t *testing.T) {
	w := testWorkload(64)
	sys := hw.System1()
	cache := NewEvalCache()
	base, err := RunWithCache(sys, w, InputDefault, nil, cache)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Baseline(w)
	cfg.Objects["b"] = ObjectConfig{Target: precision.Single,
		Plans: []convert.Plan{{Host: convert.MethodLoop, Mid: precision.Single}}}
	before := cache.Stats()
	runPair(t, sys, w, InputDefault, cfg, cache)
	delta := cache.Stats()
	hits, misses := delta.Hits-before.Hits, delta.Misses-before.Misses

	affected := BuildDependencyIndex(w, base.Ops).AffectedOps("b")
	if want := len(base.Ops) - len(affected); int(hits) != want {
		t.Errorf("hits = %d, want %d (ops outside AffectedOps(b) = %v)", hits, want, affected)
	}
	if want := len(affected); int(misses) != want {
		t.Errorf("misses = %d, want %d (AffectedOps(b) = %v)", misses, want, affected)
	}
}

func TestDependencyIndex(t *testing.T) {
	w := testWorkload(32)
	res, err := Run(hw.System1(), w, InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Op order: 0 write a, 1 write b, 2 mul(a,b,tmp), 3 add(tmp,a,c), 4 read c.
	d := BuildDependencyIndex(w, res.Ops)
	for obj, want := range map[string][]int{
		"a":   {0, 2, 3, 4},
		"b":   {1, 2, 3, 4},
		"tmp": {2, 3, 4},
		"c":   {3, 4},
	} {
		if got := d.AffectedOps(obj); !reflect.DeepEqual(got, want) {
			t.Errorf("AffectedOps(%s) = %v, want %v", obj, got, want)
		}
	}
}

// aliasWorkload builds a script that writes into one of its own input
// buffers mid-run (add(tmp, a, a)), so later ops must observe the new
// content version of a, not the cached pre-kernel one.
func aliasWorkload(n int) *Workload {
	w := testWorkload(n)
	w.Name = "aliaswl"
	w.Script = func(x *Exec) error {
		if err := x.Write("a"); err != nil {
			return err
		}
		if err := x.Write("b"); err != nil {
			return err
		}
		if err := x.Launch("mul", [2]int{n, 1}, []string{"a", "b", "tmp"}); err != nil {
			return err
		}
		// Write-after-launch aliasing: a is both input and output.
		if err := x.Launch("add", [2]int{n, 1}, []string{"tmp", "a", "a"}); err != nil {
			return err
		}
		// Re-launching mul now must NOT reuse the first mul's entry.
		if err := x.Launch("mul", [2]int{n, 1}, []string{"a", "b", "tmp"}); err != nil {
			return err
		}
		if err := x.Launch("add", [2]int{n, 1}, []string{"tmp", "a", "c"}); err != nil {
			return err
		}
		return x.Read("c")
	}
	return w
}

func TestEvalCacheAliasedWriteAfterLaunch(t *testing.T) {
	w := aliasWorkload(64)
	sys := hw.System2()
	cache := NewEvalCache()
	runPair(t, sys, w, InputDefault, nil, cache)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 7 {
		t.Fatalf("first run stats = %+v, want 0 hits / 7 misses (the two mul launches must key differently)", st)
	}
	runPair(t, sys, w, InputDefault, nil, cache)
	if st := cache.Stats(); st.Hits != 7 {
		t.Fatalf("second run stats = %+v, want 7 hits", st)
	}
}

func TestEvalCacheTransientIntermediate(t *testing.T) {
	// A transient conversion plan (Mid narrower than storage) creates
	// intermediate wire buffers inside the transfer; those are op-local
	// and must replay bit-identically.
	n := 1 << 10
	w := testWorkload(n)
	sys := hw.System1()
	cfg := NewConfig(w, precision.Single)
	cfg.Objects["a"] = ObjectConfig{Target: precision.Single,
		Plans: []convert.Plan{{Host: convert.MethodMT, Threads: sys.CPU.Threads, Mid: precision.Half}}}
	cache := NewEvalCache()
	runPair(t, sys, w, InputDefault, cfg, cache)
	runPair(t, sys, w, InputDefault, cfg, cache)
	if st := cache.Stats(); st.Hits != 5 || st.Misses != 5 {
		t.Fatalf("stats = %+v, want 5 hits / 5 misses", st)
	}
}

func TestEvalCacheJitterBypass(t *testing.T) {
	w := testWorkload(64)
	jittered := func() *hw.System {
		sys := hw.System1().Clone()
		sys.TimingJitter = 0.05
		sys.JitterSeed = 7
		return sys
	}
	cache := NewEvalCache()
	res, err := RunWithCache(jittered(), w, InputDefault, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(jittered(), w, InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != plain.Total {
		t.Errorf("jittered cached run total %v != plain %v", res.Total, plain.Total)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("jittered runs must bypass the cache entirely, stats = %+v", st)
	}
}

func TestEvalCacheBindMismatch(t *testing.T) {
	w := testWorkload(16)
	cache := NewEvalCache()
	if _, err := RunWithCache(hw.System1(), w, InputDefault, nil, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithCache(hw.System2(), w, InputDefault, nil, cache); err == nil ||
		!strings.Contains(err.Error(), "bound") {
		t.Errorf("reuse across systems should fail bind, got %v", err)
	}
	w2 := testWorkload(16)
	w2.Name = "otherwl"
	if _, err := RunWithCache(hw.System1(), w2, InputDefault, nil, cache); err == nil ||
		!strings.Contains(err.Error(), "bound") {
		t.Errorf("reuse across workloads should fail bind, got %v", err)
	}
}

func TestEvalCacheMemoryLimit(t *testing.T) {
	w := testWorkload(64)
	sys := hw.System1()
	cache := NewEvalCache()
	cache.SetMemoryLimit(1) // nothing fits: every op stays a miss
	runPair(t, sys, w, InputDefault, nil, cache)
	runPair(t, sys, w, InputDefault, nil, cache)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 10 {
		t.Fatalf("stats = %+v, want 0 hits / 10 misses under a 1-byte budget", st)
	}
}

func TestWrittenParams(t *testing.T) {
	w := testWorkload(8)
	got := w.Kernels["mul"].WrittenParams()
	want := []bool{false, false, true} // mul(a, b, tmp) writes only tmp
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WrittenParams(mul) = %v, want %v", got, want)
	}
}

func TestQualityNamedMatchesQuality(t *testing.T) {
	w := testWorkload(128)
	sys := hw.System1()
	ref, err := Run(sys, w, InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*Config{nil, NewConfig(w, precision.Single), NewConfig(w, precision.Half)} {
		res, err := Run(sys, w, InputDefault, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q1 := Quality(ref, res)
		q2 := QualityNamed(SortedOutputNames(ref), ref, res)
		if q1 != q2 {
			t.Errorf("QualityNamed = %v, Quality = %v (must be bit-equal)", q2, q1)
		}
	}
	// Missing output still compares against zeros.
	empty := &Result{Outputs: map[string]*precision.Array{}}
	if q := QualityNamed(SortedOutputNames(ref), ref, empty); q != Quality(ref, empty) {
		t.Error("QualityNamed must match Quality for missing outputs")
	}
}

// bufCollector records every device buffer a run creates, replayed ones
// included.
type bufCollector struct{ bufs []*ocl.Buffer }

func (c *bufCollector) BufferCreated(b *ocl.Buffer) { c.bufs = append(c.bufs, b) }
func (c *bufCollector) EventRecorded(ocl.Event)     {}

// TestEvalCacheIsolatedFromWrites writes NaN through Data into every
// output and every live device buffer of a cached run, then reruns from
// the same cache: the rerun must still equal a plain run. The cache's
// snapshots share storage with those arrays, so this fails if any
// mutator writes shared storage without forking it.
func TestEvalCacheIsolatedFromWrites(t *testing.T) {
	sys := hw.System1()
	// The reference walker stores through Set, the batch engine through
	// Data.
	for _, w := range []*Workload{testWorkload(256), aliasWorkload(256), onReference(aliasWorkload(256))} {
		cache := NewEvalCache()
		for _, cfg := range append(engineConfigs(w), nil) {
			for round := 0; round < 2; round++ {
				var live bufCollector
				res, err := RunWithCache(sys, w, InputDefault, cfg, cache, &live)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range res.Outputs {
					poison(a.Data())
				}
				for _, b := range live.bufs {
					poison(b.Array().Data())
				}
			}
			runPair(t, sys, w, InputDefault, cfg, cache)
		}
		if st := cache.Stats(); st.Hits == 0 {
			t.Fatalf("%s: reruns never hit the cache: %+v", w.Name, st)
		}
	}
}

// callRecorder records every runtime callback of a run in order: a
// bufCall per created buffer and the ocl.Event of every recorded event.
type callRecorder struct{ calls []any }

type bufCall struct {
	id   int
	name string
	elem precision.Type
	n    int
}

func (r *callRecorder) BufferCreated(b *ocl.Buffer) {
	r.calls = append(r.calls, bufCall{b.ID(), b.Name(), b.Elem(), b.Len()})
}
func (r *callRecorder) EventRecorded(e ocl.Event) { r.calls = append(r.calls, e) }

// TestRunMemoHitIsLiveRun reruns every configuration on one cache, so the
// rerun replays the memoized run without running an op. The replay must
// look like a live run: its Result equals a plain Run's, its hooks see the
// first run's callbacks in the same order, and the stats count one hit
// per op, as splicing every op would.
func TestRunMemoHitIsLiveRun(t *testing.T) {
	sys := hw.System1()
	if (*EvalCache)(nil).Holds(InputDefault, nil) || NewEvalCache().Holds(InputDefault, nil) {
		t.Fatal("a nil or unbound cache holds a run")
	}
	for _, w := range []*Workload{testWorkload(256), aliasWorkload(256)} {
		cache := NewEvalCache()
		for _, cfg := range engineConfigs(w) {
			var first, again callRecorder
			if _, err := RunWithCache(sys, w, InputDefault, cfg, cache, &first); err != nil {
				t.Fatal(err)
			}
			if !cache.Holds(InputDefault, cfg) {
				t.Fatalf("%s: the cache does not hold the run it just recorded", w.Name)
			}
			before := cache.Stats()
			res, err := RunWithCache(sys, w, InputDefault, cfg, cache, &again)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Run(sys, w, InputDefault, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, plain) {
				t.Errorf("%s: replayed result differs from a plain run", w.Name)
			}
			if !reflect.DeepEqual(again.calls, first.calls) {
				t.Errorf("%s: replay made %d callbacks, the first run %d, or in another order",
					w.Name, len(again.calls), len(first.calls))
			}
			after := cache.Stats()
			if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != int64(len(plain.Ops)) || misses != 0 {
				t.Errorf("%s: replay counted %d hits and %d misses, want %d and 0", w.Name, hits, misses, len(plain.Ops))
			}
		}
	}
}

func poison(d []float64) {
	for i := range d {
		d[i] = math.NaN()
	}
}

// TestWarmTrialSharesSnapshots pins the copy-on-write gain: a fully
// warmed cached trial splices every op by sharing its snapshots, so it
// allocates less than one object's element storage per run.
func TestWarmTrialSharesSnapshots(t *testing.T) {
	const n = 1 << 12
	w := testWorkload(n)
	sys := hw.System1()
	cache := NewEvalCache()
	if _, err := RunWithCache(sys, w, InputDefault, nil, cache); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := RunWithCache(sys, w, InputDefault, nil, cache); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(n * 8); perRun >= limit {
		t.Errorf("warm cached trial allocates %d B per run, want < %d B (one object's elements)", perRun, limit)
	}
}

var benchSink *Result

func BenchmarkProgRun(b *testing.B) {
	w := testWorkload(1 << 12)
	sys := hw.System1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(sys, w, InputDefault, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

// BenchmarkTrialIncremental reruns a configuration the cache holds, as a
// warm search does: each iteration replays the memoized run without
// running or splicing an op.
func BenchmarkTrialIncremental(b *testing.B) {
	w := testWorkload(1 << 12)
	sys := hw.System1()
	cache := NewEvalCache()
	if _, err := RunWithCache(sys, w, InputDefault, nil, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunWithCache(sys, w, InputDefault, nil, cache)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

var qualitySink float64

func BenchmarkQuality(b *testing.B) {
	w := testWorkload(1 << 14)
	sys := hw.System1()
	ref, err := Run(sys, w, InputDefault, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(sys, w, InputDefault, NewConfig(w, precision.Single))
	if err != nil {
		b.Fatal(err)
	}
	names := SortedOutputNames(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qualitySink = QualityNamed(names, ref, res)
	}
}

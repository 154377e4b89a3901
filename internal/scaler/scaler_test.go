package scaler

import (
	"context"
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/inspect"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/wltest"
)

var dbCache = map[string]*inspect.DB{}

// configKey is the canonical key of c among w's configurations.
func configKey(w *prog.Workload, c *prog.Config) string {
	return prog.NewConfigKeyer(w).Key(c)
}

func dbFor(sys *hw.System) *inspect.DB {
	if db, ok := dbCache[sys.Name]; ok {
		return db
	}
	db := inspect.InspectSizes(sys, []int{256, 4096, 65536, 1 << 20, 1 << 23})
	dbCache[sys.Name] = db
	return db
}

func TestSearchMeetsTOQ(t *testing.T) {
	sys := hw.System1()
	w := wltest.VecCombine(1 << 16)
	s := New(sys, dbFor(sys), w, DefaultOptions())
	res, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.90 {
		t.Errorf("final quality %v below TOQ", res.Quality)
	}
	if res.Speedup <= 0 {
		t.Errorf("speedup = %v", res.Speedup)
	}
	if res.Final.Total > res.BaselineTime {
		t.Errorf("PreScaler result (%v) must never be slower than baseline (%v)", res.Final.Total, res.BaselineTime)
	}
	if res.Trials < 2 {
		t.Errorf("trials = %d, expected at least profile + one uniform", res.Trials)
	}
}

func TestSearchAvoidsHalfWhenItOverflows(t *testing.T) {
	sys := hw.System2()
	w := wltest.HalfHostile(1 << 15)
	s := New(sys, dbFor(sys), w, DefaultOptions())
	res, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.90 {
		t.Fatalf("quality %v below TOQ", res.Quality)
	}
	// The output object c holds squared values ~1e6: half must not be its
	// storage type.
	if res.Config.Objects["c"].Target == precision.Half {
		t.Error("output object scaled to half despite overflow")
	}
}

func TestSearchPrefersLowPrecisionWhenSafe(t *testing.T) {
	// Large transfer-bound workload with tiny values: system 2 (good FP16)
	// should scale most objects below double.
	sys := hw.System2()
	w := wltest.VecCombine(1 << 18)
	s := New(sys, dbFor(sys), w, DefaultOptions())
	res, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Config.TypeDist()
	if dist[precision.Double] == len(w.Objects) {
		t.Error("no object was scaled at all on a friendly workload")
	}
	if res.Speedup <= 1 {
		t.Errorf("speedup = %v, want > 1 on transfer-bound workload", res.Speedup)
	}
}

func TestSystem1AvoidsHalfCompute(t *testing.T) {
	if testing.Short() {
		t.Skip("searches a 2000-iteration compute-heavy workload")
	}
	// Capability 6.1 executes FP16 arithmetic at 2 results/cycle/SM; a
	// compute-bound kernel must not end with half storage (which implies
	// half arithmetic).
	sys := hw.System1()
	w := wltest.ComputeHeavy(1<<12, 2000)
	s := New(sys, dbFor(sys), w, DefaultOptions())
	res, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, oc := range res.Config.Objects {
		if oc.Target == precision.Half {
			t.Errorf("object %s scaled to half on capability 6.1 compute-bound kernel", name)
		}
	}
	// The same workload on system 2 (FP16 at 128/cycle) may use half; at
	// minimum it must not be slower than system 1's relative outcome.
	s2 := New(hw.System2(), dbFor(hw.System2()), w, DefaultOptions())
	res2, err := s2.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Quality < 0.90 {
		t.Errorf("system2 quality %v", res2.Quality)
	}
}

func TestSearchSpaceEquations(t *testing.T) {
	sys := hw.System1()
	w := wltest.VecCombine(4096)
	s := New(sys, dbFor(sys), w, DefaultOptions())
	res, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 4 objects: a (1 event), b (1 event), tmp (0 events), c (1 event).
	// Eq 1: (1+2*4)^3 * (1+2*1) = 9^3 * 3 = 2187.
	if res.SearchSpace != 2187 {
		t.Errorf("Eq1 = %v, want 2187", res.SearchSpace)
	}
	// Eq 2: 3*(1+2*4) + (1+2*1) = 27 + 3 = 30.
	if res.TreeSpace != 30 {
		t.Errorf("Eq2 = %v, want 30", res.TreeSpace)
	}
	// Eq 3: 4 * (1+2) = 12.
	if res.PredictedSpace != 12 {
		t.Errorf("Eq3 = %v, want 12", res.PredictedSpace)
	}
	// PreScaler must actually execute far fewer trials than Eq 1.
	if float64(res.Trials) >= res.SearchSpace {
		t.Errorf("trials %d should be far below entire space %v", res.Trials, res.SearchSpace)
	}
}

func TestTrialsBoundedByTree(t *testing.T) {
	// The number of executions is O(Eq 3): profile + uniforms + per-object
	// type walk + occasional wildcard validations.
	sys := hw.System3()
	w := wltest.VecCombine(1 << 14)
	s := New(sys, dbFor(sys), w, DefaultOptions())
	res, err := s.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bound := int(res.PredictedSpace) + len(w.Objects) + 4
	if res.Trials > bound {
		t.Errorf("trials %d exceed bound %d", res.Trials, bound)
	}
}

func TestHigherTOQNeverLowersQuality(t *testing.T) {
	sys := hw.System1()
	w := wltest.HalfHostile(1 << 14)
	for _, toq := range []float64{0.90, 0.95, 0.99} {
		s := New(sys, dbFor(sys), w, Options{TOQ: toq, InputSet: prog.InputDefault})
		res, err := s.Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Quality < toq {
			t.Errorf("TOQ %v: final quality %v", toq, res.Quality)
		}
	}
}

func TestLowerBandwidthScalesMore(t *testing.T) {
	if testing.Short() {
		t.Skip("searches a 256k-element workload on two systems")
	}
	// Figure 11: at x8 the transfer fraction grows, so at least as many
	// objects should be scaled to lower precision as at x16.
	w := wltest.VecCombine(1 << 18)
	run := func(sys *hw.System) (int, float64) {
		s := New(sys, dbFor(sys), w, DefaultOptions())
		res, err := s.Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		lowered := 0
		for _, oc := range res.Config.Objects {
			if oc.Target != precision.Double {
				lowered++
			}
		}
		return lowered, res.Speedup
	}
	lx16, _ := run(hw.System1())
	lx8, sx8 := run(hw.System1x8())
	if lx8 < lx16 {
		t.Errorf("x8 lowered %d objects, x16 lowered %d: expected at least as many", lx8, lx16)
	}
	if sx8 <= 1 {
		t.Errorf("x8 speedup = %v", sx8)
	}
}

func TestDeterministicSearch(t *testing.T) {
	sys := hw.System1()
	w := wltest.VecCombine(1 << 14)
	r1, err := New(sys, dbFor(sys), w, DefaultOptions()).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(sys, dbFor(sys), w, DefaultOptions()).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trials != r2.Trials || r1.Final.Total != r2.Final.Total || r1.Quality != r2.Quality {
		t.Error("search must be deterministic")
	}
	if configKey(w, r1.Config) != configKey(w, r2.Config) {
		t.Error("chosen configs differ between runs")
	}
}

func TestTypeAndConvDists(t *testing.T) {
	sys := hw.System2()
	w := wltest.VecCombine(1 << 16)
	res, err := New(sys, dbFor(sys), w, DefaultOptions()).Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Config.TypeDist()
	total := 0
	for _, n := range dist {
		total += n
	}
	if total != len(w.Objects) {
		t.Errorf("type dist covers %d objects, want %d", total, len(w.Objects))
	}
	conv := res.Config.ConvDist(w)
	events := 0
	for _, n := range conv {
		events += n
	}
	if events != 3 { // a, b writes + c read
		t.Errorf("conv dist covers %d events, want 3", events)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.TOQ != 0.90 || o.InputSet != prog.InputDefault {
		t.Errorf("defaults: %+v", o)
	}
	s := New(hw.System1(), dbFor(hw.System1()), wltest.VecCombine(16), Options{})
	if s.opts.TOQ != 0.90 {
		t.Error("zero TOQ should default to 0.90")
	}
}

func TestConfigKeyCanonical(t *testing.T) {
	w := wltest.VecCombine(16)
	a := prog.NewConfig(w, precision.Single)
	b := prog.NewConfig(w, precision.Single)
	if configKey(w, a) != configKey(w, b) {
		t.Error("identical configs must share a key")
	}
	oc := b.Objects["a"]
	oc.Target = precision.Half
	b.Objects["a"] = oc
	if configKey(w, a) == configKey(w, b) {
		t.Error("different configs must differ in key")
	}
}

func TestMeasuredObjTransfer(t *testing.T) {
	sys := hw.System1()
	w := wltest.VecCombine(4096)
	res, err := prog.Run(sys, w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := measuredObjTransfer(res, "a") + measuredObjTransfer(res, "b") + measuredObjTransfer(res, "c")
	if math.Abs(got-res.TransferTime()) > 1e-15 {
		t.Errorf("per-object transfer sum %v != total %v", got, res.TransferTime())
	}
	if measuredObjTransfer(res, "tmp") != 0 {
		t.Error("temp object has no transfers")
	}
}

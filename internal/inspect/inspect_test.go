package inspect

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/ocl"
	"repro/internal/precision"
)

func smallDB(t *testing.T) *DB {
	t.Helper()
	return InspectSizes(hw.System1(), []int{256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22})
}

func TestInspectProducesCurves(t *testing.T) {
	db := smallDB(t)
	if db.NumCurves() == 0 {
		t.Fatal("no curves measured")
	}
	if db.System().Name != "system1" {
		t.Error("system binding")
	}
	if len(db.Sizes()) != 8 {
		t.Error("size grid")
	}
}

func TestEstimateMatchesEstimatorOnGrid(t *testing.T) {
	db := smallDB(t)
	sys := hw.System1()
	plan := convert.Plan{Host: convert.MethodMT, Threads: sys.CPU.Threads, Mid: precision.Single}
	for _, n := range db.Sizes() {
		want := convert.EstimateHtoD(sys, n, precision.Double, precision.Single, plan)
		got := db.Estimate(ocl.DirHtoD, n, precision.Double, precision.Single, plan)
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("n=%d: db %v != estimator %v", n, got, want)
		}
	}
}

func TestEstimateInterpolation(t *testing.T) {
	db := smallDB(t)
	plan := convert.Direct(precision.Double)
	// Between grid points the estimate must lie between the endpoints.
	lo := db.Estimate(ocl.DirHtoD, 1024, precision.Double, precision.Double, plan)
	hi := db.Estimate(ocl.DirHtoD, 4096, precision.Double, precision.Double, plan)
	mid := db.Estimate(ocl.DirHtoD, 2048, precision.Double, precision.Double, plan)
	if mid < lo || mid > hi {
		t.Errorf("interpolated %v outside [%v, %v]", mid, lo, hi)
	}
	// Below the grid: flat extrapolation.
	if got := db.Estimate(ocl.DirHtoD, 1, precision.Double, precision.Double, plan); got != db.Estimate(ocl.DirHtoD, 256, precision.Double, precision.Double, plan) {
		t.Errorf("below-grid extrapolation: %v", got)
	}
	// Above the grid: linear growth.
	top := db.Estimate(ocl.DirHtoD, 1<<22, precision.Double, precision.Double, plan)
	above := db.Estimate(ocl.DirHtoD, 1<<23, precision.Double, precision.Double, plan)
	if above <= top {
		t.Errorf("above-grid extrapolation should grow: %v <= %v", above, top)
	}
}

func TestEstimateUnknownPlanOnDemand(t *testing.T) {
	db := smallDB(t)
	// A thread count not in the candidate enumeration.
	plan := convert.Plan{Host: convert.MethodMT, Threads: 3, Mid: precision.Half}
	got := db.Estimate(ocl.DirDtoH, 1024, precision.Double, precision.Half, plan)
	want := convert.EstimateDtoH(hw.System1(), 1024, precision.Half, precision.Double, plan)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("on-demand curve: %v != %v", got, want)
	}
}

func TestBestPlanBeatsAllCandidates(t *testing.T) {
	db := smallDB(t)
	sys := hw.System1()
	mids := precision.All
	for _, n := range []int{256, 65536, 1 << 22} {
		best, bestT := db.BestPlan(ocl.DirHtoD, n, precision.Double, precision.Single, mids)
		if err := best.Validate(precision.Double); err != nil {
			t.Fatalf("best plan invalid: %v", err)
		}
		for _, p := range convert.CandidatePlans(&sys.CPU, precision.Double, precision.Single, mids) {
			if tt := db.Estimate(ocl.DirHtoD, n, precision.Double, precision.Single, p); tt < bestT-1e-15 {
				t.Errorf("n=%d: plan %+v (%v) beats chosen best (%v)", n, p, tt, bestT)
			}
		}
	}
}

func TestBestPlanSizeDependence(t *testing.T) {
	// The Fig. 5 story: the best method changes with size. At the small
	// end multithreading cannot win.
	db := smallDB(t)
	small, _ := db.BestPlan(ocl.DirHtoD, 256, precision.Double, precision.Single, precision.All)
	if small.Host == convert.MethodMT || small.Host == convert.MethodPipelined {
		t.Errorf("small-size best plan should not be parallel: %+v", small)
	}
	large, _ := db.BestPlan(ocl.DirHtoD, 1<<22, precision.Double, precision.Single, precision.All)
	if large.Host == convert.MethodLoop {
		t.Errorf("large-size best plan should not be the scalar loop: %+v", large)
	}
}

func TestBestPlanDirectWhenNoConversion(t *testing.T) {
	db := smallDB(t)
	best, _ := db.BestPlan(ocl.DirHtoD, 65536, precision.Double, precision.Double, []precision.Type{precision.Double})
	if best.Host != convert.MethodNone || best.Mid != precision.Double {
		t.Errorf("identity transfer best plan: %+v", best)
	}
}

func TestBestPlanEmptyMidsFallback(t *testing.T) {
	db := smallDB(t)
	best, tt := db.BestPlan(ocl.DirHtoD, 1024, precision.Double, precision.Single, nil)
	if best.Mid != precision.Double || tt <= 0 {
		t.Errorf("fallback plan: %+v (%v)", best, tt)
	}
}

func TestCurve(t *testing.T) {
	db := smallDB(t)
	c := db.Curve(ocl.DirHtoD, precision.Double, precision.Single, convert.Plan{Host: convert.MethodLoop, Mid: precision.Single})
	if len(c) != len(db.Sizes()) {
		t.Fatal("curve length")
	}
	for i := 1; i < len(c); i++ {
		if c[i].Time < c[i-1].Time {
			t.Errorf("curve must be nondecreasing: %v then %v", c[i-1], c[i])
		}
	}
}

func TestPropertyEstimateMonotonicInSize(t *testing.T) {
	db := smallDB(t)
	plan := convert.Plan{Host: convert.MethodPipelined, Threads: 20, Mid: precision.Half}
	f := func(a, b uint32) bool {
		x, y := int(a%(1<<23))+1, int(b%(1<<23))+1
		if x > y {
			x, y = y, x
		}
		tx := db.Estimate(ocl.DirHtoD, x, precision.Double, precision.Half, plan)
		ty := db.Estimate(ocl.DirHtoD, y, precision.Double, precision.Half, plan)
		return tx <= ty+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := smallDB(t)
	data, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(hw.System1(), data)
	if err != nil {
		t.Fatal(err)
	}
	plan := convert.Plan{Host: convert.MethodMT, Threads: 20, Mid: precision.Single}
	for _, n := range []int{256, 5000, 1 << 21} {
		a := db.Estimate(ocl.DirHtoD, n, precision.Double, precision.Single, plan)
		b := loaded.Estimate(ocl.DirHtoD, n, precision.Double, precision.Single, plan)
		if a != b {
			t.Errorf("n=%d: loaded %v != original %v", n, b, a)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	db := smallDB(t)
	data, _ := db.MarshalJSON()
	if _, err := Load(hw.System2(), data); err == nil {
		t.Error("wrong system should fail")
	}
	if _, err := Load(hw.System1(), []byte("{")); err == nil {
		t.Error("corrupt JSON should fail")
	}
	if _, err := Load(hw.System1(), []byte(`{"system":"system1","sizes":[]}`)); err == nil {
		t.Error("empty grid should fail")
	}
	if _, err := Load(hw.System1(), []byte(`{"system":"system1","sizes":[1,2],"curves":[{"times":[1]}]}`)); err == nil {
		t.Error("curve/grid mismatch should fail")
	}
	// Interpolation needs a final segment and a sorted grid: each of
	// these loaded before and then panicked or flattened in Estimate.
	for _, sizes := range []string{"[1024]", "[4096,1024,1024]", "[1024,1024,4096]", "[1024,512]", "[0,1024]", "[-4,1024]"} {
		if _, err := Load(hw.System1(), []byte(`{"system":"system1","sizes":`+sizes+`}`)); err == nil {
			t.Errorf("size grid %s should fail", sizes)
		}
	}
}

func TestBestPlanWiresAtNarrowTypeDtoH(t *testing.T) {
	// Reading a half buffer back to a double host array: at large sizes
	// the wire type should be half (transfer 2 bytes/elem, convert on the
	// host) rather than widening on the device and moving 8 bytes/elem.
	db := smallDB(t)
	best, _ := db.BestPlan(ocl.DirDtoH, 1<<22, precision.Double, precision.Half, precision.All)
	if best.Mid != precision.Half {
		t.Errorf("DtoH wire type = %v, want Half (plan %+v)", best.Mid, best)
	}
}

func TestBestPlanDirectionsDiffer(t *testing.T) {
	// HtoD and DtoH of the same endpoints are separate measurements; both
	// must be answerable and positive.
	db := smallDB(t)
	for _, dir := range []ocl.Dir{ocl.DirHtoD, ocl.DirDtoH} {
		_, tt := db.BestPlan(dir, 65536, precision.Double, precision.Single, precision.All)
		if tt <= 0 {
			t.Errorf("dir %v: nonpositive best time", dir)
		}
	}
}

package inspect

import (
	"bytes"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// TestEstimateConcurrent shares one database between many goroutines,
// including plans outside the probed grid (thread counts the inspector
// never probes), which are measured on every call. Run under -race by
// the CI race job.
func TestEstimateConcurrent(t *testing.T) {
	sys := hw.System1()
	db := InspectSizes(sys, []int{256, 1024, 4096})

	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Unprobed thread counts are measured, never stored.
				plan := convert.Plan{Host: convert.MethodMT, Threads: 3 + i%5, Mid: precision.Single}
				v := db.Estimate(ocl.DirHtoD, 1000+i, precision.Double, precision.Single, plan)
				if i < 8 {
					results[w] = append(results[w], v)
				}
				db.BestPlan(ocl.DirDtoH, 2048, precision.Double, precision.Half,
					[]precision.Type{precision.Double, precision.Single, precision.Half})
			}
		}()
	}
	wg.Wait()

	// Every worker must observe identical estimates.
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d estimate %d = %v, worker 0 got %v", w, i, results[w][i], results[0][i])
			}
		}
	}
}

// TestEstimateLeavesDBUnchanged checks that reads never mutate the
// database: estimates of a plan the inspector never probed repeat
// exactly and leave the curve count, the serialized bytes and the hash
// as they were.
func TestEstimateLeavesDBUnchanged(t *testing.T) {
	sys := hw.System1()
	db := InspectSizes(sys, []int{256, 1024, 4096})
	n0 := db.NumCurves()
	data0, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum0 := db.Hash().Sum64()
	h := fnv.New64a()
	h.Write(data0)
	if h.Sum64() != sum0 {
		t.Fatalf("Hash() = %016x, fnv64a(MarshalJSON) = %016x", sum0, h.Sum64())
	}

	plan := convert.Plan{Host: convert.MethodMT, Threads: 7, Mid: precision.Single}
	first := db.Estimate(ocl.DirHtoD, 512, precision.Double, precision.Single, plan)
	for i := 0; i < 3; i++ {
		if got := db.Estimate(ocl.DirHtoD, 512, precision.Double, precision.Single, plan); got != first {
			t.Fatalf("repeat %d: estimate %v, first %v", i, got, first)
		}
	}
	db.Estimate(ocl.DirDtoH, 512, precision.Double, precision.Single, convert.Plan{Host: convert.MethodMT, Threads: 9, Mid: precision.Single})
	db.Curve(ocl.DirHtoD, precision.Double, precision.Single, plan)
	db.Hash().Write([]byte("more fields")) // each hasher is private

	if db.NumCurves() != n0 {
		t.Errorf("NumCurves grew from %d to %d", n0, db.NumCurves())
	}
	data1, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data0) {
		t.Error("MarshalJSON bytes changed after estimates")
	}
	if got := db.Hash().Sum64(); got != sum0 {
		t.Errorf("Hash().Sum64() = %016x after estimates, want %016x", got, sum0)
	}
	loaded, err := Load(sys, data0)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Hash().Sum64(); got != sum0 {
		t.Errorf("loaded Hash().Sum64() = %016x, want %016x", got, sum0)
	}
}

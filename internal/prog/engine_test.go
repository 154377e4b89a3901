package prog

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/precision"
)

// onReference returns a copy of w whose kernels run on their Reference
// twins (wltest.OnReference, which this package's tests cannot import).
func onReference(w *Workload) *Workload {
	cp := *w
	cp.Kernels = map[string]*kir.Program{}
	for name, p := range w.Kernels {
		cp.Kernels[name] = p.Reference()
	}
	return &cp
}

// requireSameResult asserts two Results are observationally identical,
// comparing output buffers bit-for-bit (NaN payloads included) and
// everything else deeply.
func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	for name, ao := range a.Outputs {
		bo, ok := b.Outputs[name]
		if !ok {
			t.Fatalf("%s: output %s missing", label, name)
		}
		ad, bd := ao.Data(), bo.Data()
		for i := range ad {
			if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
				t.Fatalf("%s: output %s[%d]: %x vs %x", label, name, i,
					math.Float64bits(ad[i]), math.Float64bits(bd[i]))
			}
		}
	}
	ax, bx := *a, *b
	ax.Outputs, bx.Outputs = nil, nil
	if !reflect.DeepEqual(ax, bx) {
		t.Fatalf("%s: results differ beyond outputs:\n%+v\nvs\n%+v", label, ax, bx)
	}
}

// engineConfigs enumerates scaling configurations covering both scaling
// modes at each precision.
func engineConfigs(w *Workload) []*Config {
	var out []*Config
	for _, target := range precision.All {
		out = append(out, NewConfig(w, target))
		ik := NewConfig(w, target)
		for name, oc := range ik.Objects {
			oc.InKernel = true
			ik.Objects[name] = oc
		}
		out = append(out, ik)
	}
	return out
}

// TestEngineResultIdentity runs the same (workload, config) on the batch
// engine and on the Reference tree walker and requires identical Results
// — outputs, traces, event accounting, and simulated times.
func TestEngineResultIdentity(t *testing.T) {
	sys := hw.System1()
	w := testWorkload(1 << 10)
	ref := onReference(w)
	for _, cfg := range engineConfigs(w) {
		tree, err := Run(sys, ref, InputDefault, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Run(sys, w, InputDefault, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "tree-vs-batch", tree, batch)
	}
}

// TestEngineEvalCacheCrossReplay proves cache entries are engine-neutral:
// trials cached under one engine must replay byte-identically under the
// other, in both directions, and both must match uncached execution.
func TestEngineEvalCacheCrossReplay(t *testing.T) {
	sys := hw.System1()
	w := testWorkload(1 << 10)
	ref := onReference(w)
	dirs := []struct {
		name       string
		warm, read *Workload
	}{
		{"tree-warms-batch-reads", ref, w},
		{"batch-warms-tree-reads", w, ref},
	}
	for _, d := range dirs {
		t.Run(d.name, func(t *testing.T) {
			cache := NewEvalCache()
			for _, cfg := range engineConfigs(w) {
				warmed, err := RunWithCache(sys, d.warm, InputDefault, cfg, cache)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := RunWithCache(sys, d.read, InputDefault, cfg, cache)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "cached-cross-engine", warmed, cached)
				plain, err := Run(sys, d.read, InputDefault, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "cached-vs-plain", plain, cached)
			}
		})
	}
}

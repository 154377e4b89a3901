package baseline

import (
	"context"
	"testing"

	"repro/internal/hw"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/wltest"
)

func TestBaselineOutcome(t *testing.T) {
	w := wltest.VecCombine(4096)
	out, err := Baseline(context.Background(), hw.System1(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Technique != "baseline" || out.Speedup != 1 || out.Quality != 1 || out.Trials != 1 {
		t.Errorf("baseline outcome: %+v", out)
	}
	if out.Config.Objects["a"].Target != precision.Double {
		t.Error("baseline config must be original precision")
	}
}

func TestInKernelExhaustive(t *testing.T) {
	// HalfHostile has 2 objects: 3^2 = 9 assignments fit the exhaustive
	// limit, and all are executed (the all-double one is the reference).
	w := wltest.HalfHostile(4096)
	sys := hw.System2()
	out, err := InKernel(context.Background(), sys, w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 9 {
		t.Errorf("trials = %d, want 9", out.Trials)
	}
	if out.Quality < 0.90 {
		t.Errorf("quality = %v", out.Quality)
	}
	if out.Speedup < 1 {
		t.Errorf("in-kernel speedup = %v, must never be below 1 (baseline is a candidate)", out.Speedup)
	}
	// In-kernel mode never changes buffer storage.
	for name, oc := range out.Config.Objects {
		if oc.Target != w.Original && !oc.InKernel {
			t.Errorf("object %s: scaled without InKernel flag", name)
		}
	}
}

func TestInKernelCannotHelpTransfers(t *testing.T) {
	// On a transfer-dominated workload, In-Kernel gains are tiny: the
	// transfer time is untouched.
	w := wltest.VecCombine(1 << 18)
	sys := hw.System1()
	out, err := InKernel(context.Background(), sys, w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Speedup > 1.2 {
		t.Errorf("in-kernel speedup %v suspiciously high for a data-intensive program", out.Speedup)
	}
	if out.Final.TransferTime() < out.BaselineTime/2 {
		t.Error("in-kernel scaling must leave transfers untouched on this workload")
	}
}

func TestInKernelRespectsTOQ(t *testing.T) {
	w := wltest.HalfHostile(4096)
	out, err := InKernel(context.Background(), hw.System2(), w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Quality < 0.90 {
		t.Errorf("quality = %v", out.Quality)
	}
	// c's half assignment overflows; the chosen config must avoid it.
	if oc := out.Config.Objects["c"]; oc.InKernel && oc.Target == precision.Half {
		t.Error("chosen config computes the overflowing output at half")
	}
}

func TestPFPUniform(t *testing.T) {
	w := wltest.VecCombine(1 << 16)
	sys := hw.System2()
	out, err := PFP(context.Background(), sys, w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 3 {
		t.Errorf("PFP trials = %d, want 3 (double is the reference, single, half)", out.Trials)
	}
	if out.Quality < 0.90 {
		t.Errorf("quality = %v", out.Quality)
	}
	if out.Speedup < 1 {
		t.Errorf("PFP speedup = %v", out.Speedup)
	}
	// Uniform: all objects share one target type.
	var first precision.Type
	for _, oc := range out.Config.Objects {
		if first == precision.Invalid {
			first = oc.Target
		} else if oc.Target != first {
			t.Error("PFP config must be uniform")
		}
	}
}

func TestPFPRespectsTOQ(t *testing.T) {
	w := wltest.HalfHostile(1 << 14)
	out, err := PFP(context.Background(), hw.System1(), w, prog.InputDefault, 0.90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Quality < 0.90 {
		t.Errorf("quality = %v", out.Quality)
	}
	for _, oc := range out.Config.Objects {
		if oc.Target == precision.Half {
			t.Error("PFP must reject the overflowing half configuration")
		}
	}
}

func TestPFPStrictTOQKeepsBaseline(t *testing.T) {
	// With TOQ = 1.0 nothing lossy passes; PFP must return the baseline.
	w := wltest.VecCombine(4096)
	out, err := PFP(context.Background(), hw.System1(), w, prog.InputDefault, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Speedup != 1 {
		t.Errorf("speedup = %v, want 1 under impossible TOQ", out.Speedup)
	}
}

func TestSupportedTypesFiltersByGPU(t *testing.T) {
	w := wltest.VecCombine(16)
	sys := hw.System1()
	sys.GPU.Capability = "3.0" // no FP16
	types := supportedTypes(sys, w)
	for _, typ := range types {
		if typ == precision.Half {
			t.Error("capability 3.0 must not offer half")
		}
	}
	if len(types) != 2 {
		t.Errorf("types = %v", types)
	}
}

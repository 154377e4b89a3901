package kir_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/polybench"
	"repro/internal/precision"
	"repro/internal/prog"
)

// TestSuiteStaticTapes pins the static precision proof on the whole
// PolyBench suite: under the configurations TestEngineDifferentialSuite
// runs (storage precisions, the three uniform precisions, and random
// per-object bindings in both scaling modes), no kernel launch may need
// a dyn tape.
func TestSuiteStaticTapes(t *testing.T) {
	sys := hw.System1()
	rng := rand.New(rand.NewSource(7))
	targets := []precision.Type{precision.Half, precision.Single, precision.Double}

	for _, w := range polybench.SmallSuite() {
		cfgs := []*prog.Config{nil, prog.NewConfig(w, precision.Half),
			prog.NewConfig(w, precision.Single), prog.NewConfig(w, precision.Double)}
		for trial := 0; trial < 4; trial++ {
			cfg := &prog.Config{Objects: map[string]prog.ObjectConfig{}}
			for _, o := range w.Objects {
				cfg.Objects[o.Name] = prog.ObjectConfig{
					Target:   targets[rng.Intn(len(targets))],
					InKernel: trial%2 == 1,
				}
			}
			cfgs = append(cfgs, cfg)
		}
		for i, cfg := range cfgs {
			if _, err := prog.Run(sys, w, prog.InputDefault, cfg); err != nil {
				t.Fatalf("%s cfg %d: %v", w.Name, i, err)
			}
		}
		names := make([]string, 0, len(w.Kernels))
		for name := range w.Kernels {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, tape := range w.Kernels[name].Tapes() {
				if tape.Dyn {
					t.Errorf("%s/%s: binding %v, non-empty mask %#x: dyn tape", w.Name, name, tape.Binding, tape.Mask)
				}
			}
		}
	}
}

// TestLoopUniformity pins, loop by loop in bytecode order, which loops
// the batch engine runs as uniform among their active lanes: a counted
// loop stays uniform under a gid-started loop or a boundary if, and a
// loop whose start varies among the active lanes stays divergent.
func TestLoopUniformity(t *testing.T) {
	ks := kir.DiffKernels()
	for _, c := range []struct {
		name string
		p    *kir.Program
		want []bool
	}{
		{"matmul k", kir.MustCompile(ks["matmul"]), []bool{true}},
		{"triangular j, i", kir.MustCompile(ks["triangular"]), []bool{false, true}},
		{"innerconst j, i", kir.MustCompile(ks["innerconst"]), []bool{false, true}},
		{"varstart j, i, k, m", kir.MustCompile(ks["varstart"]), []bool{false, false, false, false}},
		{"conv3d k", polybench.ThreeDConv(8).Kernels["conv3d"], []bool{true}},
	} {
		if got := c.p.LoopUniform(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: uniform = %v, want %v", c.name, got, c.want)
		}
	}
}

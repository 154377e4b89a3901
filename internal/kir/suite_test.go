package kir_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
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
// a dyn tape. It also checks every suite kernel's control tree.
func TestSuiteStaticTapes(t *testing.T) {
	sys := hw.System1()
	rng := rand.New(rand.NewSource(7))
	targets := []precision.Type{precision.Half, precision.Single, precision.Double}

	for _, w := range polybench.SmallSuite() {
		names := make([]string, 0, len(w.Kernels))
		for name := range w.Kernels {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := w.Kernels[name].CheckTree(); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
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

// TestScalarRegisters pins the scalar registers on suite kernels, by
// the shape each instruction gets: "once" runs it once per round on the
// scalar slots, "a" or "b" reads that operand from its scalar slot, and
// "" runs it lane by lane on columns. In mm2_k1 the loop counter k and
// k*nj are scalar; in atax_k1 j is scalar through the broadcast load
// x[j]; in corr_mat the gid-started j2 stays a column, while the inner
// i and i*m are scalar.
func TestScalarRegisters(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *kir.Program
		want map[string]string // instruction -> shape
	}{
		{"mm2_k1", polybench.TwoMM(8).Kernels["mm2_k1"], map[string]string{
			"imov    i6 <- i4":        "once", // k = 0
			"icmp    i7 <- (6 < 5)":   "a b",  // k < nk
			"imul    r10 <- r6, r9":   "once", // k*nj
			"iadd    r12 <- r10, r11": "a",    // k*nj + gid1
			"iadd    r8 <- r3, r6":    "b",    // gid0*nk + k
			"iaddi   i6 <- i6 + 1":    "once",
		}},
		{"atax_k1", polybench.Atax(8, 8).Kernels["atax_k1"], map[string]string{
			"load    f3 <- x[i6]":  "a", // x[j], a broadcast load
			"iaddi   i6 <- i6 + 1": "once",
		}},
		{"corr_mat", polybench.Corr(8, 8).Kernels["corr_mat"], map[string]string{
			"imov    i13 <- i11":       "", // j2 = gid0 + 1
			"icmp    i14 <- (13 < 12)": "", // a divergent head
			"iaddi   i13 <- i13 + 1":   "", // j2++
			"imul    r20 <- r17, r19":  "once",
			"iadd    r25 <- r24, r13":  "a", // i*m + j2
			"iaddi   i17 <- i17 + 1":   "once",
		}},
	} {
		got := map[string]string{}
		for _, line := range c.p.Shapes() {
			// "  20  iaddi   i6 <- i6 + 1  [once]": drop the pc, split off the shape.
			_, inst, _ := strings.Cut(strings.TrimSpace(line), "  ")
			inst, shape, _ := strings.Cut(inst, "  [")
			if _, ok := c.want[inst]; ok {
				got[inst] = strings.TrimSuffix(shape, "]")
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: shapes %v, want %v\n%s", c.name, got, c.want, strings.Join(c.p.Shapes(), "\n"))
		}
	}
}

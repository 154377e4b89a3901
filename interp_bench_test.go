// Interpreter benchmarks: per-kernel sub-benchmarks of the batch engine
// against the Reference tree walker over representative PolyBench
// kernels, plus a strip-size sweep. These
// isolate a single kernel launch (no transfers, no search, no cache), so
// the ratio between the /batch and /tree variants of a kernel is the
// interpreter speedup itself and is what the CI bench gate checks.
//
// Reproduce locally:
//
//	go test -run - -bench 'BenchmarkProgRun/' -benchmem .
package repro

import (
	"strconv"
	"testing"

	"repro/internal/kir"
	"repro/internal/polybench"
	"repro/internal/precision"
	"repro/internal/prog"
)

// interpBenchSpec pins one kernel launch out of a workload's script:
// the buffer arguments in kernel-parameter order, the NDRange, and the
// scalar int arguments, mirroring the workload's own x.Launch call.
type interpBenchSpec struct {
	name     string
	workload *prog.Workload
	kernel   string
	bufs     []string
	global   [2]int
	args     []int64
}

// interpBenchSpecs covers the kernel shapes that stress distinct
// interpreter paths: gemm (uniform inner loop, FMA-heavy), conv2d
// (straight-line 2D stencil), atax_k1 (1D row reduction), corr_mat
// (gid-dependent loop bound — divergent lanes), the three kernels whose
// tapes are static only because their accumulator loops are known to
// run: mm2_k1 (bare alpha*acc epilogue), covar_mat (launch-constant
// inner loop under a divergent one) and gesummv (two accumulators), and
// two boundary ifs: conv3d (a counted loop inside the if, whose 64-wide
// rows split each 256-lane strip into four runs that step one after
// another) and fdtd_step3 (one run per strip).
func interpBenchSpecs() []interpBenchSpec {
	gemm := polybench.Gemm(104)
	conv := polybench.TwoDConv(256, 256)
	atax := polybench.Atax(512, 512)
	corr := polybench.Corr(128, 128)
	mm2 := polybench.TwoMM(128)
	covar := polybench.Covar(128, 128)
	gesummv := polybench.Gesummv(1024)
	conv3 := polybench.ThreeDConv(64)
	fdtd := polybench.Fdtd2D(256, 1)
	return []interpBenchSpec{
		{"gemm", gemm, "gemm", []string{"A", "B", "C"}, [2]int{104, 104},
			[]int64{104, 104, 104}},
		{"conv2d", conv, "conv2d", []string{"A", "B"}, [2]int{256, 256},
			[]int64{256, 256}},
		{"atax_k1", atax, "atax_k1", []string{"A", "x", "tmp"}, [2]int{512, 1},
			[]int64{512, 512}},
		{"corr_mat", corr, "corr_mat", []string{"data", "symmat"}, [2]int{128, 1},
			[]int64{128, 128}},
		{"mm2_k1", mm2, "mm2_k1", []string{"A", "B", "tmp"}, [2]int{128, 128},
			[]int64{128, 128, 128}},
		{"covar_mat", covar, "covar_mat", []string{"data", "symmat"}, [2]int{128, 1},
			[]int64{128, 128}},
		{"gesummv", gesummv, "gesummv", []string{"A", "B", "x", "y"}, [2]int{1024, 1},
			[]int64{1024}},
		{"conv3d", conv3, "conv3d", []string{"A", "B"}, [2]int{64, 64},
			[]int64{64}},
		{"fdtd_step3", fdtd, "fdtd_step3", []string{"ex", "ey", "hz"}, [2]int{256, 256},
			[]int64{256}},
	}
}

// interpEnv materializes the buffers for one spec and returns a ready
// ExecEnv. Input objects get the workload's default input set; temps and
// outputs start zeroed, as they would on a device.
func interpEnv(b *testing.B, spec interpBenchSpec) *kir.ExecEnv {
	b.Helper()
	inputs := spec.workload.MakeInputs(prog.InputDefault)
	bufs := make([]*precision.Array, len(spec.bufs))
	for i, name := range spec.bufs {
		obj := spec.workload.Object(name)
		if obj == nil {
			b.Fatalf("workload %s has no object %s", spec.workload.Name, name)
		}
		if data, ok := inputs[name]; ok {
			bufs[i] = precision.FromSlice(precision.Double, data)
		} else {
			bufs[i] = precision.NewArray(precision.Double, obj.Len)
		}
	}
	return &kir.ExecEnv{Bufs: bufs, IntArgs: spec.args, Global: spec.global}
}

// runInterpBench executes one kernel repeatedly on the batch engine, or
// on its Reference twin when reference is set.
func runInterpBench(b *testing.B, spec interpBenchSpec, reference bool, strip int) {
	p := spec.workload.Kernels[spec.kernel]
	if p == nil {
		b.Fatalf("workload %s has no kernel %s", spec.workload.Name, spec.kernel)
	}
	if reference {
		p = p.Reference()
	}
	env := interpEnv(b, spec)
	env.Strip = strip
	items := spec.global[0] * spec.global[1]
	// Warm once so compile-time work (batch tape construction) is not
	// attributed to the first measured iteration.
	if _, err := p.Run(env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(env); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
}

// BenchmarkProgRun compares the batch engine (/batch) with the
// Reference tree walker (/tree) kernel by kernel. The batch/tree ns/op
// ratio per kernel is the interpreter speedup; the CI bench gate
// requires it to stay above its floor.
func BenchmarkProgRun(b *testing.B) {
	for _, spec := range interpBenchSpecs() {
		spec := spec
		b.Run(spec.name+"/batch", func(b *testing.B) {
			runInterpBench(b, spec, false, 0)
		})
		b.Run(spec.name+"/tree", func(b *testing.B) {
			runInterpBench(b, spec, true, 0)
		})
	}
}

// BenchmarkBatchStrip sweeps the batch engine's strip size on the
// FMA-heavy gemm kernel. Small strips pay per-strip setup and dispatch.
// Throughput does not plateau at DefaultStrip (256): BENCH_interp.json
// reads 10.15 ms at 64, 6.89 ms at 256 and 5.56 ms at 1024 (-19%
// against 256). Larger strips cost proportionally more arena memory, and
// whether the gain holds for whole searches is open (ROADMAP item 1).
func BenchmarkBatchStrip(b *testing.B) {
	spec := interpBenchSpecs()[0] // gemm
	for _, strip := range []int{64, 256, 1024} {
		strip := strip
		b.Run(strconv.Itoa(strip), func(b *testing.B) {
			runInterpBench(b, spec, false, strip)
		})
	}
}

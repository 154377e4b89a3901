package prog

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/precision"
)

// testWorkload builds a small two-kernel workload:
//
//	tmp[i] = a[i] * b[i]
//	c[i]   = tmp[i] + a[i]
func testWorkload(n int) *Workload {
	mul := kir.NewKernel("mul", 1).In("a").In("b").Out("tmp").
		Body(kir.Put("tmp", kir.Gid(0), kir.Mul(kir.At("a", kir.Gid(0)), kir.At("b", kir.Gid(0))))).
		MustBuild()
	add := kir.NewKernel("add", 1).In("tmp").In("a").Out("c").
		Body(kir.Put("c", kir.Gid(0), kir.Add(kir.At("tmp", kir.Gid(0)), kir.At("a", kir.Gid(0))))).
		MustBuild()
	return &Workload{
		Name:     "testwl",
		Original: precision.Double,
		Objects: []ObjectSpec{
			{Name: "a", Len: n, Kind: ObjInput},
			{Name: "b", Len: n, Kind: ObjInput},
			{Name: "tmp", Len: n, Kind: ObjTemp},
			{Name: "c", Len: n, Kind: ObjOutput},
		},
		Kernels: map[string]*kir.Program{
			"mul": kir.MustCompile(mul),
			"add": kir.MustCompile(add),
		},
		MakeInputs: func(set InputSet) map[string][]float64 {
			a := make([]float64, n)
			b := make([]float64, n)
			scale := 1.0
			if set == InputImage {
				scale = 100
			}
			for i := 0; i < n; i++ {
				a[i] = scale * (0.5 + float64(i%17)*0.3)
				b[i] = scale * (1.0 + float64(i%5)*0.1)
			}
			return map[string][]float64{"a": a, "b": b}
		},
		Script: func(x *Exec) error {
			if err := x.Write("a"); err != nil {
				return err
			}
			if err := x.Write("b"); err != nil {
				return err
			}
			if err := x.Launch("mul", [2]int{n, 1}, []string{"a", "b", "tmp"}); err != nil {
				return err
			}
			if err := x.Launch("add", [2]int{n, 1}, []string{"tmp", "a", "c"}); err != nil {
				return err
			}
			return x.Read("c")
		},
	}
}

// hostInputs takes over the slices MakeInputs returns instead of
// rounding them into copies: generating a workload's inputs allocates
// their bytes once, not twice. The minimum of three rounds discounts
// allocations from other goroutines.
func TestHostInputsAllocateOnce(t *testing.T) {
	const n = 1 << 16
	w := testWorkload(n)
	inputBytes := uint64(2 * n * 8) // a and b, float64 each
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in := hostInputs(w, InputDefault)
		runtime.ReadMemStats(&after)
		if len(in) != 2 || in["a"].Len() != n {
			t.Fatalf("hostInputs returned %d objects", len(in))
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if 2*best >= 3*inputBytes {
		t.Fatalf("hostInputs allocated %d bytes for %d bytes of inputs; want under 1.5x", best, inputBytes)
	}
}

func TestRunBaseline(t *testing.T) {
	w := testWorkload(64)
	res, err := Run(hw.System1(), w, InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Outputs["c"]
	if c == nil || c.Elem() != precision.Double {
		t.Fatal("output missing or wrong type")
	}
	in := w.MakeInputs(InputDefault)
	for i := 0; i < 8; i++ {
		want := in["a"][i]*in["b"][i] + in["a"][i]
		if math.Abs(c.Get(i)-want) > 1e-12 {
			t.Fatalf("c[%d] = %v, want %v", i, c.Get(i), want)
		}
	}
	if res.Total <= 0 || res.KernelTime <= 0 || res.HtoDTime <= 0 || res.DtoHTime <= 0 {
		t.Errorf("times: %+v", res)
	}
	if diff := res.Total - (res.KernelTime + res.HtoDTime + res.DtoHTime); math.Abs(diff) > 1e-12 {
		t.Errorf("time decomposition off by %v", diff)
	}
	// Trace: 2 writes, 2 kernels, 1 read.
	if len(res.Ops) != 5 {
		t.Fatalf("ops = %d, want 5", len(res.Ops))
	}
	kinds := []OpKind{OpWrite, OpWrite, OpKernel, OpKernel, OpRead}
	for i, k := range kinds {
		if res.Ops[i].Kind != k {
			t.Errorf("op %d = %v, want %v", i, res.Ops[i].Kind, k)
		}
	}
	if res.Ops[2].Kernel != "mul" || len(res.Ops[2].Args) != 3 {
		t.Errorf("kernel op: %+v", res.Ops[2])
	}
}

func TestRunScaledSingle(t *testing.T) {
	// Large enough that host-side scaling pays for itself on system 1.
	n := 1 << 19
	w := testWorkload(n)
	sys := hw.System1()
	ref, err := Run(sys, w, InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(w, precision.Single)
	pipe := convert.Plan{Host: convert.MethodPipelined, Threads: sys.CPU.Threads, Mid: precision.Single}
	for _, obj := range []string{"a", "b", "c"} {
		cfg.Objects[obj] = ObjectConfig{Target: precision.Single, Plans: []convert.Plan{pipe}}
	}
	res, err := Run(sys, w, InputDefault, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := Quality(ref, res)
	if q < 0.999 {
		t.Errorf("single-precision quality = %v, want near 1", q)
	}
	if q == 1 {
		t.Error("single precision should introduce some rounding error")
	}
	// Scaled run should be faster on system 1 (FP32 fast, fewer bytes).
	if res.Total >= ref.Total {
		t.Errorf("scaled %v should beat baseline %v", res.Total, ref.Total)
	}
}

func TestRunInKernelMode(t *testing.T) {
	w := testWorkload(64)
	sys := hw.System2()
	cfg := Baseline(w)
	for _, obj := range []string{"a", "b", "tmp", "c"} {
		cfg.Objects[obj] = ObjectConfig{Target: precision.Single, InKernel: true}
	}
	res, err := Run(sys, w, InputDefault, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Buffers stay double: transfer events move double-width bytes.
	for _, op := range res.Ops {
		if op.Kind == OpWrite && op.Duration <= 0 {
			t.Error("write duration missing")
		}
	}
	var kernelCounts kir.Counts
	for _, op := range res.Ops {
		if op.Kind == OpKernel {
			kernelCounts.Add(op.Counts)
		}
	}
	if kernelCounts.ConvOps == 0 {
		t.Error("in-kernel mode must execute conversion instructions")
	}
	if kernelCounts.Flops[precision.Single] == 0 {
		t.Error("in-kernel mode must compute at single precision")
	}
	ref, _ := Run(sys, w, InputDefault, nil)
	if q := Quality(ref, res); q < 0.999 {
		t.Errorf("in-kernel single quality = %v", q)
	}
}

func TestRunWithExplicitPlans(t *testing.T) {
	w := testWorkload(256)
	sys := hw.System1()
	cfg := NewConfig(w, precision.Half)
	// Transient plan for object a: wire at half via pipelined host conv.
	cfg.Objects["a"] = ObjectConfig{
		Target: precision.Half,
		Plans: []convert.Plan{
			{Host: convert.MethodPipelined, Threads: sys.CPU.Threads, Mid: precision.Half},
		},
	}
	res, err := Run(sys, w, InputDefault, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["c"] == nil {
		t.Fatal("missing output")
	}
	ref, _ := Run(sys, w, InputDefault, nil)
	if q := Quality(ref, res); q < 0.95 {
		t.Errorf("half quality on small values = %v", q)
	}
}

func TestHalfOverflowHurtsQuality(t *testing.T) {
	w := testWorkload(64)
	sys := hw.System1()
	ref, _ := Run(sys, w, InputImage, nil) // values up to ~100*170 = 17000, products fit half barely
	cfg := NewConfig(w, precision.Half)
	res, err := Run(sys, w, InputImage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qHalf := Quality(ref, res)
	resS, _ := Run(sys, w, InputImage, NewConfig(w, precision.Single))
	qSingle := Quality(ref, resS)
	if qHalf >= qSingle {
		t.Errorf("half quality (%v) should be below single (%v)", qHalf, qSingle)
	}
}

func TestRunErrors(t *testing.T) {
	w := testWorkload(16)
	sys := hw.System1()

	// Unknown object in script.
	bad := *w
	bad.Script = func(x *Exec) error { return x.Write("nope") }
	if _, err := Run(sys, &bad, InputDefault, nil); err == nil {
		t.Error("unknown object should error")
	}
	// Launch before write.
	bad.Script = func(x *Exec) error {
		return x.Launch("mul", [2]int{16, 1}, []string{"a", "b", "tmp"})
	}
	if _, err := Run(sys, &bad, InputDefault, nil); err == nil {
		t.Error("launch before write should error")
	}
	// Unknown kernel.
	bad.Script = func(x *Exec) error {
		return x.Launch("nope", [2]int{16, 1}, nil)
	}
	if _, err := Run(sys, &bad, InputDefault, nil); err == nil {
		t.Error("unknown kernel should error")
	}
	// Read without buffer.
	bad.Script = func(x *Exec) error { return x.Read("c") }
	if _, err := Run(sys, &bad, InputDefault, nil); err == nil {
		t.Error("read before any kernel should error")
	}
}

func TestConfigHelpers(t *testing.T) {
	w := testWorkload(8)
	c := NewConfig(w, precision.Single)
	if len(c.Objects) != 4 {
		t.Fatalf("config objects = %d", len(c.Objects))
	}
	if c.Target("a", precision.Double) != precision.Single {
		t.Error("Target lookup")
	}
	if c.Target("missing", precision.Double) != precision.Double {
		t.Error("Target default")
	}
	cl := c.Clone()
	oc := cl.Objects["a"]
	oc.Target = precision.Half
	cl.Objects["a"] = oc
	if c.Objects["a"].Target == precision.Half {
		t.Error("Clone must not alias")
	}
	b := Baseline(w)
	if b.Objects["a"].Target != precision.Double {
		t.Error("Baseline should be original precision")
	}
}

func TestDefaultPlan(t *testing.T) {
	cpu := &hw.System1().CPU
	p := DefaultPlan(cpu, precision.Double, precision.Double)
	if p.Host != convert.MethodNone || p.Mid != precision.Double {
		t.Errorf("identity default plan: %+v", p)
	}
	p = DefaultPlan(cpu, precision.Double, precision.Half)
	if p.Host != convert.MethodMT || p.Mid != precision.Half || p.Threads != cpu.Threads {
		t.Errorf("scaling default plan: %+v", p)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	w := testWorkload(8)
	if w.Object("tmp") == nil || w.Object("zz") != nil {
		t.Error("Object lookup")
	}
	outs := w.OutputNames()
	if len(outs) != 1 || outs[0] != "c" {
		t.Errorf("OutputNames = %v", outs)
	}
}

func TestQualityMissingOutput(t *testing.T) {
	w := testWorkload(16)
	sys := hw.System1()
	ref, _ := Run(sys, w, InputDefault, nil)
	res := &Result{Outputs: map[string]*precision.Array{}}
	if q := Quality(ref, res); q > 0.5 {
		t.Errorf("missing output quality = %v, want low", q)
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := testWorkload(128)
	sys := hw.System3()
	cfg := NewConfig(w, precision.Half)
	r1, err := Run(sys, w, InputRandom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sys, w, InputRandom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != r2.Total {
		t.Error("timing must be deterministic")
	}
	for i := 0; i < 128; i++ {
		if r1.Outputs["c"].Get(i) != r2.Outputs["c"].Get(i) {
			t.Fatal("outputs must be deterministic")
		}
	}
}

func TestInputSetStrings(t *testing.T) {
	if InputDefault.String() != "default" || InputImage.String() != "image" || InputRandom.String() != "random" {
		t.Error("input set strings")
	}
	if ObjInput.String() != "in" || ObjTemp.String() != "temp" {
		t.Error("obj kind strings")
	}
	if OpWrite.String() != "write" || OpKernel.String() != "kernel" {
		t.Error("op kind strings")
	}
}

func TestInOutObjectPerEventPlans(t *testing.T) {
	// An InOut-style flow: object c is written (ev0) and read (ev1) with
	// different conversion plans; both must be honored in order.
	n := 1 << 12
	w := testWorkload(n)
	sys := hw.System1()
	cfg := NewConfig(w, precision.Single)
	cfg.Objects["a"] = ObjectConfig{
		Target: precision.Single,
		Plans: []convert.Plan{
			{Host: convert.MethodLoop, Mid: precision.Single}, // ev0: write
		},
	}
	cfg.Objects["c"] = ObjectConfig{
		Target: precision.Single,
		Plans: []convert.Plan{
			{Host: convert.MethodMT, Threads: 4, Mid: precision.Single}, // ev0: read
		},
	}
	res, err := Run(sys, w, InputDefault, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Trace order fixes event indices; the read of c is its event 0.
	var readIdx = -1
	for _, op := range res.Ops {
		if op.Kind == OpRead && op.Object == "c" {
			readIdx = op.EventIndex
		}
	}
	if readIdx != 0 {
		t.Errorf("read event index = %d, want 0", readIdx)
	}
	ref, _ := Run(sys, w, InputDefault, nil)
	if q := Quality(ref, res); q < 0.999 {
		t.Errorf("quality = %v", q)
	}
}

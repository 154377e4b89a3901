package clc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/kir"
	"repro/internal/precision"
)

const saxpySrc = `
// y = 2*x + y, guarded
__kernel void saxpy(__global const float* x, __global float* y, int n) {
	int i = get_global_id(0);
	if (i < n) {
		y[i] = 2.0f * x[i] + y[i];
	}
}
`

func TestParseSaxpy(t *testing.T) {
	k, err := ParseOne(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "saxpy" || k.Dims != 1 {
		t.Fatalf("kernel meta: %s dims=%d", k.Name, k.Dims)
	}
	if len(k.Bufs) != 2 || k.Bufs[0].Name != "x" || k.Bufs[1].Name != "y" {
		t.Fatalf("bufs: %+v", k.Bufs)
	}
	if k.Bufs[0].Access != kir.ReadOnly || k.Bufs[1].Access != kir.ReadWrite {
		t.Fatalf("access: %v %v", k.Bufs[0].Access, k.Bufs[1].Access)
	}
	if len(k.IntParams) != 1 || k.IntParams[0] != "n" {
		t.Fatalf("int params: %v", k.IntParams)
	}
	if k.DeclaredTypes["x"] != precision.Single {
		t.Fatalf("declared type: %v", k.DeclaredTypes["x"])
	}
}

func TestParsedSaxpyExecutes(t *testing.T) {
	k := MustParseOne(saxpySrc)
	p := kir.MustCompile(k.Kernel)
	x := precision.FromSlice(precision.Double, []float64{1, 2, 3, 4})
	y := precision.FromSlice(precision.Double, []float64{10, 20, 30, 40})
	if _, err := p.Run(&kir.ExecEnv{
		Bufs:    []*precision.Array{x, y},
		IntArgs: []int64{4},
		Global:  [2]int{4, 1},
	}); err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 24, 36, 48}
	for i, wv := range want {
		if y.Get(i) != wv {
			t.Fatalf("y = %v, want %v", y.Data(), want)
		}
	}
}

// gemmSrc is the Polybench GEMM kernel as OpenCL C.
const gemmSrc = `
__kernel void gemm(__global const double* A, __global const double* B,
                   __global double* C, int ni, int nj, int nk) {
	int i = get_global_id(0);
	int j = get_global_id(1);
	double acc = 0.0;
	for (int k = 0; k < nk; k++) {
		acc += A[i*nk + k] * B[k*nj + j];
	}
	C[i*nj + j] = 32412.0 * acc + 2123.0 * C[i*nj + j];
}
`

// TestParsedGemmMatchesBuilder proves the frontend and the builder
// produce behaviourally identical programs: same outputs bit-for-bit and
// same dynamic float counts.
func TestParsedGemmMatchesBuilder(t *testing.T) {
	parsed := kir.MustCompile(MustParseOne(gemmSrc).Kernel)

	built := kir.MustCompile(kir.NewKernel("gemm", 2).
		In("A").In("B").InOut("C").Ints("ni", "nj", "nk").
		Body(
			kir.LetF("acc", kir.F(0)),
			kir.Loop("k", kir.I(0), kir.P("nk"),
				kir.Set("acc", kir.Add(
					kir.Mul(
						kir.At("A", kir.Idx2(kir.Gid(0), kir.P("nk"), kir.V("k"))),
						kir.At("B", kir.Idx2(kir.V("k"), kir.P("nj"), kir.Gid(1))),
					),
					kir.V("acc"),
				)),
			),
			kir.Put("C", kir.Idx2(kir.Gid(0), kir.P("nj"), kir.Gid(1)),
				kir.Add(
					kir.Mul(kir.F(32412.0), kir.V("acc")),
					kir.Mul(kir.F(2123.0), kir.At("C", kir.Idx2(kir.Gid(0), kir.P("nj"), kir.Gid(1)))),
				),
			),
		).MustBuild())

	n := 12
	mk := func() *kir.ExecEnv {
		a := precision.NewArray(precision.Single, n*n)
		b := precision.NewArray(precision.Single, n*n)
		c := precision.NewArray(precision.Single, n*n)
		for i := 0; i < n*n; i++ {
			a.Set(i, float64(i%13)*0.37)
			b.Set(i, float64(i%7)*1.11)
			c.Set(i, float64(i%5)*2.7)
		}
		return &kir.ExecEnv{
			Bufs:    []*precision.Array{a, b, c},
			IntArgs: []int64{int64(n), int64(n), int64(n)},
			Global:  [2]int{n, n},
		}
	}
	e1, e2 := mk(), mk()
	c1, err := parsed.Run(e1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := built.Run(e2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		if e1.Bufs[2].Get(i) != e2.Bufs[2].Get(i) {
			t.Fatalf("output %d differs: %v != %v", i, e1.Bufs[2].Get(i), e2.Bufs[2].Get(i))
		}
	}
	if c1.TotalFlops() != c2.TotalFlops() {
		t.Errorf("flops: parsed %v, built %v", c1.TotalFlops(), c2.TotalFlops())
	}
	if c1.LoadBytes != c2.LoadBytes || c1.StoreBytes != c2.StoreBytes {
		t.Errorf("traffic differs: %v/%v vs %v/%v", c1.LoadBytes, c1.StoreBytes, c2.LoadBytes, c2.StoreBytes)
	}
}

func TestParseStencilWithBoundsAndElse(t *testing.T) {
	src := `
__kernel void blur(__global const float* a, __global float* b, int n) {
	int i = get_global_id(0);
	if (i >= 1 && i < n - 1) {
		b[i] = (a[i-1] + a[i] + a[i+1]) / 3.0;
	} else {
		b[i] = a[i];
	}
}
`
	k := MustParseOne(src)
	p := kir.MustCompile(k.Kernel)
	a := precision.FromSlice(precision.Double, []float64{3, 6, 9, 12})
	b := precision.NewArray(precision.Double, 4)
	if _, err := p.Run(&kir.ExecEnv{
		Bufs: []*precision.Array{a, b}, IntArgs: []int64{4}, Global: [2]int{4, 1},
	}); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 6, 9, 12}
	for i, wv := range want {
		if b.Get(i) != wv {
			t.Fatalf("b = %v, want %v", b.Data(), want)
		}
	}
}

func TestParseBuiltinsAndTernary(t *testing.T) {
	src := `
__kernel void mix(__global const float* a, __global float* out, int n) {
	int i = get_global_id(0);
	float v = fabs(a[i]);
	float r = sqrt(v);
	float clamped = fmin(fmax(r, 0.5), 2.0);
	out[i] = (v > 1.0) ? clamped : fma(v, 2.0, 0.25);
}
`
	k := MustParseOne(src)
	p := kir.MustCompile(k.Kernel)
	a := precision.FromSlice(precision.Double, []float64{-9, 0.25})
	out := precision.NewArray(precision.Double, 2)
	if _, err := p.Run(&kir.ExecEnv{
		Bufs: []*precision.Array{a, out}, IntArgs: []int64{2}, Global: [2]int{2, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if out.Get(0) != 2.0 { // sqrt(9)=3 clamped to 2
		t.Errorf("out[0] = %v, want 2", out.Get(0))
	}
	if want := math.FMA(0.25, 2, 0.25); out.Get(1) != want {
		t.Errorf("out[1] = %v, want %v", out.Get(1), want)
	}
}

func TestParseNegation(t *testing.T) {
	src := `
__kernel void neg(__global const float* a, __global float* out, int n) {
	int i = get_global_id(0);
	if (!(i >= n || a[i] < 0.0)) {
		out[i] = a[i];
	}
}
`
	k := MustParseOne(src)
	p := kir.MustCompile(k.Kernel)
	a := precision.FromSlice(precision.Double, []float64{5, -3})
	out := precision.NewArray(precision.Double, 2)
	if _, err := p.Run(&kir.ExecEnv{
		Bufs: []*precision.Array{a, out}, IntArgs: []int64{2}, Global: [2]int{2, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if out.Get(0) != 5 || out.Get(1) != 0 {
		t.Errorf("out = %v, want [5 0]", out.Data())
	}
}

func TestParseIntToFloatConversions(t *testing.T) {
	src := `
__kernel void conv(__global float* out, int n) {
	int i = get_global_id(0);
	out[i] = (float)i / (float)n + i * 1.0 - (i % 2);
}
`
	k := MustParseOne(src)
	p := kir.MustCompile(k.Kernel)
	out := precision.NewArray(precision.Double, 4)
	if _, err := p.Run(&kir.ExecEnv{
		Bufs: []*precision.Array{out}, IntArgs: []int64{4}, Global: [2]int{4, 1},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := float64(i)/4 + float64(i) - float64(i%2)
		if out.Get(i) != want {
			t.Fatalf("out[%d] = %v, want %v", i, out.Get(i), want)
		}
	}
}

func TestParseForLE(t *testing.T) {
	src := `
__kernel void sum(__global const float* a, __global float* out, int n) {
	float acc = 0.0;
	for (int i = 0; i <= n; i++) {
		acc += a[i];
	}
	out[get_global_id(0)] = acc;
}
`
	k := MustParseOne(src)
	p := kir.MustCompile(k.Kernel)
	a := precision.FromSlice(precision.Double, []float64{1, 2, 3})
	out := precision.NewArray(precision.Double, 1)
	if _, err := p.Run(&kir.ExecEnv{
		Bufs: []*precision.Array{a, out}, IntArgs: []int64{2}, Global: [2]int{1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if out.Get(0) != 6 {
		t.Errorf("inclusive loop sum = %v, want 6", out.Get(0))
	}
}

func TestParseMultipleKernels(t *testing.T) {
	src := saxpySrc + `
__kernel void scale2(__global double* y, int n) {
	int i = get_global_id(0);
	if (i < n) { y[i] *= 2.0; }
}
`
	ks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0].Name != "saxpy" || ks[1].Name != "scale2" {
		t.Fatalf("kernels: %d", len(ks))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", " ", "no __kernel"},
		{"not kernel", "void f() {}", "expected __kernel"},
		{"bad param type", "__kernel void f(long n) { }", "unsupported parameter type"},
		{"missing global", "__kernel void f(float* a) { a[0] = 1.0; }", "must be __global"},
		{"undeclared", "__kernel void f(__global float* a) { a[0] = x; }", "undeclared identifier"},
		{"local out of scope", "__kernel void f(__global const float* a, __global float* c) { int i = get_global_id(0); if (i < 5) { float d = a[i]; } c[i] = d + d; }", "undeclared variable"},
		{"float index", "__kernel void f(__global float* a) { a[1.5] = 1.0; }", "must be int"},
		{"bad loop", "__kernel void f(__global float* a, int n) { for (int i = 0; i > n; i++) { a[i] = 1.0; } }", "must be < or <="},
		{"loop var mismatch", "__kernel void f(__global float* a, int n) { for (int i = 0; j < n; i++) { a[i] = 1.0; } }", "must test"},
		{"unknown call", "__kernel void f(__global float* a) { a[0] = frobnicate(1.0); }", "unknown function"},
		{"float mod", "__kernel void f(__global float* a) { a[0] = a[1] % a[2]; }", "integer operands"},
		{"int condition", "__kernel void f(__global float* a, int n) { if (n) { a[0] = 1.0; } }", "must be a comparison"},
		{"ftoi cast", "__kernel void f(__global float* a) { int x = (int)a[0]; a[1] = 1.0; }", "not supported"},
		{"gid dim", "__kernel void f(__global float* a, int n) { a[get_global_id(3)] = 1.0; }", "literal 0 or 1"},
		{"unterminated comment", "/* oops", "unterminated"},
		{"stray char", "__kernel void f(__global float* a) { a[0] = 1.0 @ 2.0; }", "unexpected character"},
		{"truncated", "__kernel void f(__global float* a) { a[0] = ", "expected expression"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("expected parse error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("a\n  bc 1.5e3 12 // note\n+=")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].line != 1 || toks[0].col != 1 {
		t.Errorf("first token at %d:%d", toks[0].line, toks[0].col)
	}
	if toks[1].text != "bc" || toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("bc at %d:%d", toks[1].line, toks[1].col)
	}
	if toks[2].kind != tokFloatLit || toks[2].f != 1500 {
		t.Errorf("float lit: %+v", toks[2])
	}
	if toks[3].kind != tokIntLit || toks[3].i != 12 {
		t.Errorf("int lit: %+v", toks[3])
	}
	if toks[4].text != "+=" || toks[4].line != 3 {
		t.Errorf("+= token: %+v", toks[4])
	}
	if toks[5].kind != tokEOF {
		t.Error("missing EOF")
	}
}

func TestFloatSuffixAndComments(t *testing.T) {
	src := `
/* block
   comment */
__kernel void f(__global float* a) {
	a[0] = 0.5f + .25f; // trailing
}
`
	k := MustParseOne(src)
	p := kir.MustCompile(k.Kernel)
	a := precision.NewArray(precision.Double, 1)
	if _, err := p.Run(&kir.ExecEnv{Bufs: []*precision.Array{a}, Global: [2]int{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if a.Get(0) != 0.75 {
		t.Errorf("a[0] = %v, want 0.75", a.Get(0))
	}
}

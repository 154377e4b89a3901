package kir

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fp16"
	"repro/internal/hw"
	"repro/internal/precision"
)

// vecAddKernel builds c[i] = a[i] + b[i].
func vecAddKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewKernel("vecadd", 1).
		In("a").In("b").Out("c").
		Ints("n").
		Body(
			When(Lt(Gid(0), P("n")),
				Put("c", Gid(0), Add(At("a", Gid(0)), At("b", Gid(0)))),
			),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// dotKernel builds out[i] = sum_j a[i*n+j]*b[j] (matrix-vector row dot).
func dotKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewKernel("dot", 1).
		In("a").In("b").Out("out").
		Ints("n").
		Body(
			LetF("acc", F(0)),
			Loop("j", I(0), P("n"),
				Set("acc", Add(V("acc"), Mul(At("a", Idx2(Gid(0), P("n"), V("j"))), At("b", V("j"))))),
			),
			Put("out", Gid(0), V("acc")),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func run(t *testing.T, k *Kernel, env *ExecEnv) Counts {
	t.Helper()
	p, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVecAddDouble(t *testing.T) {
	k := vecAddKernel(t)
	n := 16
	a := precision.NewArray(precision.Double, n)
	b := precision.NewArray(precision.Double, n)
	c := precision.NewArray(precision.Double, n)
	for i := 0; i < n; i++ {
		a.Set(i, float64(i))
		b.Set(i, float64(2*i))
	}
	counts := run(t, k, &ExecEnv{
		Bufs:    []*precision.Array{a, b, c},
		IntArgs: []int64{int64(n)},
		Global:  [2]int{n, 1},
	})
	for i := 0; i < n; i++ {
		if c.Get(i) != float64(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, c.Get(i), 3*i)
		}
	}
	if counts.WorkItems != n {
		t.Errorf("WorkItems = %d, want %d", counts.WorkItems, n)
	}
	if counts.Flops[precision.Double] != float64(n) {
		t.Errorf("double flops = %v, want %v", counts.Flops[precision.Double], n)
	}
	if counts.LoadBytes != float64(2*n*8) || counts.StoreBytes != float64(n*8) {
		t.Errorf("bytes = %v/%v", counts.LoadBytes, counts.StoreBytes)
	}
	if counts.ConvOps != 0 {
		t.Errorf("ConvOps = %v, want 0", counts.ConvOps)
	}
}

func TestVecAddHalfRounds(t *testing.T) {
	k := vecAddKernel(t)
	a := precision.FromSlice(precision.Half, []float64{2048})
	b := precision.FromSlice(precision.Half, []float64{1})
	c := precision.NewArray(precision.Half, 1)
	run(t, k, &ExecEnv{
		Bufs:    []*precision.Array{a, b, c},
		IntArgs: []int64{1},
		Global:  [2]int{1, 1},
	})
	// 2048 + 1 is absorbed at half precision (ULP at 2048 is 2).
	if c.Get(0) != 2048 {
		t.Fatalf("half add = %v, want 2048", c.Get(0))
	}
}

func TestMixedPrecisionPromotion(t *testing.T) {
	k := vecAddKernel(t)
	a := precision.FromSlice(precision.Half, []float64{2048})
	b := precision.FromSlice(precision.Single, []float64{1})
	c := precision.NewArray(precision.Double, 1)
	counts := run(t, k, &ExecEnv{
		Bufs:    []*precision.Array{a, b, c},
		IntArgs: []int64{1},
		Global:  [2]int{1, 1},
	})
	// half + single promotes to single: 2049 is representable there.
	if c.Get(0) != 2049 {
		t.Fatalf("mixed add = %v, want 2049", c.Get(0))
	}
	if counts.Flops[precision.Single] != 1 {
		t.Errorf("flops = %v, want 1 single op", counts.Flops)
	}
}

func TestInKernelComputeAs(t *testing.T) {
	// Buffers stay double; ComputeAs half forces load-convert + store at
	// half precision, costing conversion instructions.
	k := vecAddKernel(t)
	a := precision.FromSlice(precision.Double, []float64{2048})
	b := precision.FromSlice(precision.Double, []float64{1})
	c := precision.NewArray(precision.Double, 1)
	counts := run(t, k, &ExecEnv{
		Bufs:      []*precision.Array{a, b, c},
		ComputeAs: []precision.Type{precision.Half, precision.Half, precision.Half},
		IntArgs:   []int64{1},
		Global:    [2]int{1, 1},
	})
	if c.Get(0) != 2048 {
		t.Fatalf("in-kernel half add = %v, want 2048 (absorbed)", c.Get(0))
	}
	if counts.ConvOps != 3 { // 2 loads + 1 store
		t.Errorf("ConvOps = %v, want 3", counts.ConvOps)
	}
	if counts.Flops[precision.Half] != 1 {
		t.Errorf("half flops = %v", counts.Flops)
	}
	// Memory traffic still at double width.
	if counts.LoadBytes != 16 || counts.StoreBytes != 8 {
		t.Errorf("bytes = %v/%v, want 16/8", counts.LoadBytes, counts.StoreBytes)
	}
}

func TestDotKernelFMA(t *testing.T) {
	k := dotKernel(t)
	n := 8
	a := precision.NewArray(precision.Double, n*n)
	b := precision.NewArray(precision.Double, n)
	out := precision.NewArray(precision.Double, n)
	for i := 0; i < n*n; i++ {
		a.Set(i, float64(i%7)+0.5)
	}
	for j := 0; j < n; j++ {
		b.Set(j, float64(j)*0.25)
	}
	run(t, k, &ExecEnv{
		Bufs:    []*precision.Array{a, b, out},
		IntArgs: []int64{int64(n)},
		Global:  [2]int{n, 1},
	})
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want = math.FMA(a.Get(i*n+j), b.Get(j), want)
		}
		if out.Get(i) != want {
			t.Fatalf("row %d: got %v, want %v", i, out.Get(i), want)
		}
	}
}

func TestFMAFusionCount(t *testing.T) {
	// acc = acc + a*b should lower to one FMA, not mul+add.
	k := dotKernel(t)
	p := MustCompile(k)
	n := 4
	env := &ExecEnv{
		Bufs: []*precision.Array{
			precision.NewArray(precision.Double, n*n),
			precision.NewArray(precision.Double, n),
			precision.NewArray(precision.Double, n),
		},
		IntArgs: []int64{int64(n)},
		Global:  [2]int{n, 1},
	}
	c, err := p.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	// n work items x n iterations = n^2 FMAs and nothing else floats-wise.
	if c.Flops[precision.Double] != float64(n*n) {
		t.Errorf("double flops = %v, want %v (FMA fusion)", c.Flops[precision.Double], n*n)
	}
}

func TestVerifyErrors(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Kernel, error)
		wantSub string
	}{
		{
			"unknown buffer",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("a").Ints("n").
					Body(Put("zz", Gid(0), At("a", Gid(0)))).Build()
			},
			"unknown buffer",
		},
		{
			"store to read-only",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("a").
					Body(Put("a", Gid(0), F(1))).Build()
			},
			"read-only",
		},
		{
			"load write-only",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("a").
					Body(Put("a", Gid(0), At("a", Gid(0)))).Build()
			},
			"write-only",
		},
		{
			"float index",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("a").Out("b").
					Body(Put("b", Gid(0), At("a", Gid(0)))).Ints().Build()
			},
			"", // control: this one is valid
		},
		{
			"kind mismatch",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("a").Out("b").
					Body(Put("b", Gid(0), Add(At("a", Gid(0)), Gid(0)))).Build()
			},
			"differ",
		},
		{
			"undeclared var",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("b").
					Body(Put("b", Gid(0), V("x"))).Build()
			},
			"undeclared",
		},
		{
			"redeclared let",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("b").
					Body(LetF("x", F(1)), LetF("x", F(2)), Put("b", Gid(0), V("x"))).Build()
			},
			"redeclared",
		},
		{
			// A local ends with its block: item 5 skips the if, so no
			// instruction would have written d for it.
			"let read after its if",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("A").Out("C").
					Body(
						When(Lt(Gid(0), I(5)), LetF("d", At("A", Gid(0)))),
						Put("C", Gid(0), Add(V("d"), V("d"))),
					).Build()
			},
			"undeclared variable",
		},
		{
			// A launch with n=0 never runs the body that declares d.
			"let read after its loop",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("A").Out("C").Ints("n").
					Body(
						Loop("k", I(0), P("n"), LetF("d", At("A", V("k")))),
						Put("C", Gid(0), V("d")),
					).Build()
			},
			"undeclared variable",
		},
		{
			// Names stay unique even once the first d is out of scope.
			"let redeclares an out-of-scope let",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("A").Out("C").
					Body(
						When(Lt(Gid(0), I(5)), LetF("d", At("A", Gid(0)))),
						LetF("d", F(1)),
						Put("C", Gid(0), V("d")),
					).Build()
			},
			"redeclared",
		},
		{
			"bad gid dim",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("b").
					Body(Put("b", Gid(1), F(0))).Build()
			},
			"out of range",
		},
		{
			"int store value",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("b").
					Body(Put("b", Gid(0), Gid(0))).Build()
			},
			"want float",
		},
		{
			"duplicate params",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("a").In("a").Out("b").
					Body(Put("b", Gid(0), At("a", Gid(0)))).Build()
			},
			"duplicate",
		},
		{
			"mod on floats",
			func() (*Kernel, error) {
				return NewKernel("k", 1).In("a").Out("b").
					Body(Put("b", Gid(0), Mod(At("a", Gid(0)), At("a", Gid(0))))).Build()
			},
			"must be int",
		},
		{
			"loop var shadows param",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("b").Ints("n").
					Body(Loop("n", I(0), I(4), Put("b", V("n"), F(0)))).Build()
			},
			"shadows",
		},
		{
			"empty body",
			func() (*Kernel, error) {
				return NewKernel("k", 1).Out("b").Body().Build()
			},
			"empty body",
		},
		{
			"bad dims",
			func() (*Kernel, error) {
				return NewKernel("k", 3).Out("b").Body(Put("b", Gid(0), F(0))).Build()
			},
			"dims",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if c.wantSub == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("want verification error, got nil")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestFoldConstants(t *testing.T) {
	e := foldExpr(Add(Mul(I(3), I(4)), I(5)))
	if got, ok := e.(Int); !ok || got.V != 17 {
		t.Errorf("fold 3*4+5 = %#v", e)
	}
	e = foldExpr(Mul(F(2), F(3.5)))
	if got, ok := e.(Float); !ok || got.V != 7 {
		t.Errorf("fold 2*3.5 = %#v", e)
	}
	e = foldExpr(Add(P("n"), I(0)))
	if _, ok := e.(Param); !ok {
		t.Errorf("n+0 should fold to n, got %#v", e)
	}
	e = foldExpr(Mul(P("n"), I(0)))
	if got, ok := e.(Int); !ok || got.V != 0 {
		t.Errorf("n*0 should fold to 0, got %#v", e)
	}
	e = foldExpr(Unary{Op: OpItoF, A: I(7)})
	if got, ok := e.(Float); !ok || got.V != 7 {
		t.Errorf("itof(7) = %#v", e)
	}
	// Division by literal zero must not fold.
	e = foldExpr(Div(I(4), I(0)))
	if _, ok := e.(Binary); !ok {
		t.Errorf("4/0 must not fold, got %#v", e)
	}
}

func TestFoldControlFlow(t *testing.T) {
	// if (1 < 2) { X } else { Y } folds to X.
	stmts := foldStmt(WhenElse(Lt(I(1), I(2)),
		[]Stmt{Put("b", Gid(0), F(1))},
		[]Stmt{Put("b", Gid(0), F(2))},
	))
	if len(stmts) != 1 {
		t.Fatalf("folded if -> %d stmts", len(stmts))
	}
	st, ok := stmts[0].(Store)
	if !ok || st.Value.(Float).V != 1 {
		t.Fatalf("folded to %#v", stmts[0])
	}
	// Statically empty loop disappears.
	stmts = foldStmt(Loop("i", I(5), I(5), Put("b", V("i"), F(0))))
	if len(stmts) != 0 {
		t.Fatalf("empty loop should fold away, got %d stmts", len(stmts))
	}
}

func TestDeadLetElimination(t *testing.T) {
	k, err := NewKernel("k", 1).In("a").Out("b").
		Body(
			LetF("dead1", At("a", Gid(0))),
			LetF("dead2", V("dead1")),
			LetF("live", At("a", Gid(0))),
			Put("b", Gid(0), V("live")),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	out := EliminateDeadLets(k)
	if len(out.Body) != 2 {
		t.Fatalf("after DCE body has %d stmts, want 2: %#v", len(out.Body), out.Body)
	}
}

func TestDCEPreservesBehaviour(t *testing.T) {
	k, err := NewKernel("k", 1).In("a").Out("b").
		Body(
			LetF("unused", Div(At("a", Gid(0)), F(0))), // would be Inf if executed
			Put("b", Gid(0), Mul(At("a", Gid(0)), F(2))),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := precision.FromSlice(precision.Double, []float64{21})
	b := precision.NewArray(precision.Double, 1)
	run(t, k, &ExecEnv{Bufs: []*precision.Array{a, b}, Global: [2]int{1, 1}})
	if b.Get(0) != 42 {
		t.Fatalf("b = %v, want 42", b.Get(0))
	}
}

func TestTwoDimensionalKernel(t *testing.T) {
	k, err := NewKernel("transpose", 2).In("a").Out("b").Ints("n").
		Body(
			Put("b", Idx2(Gid(1), P("n"), Gid(0)), At("a", Idx2(Gid(0), P("n"), Gid(1)))),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	a := precision.NewArray(precision.Double, n*n)
	b := precision.NewArray(precision.Double, n*n)
	for i := range a.Data() {
		a.Set(i, float64(i))
	}
	run(t, k, &ExecEnv{Bufs: []*precision.Array{a, b}, IntArgs: []int64{int64(n)}, Global: [2]int{n, n}})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if b.Get(j*n+i) != a.Get(i*n+j) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestSelectAndLogic(t *testing.T) {
	k, err := NewKernel("clip", 1).In("a").Out("b").
		Body(
			LetF("x", At("a", Gid(0))),
			Put("b", Gid(0), Cond(And(Gt(V("x"), F(0)), Lt(V("x"), F(10))), V("x"), F(0))),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := precision.FromSlice(precision.Double, []float64{-5, 3, 50})
	b := precision.NewArray(precision.Double, 3)
	run(t, k, &ExecEnv{Bufs: []*precision.Array{a, b}, Global: [2]int{3, 1}})
	want := []float64{0, 3, 0}
	for i, w := range want {
		if b.Get(i) != w {
			t.Errorf("clip[%d] = %v, want %v", i, b.Get(i), w)
		}
	}
}

func TestMathOps(t *testing.T) {
	k, err := NewKernel("m", 1).In("a").Out("b").
		Body(
			Put("b", Gid(0), Sqrt(Abs(Neg(At("a", Gid(0)))))),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := precision.FromSlice(precision.Double, []float64{16})
	b := precision.NewArray(precision.Double, 1)
	run(t, k, &ExecEnv{Bufs: []*precision.Array{a, b}, Global: [2]int{1, 1}})
	if b.Get(0) != 4 {
		t.Fatalf("sqrt(abs(-16)) = %v", b.Get(0))
	}
}

func TestHalfSqrtRounds(t *testing.T) {
	k, err := NewKernel("m", 1).In("a").Out("b").
		Body(Put("b", Gid(0), Sqrt(At("a", Gid(0))))).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := precision.FromSlice(precision.Half, []float64{2})
	b := precision.NewArray(precision.Half, 1)
	run(t, k, &ExecEnv{Bufs: []*precision.Array{a, b}, Global: [2]int{1, 1}})
	if b.Get(0) != fp16.Round(math.Sqrt(2)) {
		t.Fatalf("half sqrt(2) = %v, want %v", b.Get(0), fp16.Round(math.Sqrt(2)))
	}
}

func TestRunErrors(t *testing.T) {
	k := vecAddKernel(t)
	p := MustCompile(k)
	a := precision.NewArray(precision.Double, 4)
	b := precision.NewArray(precision.Double, 4)
	c := precision.NewArray(precision.Double, 4)

	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{a, b}, IntArgs: []int64{4}, Global: [2]int{4, 1}}); err == nil {
		t.Error("missing buffer should error")
	}
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{a, b, c}, IntArgs: nil, Global: [2]int{4, 1}}); err == nil {
		t.Error("missing int arg should error")
	}
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{a, b, c}, IntArgs: []int64{4}, Global: [2]int{0, 1}}); err == nil {
		t.Error("empty NDRange should error")
	}
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{a, b, c}, IntArgs: []int64{4}, Global: [2]int{4, 2}}); err == nil {
		t.Error("2D range on 1D kernel should error")
	}
	// Out-of-bounds: n says 8 but buffers have 4.
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{a, b, c}, IntArgs: []int64{8}, Global: [2]int{8, 1}}); err == nil {
		t.Error("out-of-bounds access should error")
	}
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{a, b, c}, ComputeAs: []precision.Type{precision.Half}, IntArgs: []int64{4}, Global: [2]int{4, 1}}); err == nil {
		t.Error("short ComputeAs should error")
	}
}

func TestIntDivModByZero(t *testing.T) {
	k, err := NewKernel("k", 1).Out("b").Ints("n").
		Body(Put("b", Div(Gid(0), P("n")), F(1))).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := MustCompile(k)
	b := precision.NewArray(precision.Double, 4)
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{b}, IntArgs: []int64{0}, Global: [2]int{1, 1}}); err == nil {
		t.Error("int division by zero should error")
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Flops: map[precision.Type]float64{precision.Half: 2}, IntOps: 1, LoadBytes: 8, WorkItems: 1}
	b := Counts{Flops: map[precision.Type]float64{precision.Half: 3, precision.Double: 1}, ConvOps: 4, StoreBytes: 2, WorkItems: 2}
	a.Add(b)
	if a.Flops[precision.Half] != 5 || a.Flops[precision.Double] != 1 {
		t.Errorf("Add flops = %v", a.Flops)
	}
	if a.IntOps != 1 || a.ConvOps != 4 || a.LoadBytes != 8 || a.StoreBytes != 2 || a.WorkItems != 3 {
		t.Errorf("Add scalars wrong: %+v", a)
	}
	if a.TotalFlops() != 6 {
		t.Errorf("TotalFlops = %v", a.TotalFlops())
	}
	var zero Counts
	zero.Add(a) // must not panic on nil map
	if zero.TotalFlops() != 6 {
		t.Error("Add into zero Counts")
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	g := &hw.System1().GPU
	// Pure compute: FP64 heavy.
	compute := Counts{Flops: map[precision.Type]float64{precision.Double: 1e9}}
	// Pure memory.
	memory := Counts{LoadBytes: 1e9}
	tc := KernelTime(g, compute)
	tm := KernelTime(g, memory)
	if tc <= 0 || tm <= 0 {
		t.Fatal("times must be positive")
	}
	// Combined is bounded by max + latency, not the sum.
	both := Counts{Flops: map[precision.Type]float64{precision.Double: 1e9}, LoadBytes: 1e9}
	tb := KernelTime(g, both)
	if tb >= tc+tm {
		t.Errorf("roofline: %v should be < %v", tb, tc+tm)
	}
	// Launch latency floor.
	if KernelTime(g, Counts{}) < g.LaunchLatency() {
		t.Error("latency floor missing")
	}
}

func TestKernelTimeHalfAnomalyOn61(t *testing.T) {
	g := &hw.System1().GPU // capability 6.1
	flops := 1e8
	th := KernelTime(g, Counts{Flops: map[precision.Type]float64{precision.Half: flops}})
	ts := KernelTime(g, Counts{Flops: map[precision.Type]float64{precision.Single: flops}})
	td := KernelTime(g, Counts{Flops: map[precision.Type]float64{precision.Double: flops}})
	if !(th > td && td > ts) {
		t.Errorf("on 6.1 want half(%v) > double(%v) > single(%v)", th, td, ts)
	}
	// On 7.0 the ordering is the conventional one.
	g2 := &hw.System2().GPU
	th2 := KernelTime(g2, Counts{Flops: map[precision.Type]float64{precision.Half: flops}})
	ts2 := KernelTime(g2, Counts{Flops: map[precision.Type]float64{precision.Single: flops}})
	td2 := KernelTime(g2, Counts{Flops: map[precision.Type]float64{precision.Double: flops}})
	if !(th2 < ts2 && ts2 < td2) {
		t.Errorf("on 7.0 want half(%v) < single(%v) < double(%v)", th2, ts2, td2)
	}
}

func TestComputeBound(t *testing.T) {
	g := &hw.System1().GPU
	if !ComputeBound(g, Counts{Flops: map[precision.Type]float64{precision.Double: 1e12}, LoadBytes: 8}) {
		t.Error("flop-heavy kernel should be compute bound")
	}
	if ComputeBound(g, Counts{Flops: map[precision.Type]float64{precision.Single: 8}, LoadBytes: 1e12}) {
		t.Error("byte-heavy kernel should be memory bound")
	}
}

func TestProgramLen(t *testing.T) {
	p := MustCompile(vecAddKernel(t))
	if p.Len() == 0 {
		t.Error("program should have instructions")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on invalid kernel")
		}
	}()
	MustCompile(&Kernel{Name: "bad", Dims: 1})
}

func BenchmarkInterpreterGEMMLike(b *testing.B) {
	k, err := NewKernel("dot", 1).
		In("a").In("b").Out("out").Ints("n").
		Body(
			LetF("acc", F(0)),
			Loop("j", I(0), P("n"),
				Set("acc", Add(V("acc"), Mul(At("a", Idx2(Gid(0), P("n"), V("j"))), At("b", V("j"))))),
			),
			Put("out", Gid(0), V("acc")),
		).Build()
	if err != nil {
		b.Fatal(err)
	}
	p := MustCompile(k)
	n := 64
	env := &ExecEnv{
		Bufs: []*precision.Array{
			precision.NewArray(precision.Single, n*n),
			precision.NewArray(precision.Single, n),
			precision.NewArray(precision.Single, n),
		},
		IntArgs: []int64{int64(n)},
		Global:  [2]int{n, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

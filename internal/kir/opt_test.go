package kir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/precision"
)

// stencilKernel has heavy index-arithmetic redundancy: (i+di)*stride is
// recomputed for several taps, which LVN should collapse.
func stencilKernel(t testing.TB) *Kernel {
	t.Helper()
	at := func(d int64) Expr { return At("a", Add(Mul(Gid(0), P("s")), I(d))) }
	k, err := NewKernel("stencil", 1).In("a").Out("b").Ints("s").
		Body(
			Put("b", Mul(Gid(0), P("s")),
				Add(Add(Mul(F(0.25), at(0)), Mul(F(0.5), at(1))), Mul(F(0.25), at(2))),
			),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// dualLoadKernel loads the same element twice (like GESUMMV's x[j]).
func dualLoadKernel(t testing.TB) *Kernel {
	t.Helper()
	k, err := NewKernel("dual", 1).In("a").In("x").Out("y").Ints("n").
		Body(
			LetF("sa", F(0)),
			LetF("sb", F(0)),
			Loop("j", I(0), P("n"),
				Set("sa", Add(Mul(At("a", V("j")), At("x", V("j"))), V("sa"))),
				Set("sb", Add(Mul(At("a", V("j")), At("x", V("j"))), V("sb"))),
			),
			Put("y", Gid(0), Add(V("sa"), V("sb"))),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func runBoth(t testing.TB, k *Kernel, mkEnv func() *ExecEnv) (optCounts, rawCounts Counts, optEnv, rawEnv *ExecEnv) {
	t.Helper()
	opt, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := CompileUnoptimized(k)
	if err != nil {
		t.Fatal(err)
	}
	optEnv, rawEnv = mkEnv(), mkEnv()
	optCounts, err = opt.Run(optEnv)
	if err != nil {
		t.Fatal(err)
	}
	rawCounts, err = raw.Run(rawEnv)
	if err != nil {
		t.Fatal(err)
	}
	return optCounts, rawCounts, optEnv, rawEnv
}

func sameOutputs(a, b *ExecEnv) error {
	for i := range a.Bufs {
		x, y := a.Bufs[i].Data(), b.Bufs[i].Data()
		for j := range x {
			if x[j] != y[j] && !(math.IsNaN(x[j]) && math.IsNaN(y[j])) {
				return fmt.Errorf("buffer %d elem %d: %v != %v", i, j, x[j], y[j])
			}
		}
	}
	return nil
}

func TestLVNStencilSavesIntOps(t *testing.T) {
	k := stencilKernel(t)
	n := 32
	mk := func() *ExecEnv {
		a := precision.NewArray(precision.Double, n*4)
		for i := 0; i < a.Len(); i++ {
			a.Set(i, float64(i)*0.5)
		}
		return &ExecEnv{
			Bufs:    []*precision.Array{a, precision.NewArray(precision.Double, n*4)},
			IntArgs: []int64{3},
			Global:  [2]int{n, 1},
		}
	}
	oc, rc, oe, re := runBoth(t, k, mk)
	if err := sameOutputs(oe, re); err != nil {
		t.Fatal(err)
	}
	if oc.IntOps >= rc.IntOps {
		t.Errorf("LVN should cut index ops: %v >= %v", oc.IntOps, rc.IntOps)
	}
	if oc.TotalFlops() != rc.TotalFlops() {
		t.Errorf("flops changed: %v != %v", oc.TotalFlops(), rc.TotalFlops())
	}
}

func TestLVNDualLoadSavesTraffic(t *testing.T) {
	k := dualLoadKernel(t)
	n := 16
	mk := func() *ExecEnv {
		a := precision.NewArray(precision.Single, n)
		x := precision.NewArray(precision.Single, n)
		for i := 0; i < n; i++ {
			a.Set(i, float64(i)+0.5)
			x.Set(i, 2-float64(i)*0.1)
		}
		return &ExecEnv{
			Bufs:    []*precision.Array{a, x, precision.NewArray(precision.Single, 4)},
			IntArgs: []int64{int64(n)},
			Global:  [2]int{4, 1},
		}
	}
	oc, rc, oe, re := runBoth(t, k, mk)
	if err := sameOutputs(oe, re); err != nil {
		t.Fatal(err)
	}
	// The duplicate a[j] and x[j] loads collapse: half the load traffic.
	if oc.LoadBytes*1.9 > rc.LoadBytes {
		t.Errorf("LVN should halve load traffic: opt %v vs raw %v", oc.LoadBytes, rc.LoadBytes)
	}
	// The multiplies fuse into FMAs with distinct accumulators, so flops
	// stay equal; only the memory traffic shrinks.
	if oc.TotalFlops() != rc.TotalFlops() {
		t.Errorf("flops changed: %v != %v", oc.TotalFlops(), rc.TotalFlops())
	}
}

func TestLVNRespectsStores(t *testing.T) {
	// b[0] is loaded, stored to, and loaded again: the second load must
	// NOT be merged with the first.
	k, err := NewKernel("alias", 1).InOut("b").
		Body(
			LetF("before", At("b", I(0))),
			Put("b", I(0), Add(V("before"), F(1))),
			LetF("after", At("b", I(0))),
			Put("b", I(1), V("after")),
		).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := MustCompile(k)
	b := precision.FromSlice(precision.Double, []float64{10, 0})
	if _, err := p.Run(&ExecEnv{Bufs: []*precision.Array{b}, Global: [2]int{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if b.Get(1) != 11 {
		t.Fatalf("b[1] = %v, want 11 (load after store must see new value)", b.Get(1))
	}
}

func TestLVNPolybenchKernelsEquivalent(t *testing.T) {
	// The redundancy-heavy kernels used by the real suite must agree
	// between optimized and unoptimized pipelines on real data.
	k := stencilKernel(t)
	mk := func() *ExecEnv {
		a := precision.NewArray(precision.Half, 256)
		for i := 0; i < 256; i++ {
			a.Set(i, float64(i%50)*0.25)
		}
		return &ExecEnv{
			Bufs:    []*precision.Array{a, precision.NewArray(precision.Half, 256)},
			IntArgs: []int64{4},
			Global:  [2]int{63, 1},
		}
	}
	_, _, oe, re := runBoth(t, k, mk)
	if err := sameOutputs(oe, re); err != nil {
		t.Fatal(err)
	}
}

// randomKernel generates a well-typed random kernel with bounded loops,
// safe (mod-clamped) indices and no integer division, for differential
// fuzzing of the optimizer.
func randomKernel(rng *rand.Rand, bufLen int) *Kernel {
	g := &kgen{rng: rng, bufLen: bufLen}
	body := []Stmt{
		Let{Name: "f0", Kind: KindFloat, Init: g.floatExpr(2)},
		Let{Name: "i0", Kind: KindInt, Init: g.intExpr(2)},
	}
	g.floats = append(g.floats, "f0")
	g.ints = append(g.ints, "i0")
	for i := 0; i < 2+rng.Intn(3); i++ {
		body = append(body, g.stmt(2))
	}
	// Guarantee at least one observable store.
	body = append(body, g.store(2))
	k := &Kernel{
		Name:      "fuzz",
		Dims:      1,
		Bufs:      []BufParam{{Name: "in", Access: ReadOnly}, {Name: "out", Access: ReadWrite}},
		IntParams: []string{"n"},
		Body:      body,
	}
	return k
}

// kgen generates well-typed random kernels. randomKernel draws the
// optimizer's shapes; shapeKernel sets shapes and also draws the lane
// shapes of the batch engine (see shapeStmts).
type kgen struct {
	rng    *rand.Rand
	bufLen int
	floats []string
	ints   []string
	nvar   int
	// shapes enables shapeKernel's statements, leaves and indices; dims
	// is then the kernel's dimension count.
	shapes bool
	dims   int
	// loops holds the enclosing loop variables, and inN those of them
	// that stay in [0, n), so they index a buffer as they are (n is at
	// most bufLen).
	loops, inN []string
}

// index produces an index expression in [0, bufLen). shapeKernel also
// draws a clamp without division, which keeps a uniform index scalar,
// and a loop variable as it is.
func (g *kgen) index() Expr {
	if g.shapes {
		switch g.rng.Intn(3) {
		case 0:
			return Min(Max(g.intExpr(2), I(0)), I(int64(g.bufLen-1)))
		case 1:
			if len(g.inN) > 0 {
				return V(g.pick(g.inN))
			}
		}
	}
	return Unary{Op: OpAbs, A: Binary{Op: OpMod, A: g.intExpr(2), B: Int{V: int64(g.bufLen)}}}
}

// own maps an index in [0, bufLen) into the work item's own bufLen
// elements of out, so no item reads or writes an element another item
// writes: the engines order different items' accesses differently,
// and only a race-free kernel has one answer. Items are numbered
// gid0 + 16*gid1, so out needs bufLen elements per item number.
func (g *kgen) own(idx Expr) Expr {
	item := Gid(0)
	if g.dims == 2 {
		item = Add(Mul(Gid(1), I(16)), Gid(0))
	}
	return Add(Mul(item, I(int64(g.bufLen))), idx)
}

// store writes a random value at a random index of the item's own part
// of out.
func (g *kgen) store(depth int) Stmt {
	return Store{Buf: "out", Index: g.own(g.index()), Value: g.floatExpr(depth)}
}

func (g *kgen) pick(names []string) string { return names[g.rng.Intn(len(names))] }

func (g *kgen) name(prefix string) string {
	g.nvar++
	return fmt.Sprintf("%s%d", prefix, g.nvar)
}

// intLeaf is shapeKernel's int leaf: a constant, a gid, the scalar
// argument, an enclosing loop variable or an int variable.
func (g *kgen) intLeaf() Expr {
	switch g.rng.Intn(6) {
	case 0:
		return I(int64(g.rng.Intn(7)))
	case 1:
		return Gid(g.rng.Intn(g.dims))
	case 2, 3:
		if len(g.loops) > 0 {
			return V(g.pick(g.loops))
		}
	case 4:
		if len(g.ints) > 0 {
			return V(g.pick(g.ints))
		}
	}
	return P("n")
}

func (g *kgen) intExpr(depth int) Expr {
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.shapes {
			return g.intLeaf()
		}
		switch g.rng.Intn(4) {
		case 0:
			return Int{V: int64(g.rng.Intn(7))}
		case 1:
			return GID{Dim: 0}
		case 2:
			if len(g.ints) > 0 {
				return Var{Name: g.ints[g.rng.Intn(len(g.ints))]}
			}
			return Param{Name: "n"}
		default:
			return Param{Name: "n"}
		}
	}
	ops := []BinOp{OpAdd, OpSub, OpMul, OpMin, OpMax}
	return Binary{Op: ops[g.rng.Intn(len(ops))], A: g.intExpr(depth - 1), B: g.intExpr(depth - 1)}
}

func (g *kgen) floatExpr(depth int) Expr {
	if depth == 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return Float{V: math.Round(g.rng.Float64()*8) / 4}
		case 1:
			if g.shapes {
				return g.load()
			}
			return Load{Buf: "in", Index: g.index()}
		case 2:
			if len(g.floats) > 0 {
				return Var{Name: g.floats[g.rng.Intn(len(g.floats))]}
			}
			return Float{V: 1}
		default:
			return Unary{Op: OpItoF, A: g.intExpr(1)}
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		return Unary{Op: OpAbs, A: g.floatExpr(depth - 1)}
	case 1:
		return Select{
			Cond: Compare{Op: CmpLT, A: g.floatExpr(depth - 1), B: g.floatExpr(depth - 1)},
			A:    g.floatExpr(depth - 1),
			B:    g.floatExpr(depth - 1),
		}
	default:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpMul, OpMax, OpMin}
		return Binary{Op: ops[g.rng.Intn(len(ops))], A: g.floatExpr(depth - 1), B: g.floatExpr(depth - 1)}
	}
}

func (g *kgen) stmt(depth int) Stmt {
	switch g.rng.Intn(5) {
	case 0:
		name := fmt.Sprintf("v%d", g.nvar)
		g.nvar++
		init := g.floatExpr(depth) // generated before the name is visible
		g.floats = append(g.floats, name)
		return Let{Name: name, Kind: KindFloat, Init: init}
	case 1:
		if len(g.floats) > 0 {
			return Assign{Name: g.floats[g.rng.Intn(len(g.floats))], Value: g.floatExpr(depth)}
		}
		return g.store(depth)
	case 2:
		v := fmt.Sprintf("l%d", g.nvar)
		g.nvar++
		inner := []Stmt{g.store(depth)}
		if len(g.floats) > 0 {
			inner = append(inner, Assign{Name: g.floats[0], Value: g.floatExpr(depth)})
		}
		return For{Var: v, Start: Int{V: 0}, End: Int{V: int64(1 + g.rng.Intn(4))}, Body: inner}
	case 3:
		return If{
			Cond: Compare{Op: CmpLE, A: g.intExpr(depth), B: g.intExpr(depth)},
			Then: []Stmt{g.store(depth)},
			Else: []Stmt{g.store(depth)},
		}
	default:
		return g.store(depth)
	}
}

// shapeKernel generates a random kernel over the lane shapes the batch
// engine treats specially, and the NDRange to launch it over: loops
// bounded by the scalar argument n (zero trips at n = 0), gid-started,
// triangular and gid-bounded loops, loops started at a variable,
// boundary ifs that give one run at an offset or split runs, uniform
// and data-dependent ifs, ints assigned under divergent ifs and loops
// and read after them, uniform-index loads, and loop-carried variance:
// an int read early in a loop body and reassigned from a gid later in
// it, so it is uniform only in the first round.
func shapeKernel(rng *rand.Rand, bufLen int) (*Kernel, [2]int) {
	g := &kgen{rng: rng, bufLen: bufLen, shapes: true, dims: 1 + rng.Intn(2)}
	body := []Stmt{LetI("i0", g.intExpr(1)), Let{Name: "f0", Kind: KindFloat, Init: g.floatExpr(1)}}
	g.ints, g.floats = []string{"i0"}, []string{"f0"}
	body = append(body, g.block(2, 3+rng.Intn(4))...)
	body = append(body, g.store(2))
	k := &Kernel{
		Name:      "shapes",
		Dims:      g.dims,
		Bufs:      []BufParam{{Name: "in", Access: ReadOnly}, {Name: "out", Access: ReadWrite}},
		IntParams: []string{"n"},
		Body:      body,
	}
	global := [2]int{1 + rng.Intn(40), 1}
	if g.dims == 2 {
		global = [2]int{1 + rng.Intn(12), 1 + rng.Intn(5)}
	}
	return k, global
}

// block generates count statement groups in a scope of their own: the
// variables they declare are not visible after it.
func (g *kgen) block(depth, count int) []Stmt {
	ni, nf := len(g.ints), len(g.floats)
	var out []Stmt
	for i := 0; i < count; i++ {
		out = append(out, g.shapeStmts(depth)...)
	}
	g.ints, g.floats = g.ints[:ni], g.floats[:nf]
	return out
}

// shapeStmts generates one statement, or a let and the loop that
// carries it. depth bounds the nesting of loops and ifs.
func (g *kgen) shapeStmts(depth int) []Stmt {
	switch g.rng.Intn(11) {
	case 0:
		name := g.name("s")
		init := g.intExpr(2)
		g.ints = append(g.ints, name)
		return []Stmt{LetI(name, init)}
	case 1:
		return []Stmt{Set(g.pick(g.ints), g.intExpr(2))}
	case 2:
		name := g.name("v")
		init := g.floatExpr(2)
		g.floats = append(g.floats, name)
		return []Stmt{Let{Name: name, Kind: KindFloat, Init: init}}
	case 3:
		return []Stmt{Set(g.pick(g.floats), g.floatExpr(2))}
	case 4, 5:
		if depth > 0 {
			return []Stmt{g.loop(depth)}
		}
	case 6:
		if depth > 0 {
			return []Stmt{g.branch(depth)}
		}
	case 7:
		if depth > 0 {
			return g.carried(depth)
		}
	case 8:
		if depth > 0 {
			return g.armWrite(depth)
		}
	}
	return []Stmt{g.store(2)}
}

// load is shapeKernel's load: from in at any index, rarely one past a
// loop variable, which reads out of bounds when n is bufLen, or from
// the item's own part of out.
func (g *kgen) load() Expr {
	switch g.rng.Intn(12) {
	case 0:
		if len(g.inN) > 0 {
			return At("in", Add(V(g.pick(g.inN)), I(1)))
		}
	case 1, 2, 3:
		return At("out", g.own(g.index()))
	}
	return At("in", g.index())
}

// loop generates a counted loop over one of the bound shapes. Every
// start is at least 0, so a loop ending at n keeps its variable in
// [0, n).
func (g *kgen) loop(depth int) Stmt {
	v := g.name("k")
	gid := Gid(g.rng.Intn(g.dims))
	start, end := Expr(I(0)), P("n")
	switch g.rng.Intn(7) {
	case 1:
		start = gid
	case 2:
		start = Add(gid, I(1))
	case 3:
		start = Min(Max(g.intExpr(1), I(0)), P("n"))
	case 4:
		if len(g.inN) > 0 {
			start = V(g.pick(g.inN))
		}
	case 5:
		end = gid
	case 6:
		end = I(int64(1 + g.rng.Intn(3)))
	}
	nl, nn := len(g.loops), len(g.inN)
	g.loops = append(g.loops, v)
	if end == P("n") {
		g.inN = append(g.inN, v)
	}
	body := g.block(depth-1, 1+g.rng.Intn(3))
	g.loops, g.inN = g.loops[:nl], g.inN[:nn]
	return Loop(v, start, end, body...)
}

// branch generates an if: a boundary test that leaves one run at an
// offset, a test that splits the runs, a test uniform among the active
// lanes, or a data-dependent one.
func (g *kgen) branch(depth int) Stmt {
	gid := Gid(g.rng.Intn(g.dims))
	var cond Expr
	switch g.rng.Intn(4) {
	case 0:
		cond = And(Ge(gid, I(1)), Lt(gid, Sub(P("n"), I(1))))
	case 1:
		cond = Ne(Mod(gid, I(int64(2+g.rng.Intn(3)))), I(0))
	case 2:
		a := Expr(P("n"))
		if len(g.loops) > 0 {
			a = V(g.pick(g.loops))
		}
		cond = Compare{Op: CmpLT, A: a, B: I(int64(g.rng.Intn(5)))}
	default:
		cond = Compare{Op: CmpLT, A: g.floatExpr(1), B: g.floatExpr(1)}
	}
	s := If{Cond: cond, Then: g.block(depth-1, 1+g.rng.Intn(2))}
	if g.rng.Intn(2) == 0 {
		s.Else = g.block(depth-1, 1+g.rng.Intn(2))
	}
	return s
}

// armWrite generates an int that starts as a constant, is set to
// another constant in the then-arm of a divergent if, and is read as a
// load index in its else-arm, which runs after the then-arm.
func (g *kgen) armWrite(depth int) []Stmt {
	x := g.name("c")
	clamped := Min(Max(V(x), I(0)), I(int64(g.bufLen-1)))
	then := append(g.block(depth-1, g.rng.Intn(2)), Set(x, I(int64(g.rng.Intn(9)))))
	els := append([]Stmt{Put("out", g.own(clamped), At("in", clamped))}, g.block(depth-1, g.rng.Intn(2))...)
	cond := Lt(Gid(g.rng.Intn(g.dims)), I(int64(1+g.rng.Intn(4))))
	return []Stmt{LetI(x, I(int64(g.rng.Intn(9)))), WhenElse(cond, then, els)}
}

// carried generates loop-carried variance: x starts uniform, each round
// reads it first, as a scalar would be read (a clamped load index and
// the uniform part of a store index), and reassigns it last, from a gid
// or, under a divergent if, from a constant; x is uniform in the first
// round only, and stays readable after the loop.
func (g *kgen) carried(depth int) []Stmt {
	x, y, k := g.name("x"), g.name("y"), g.name("k")
	init := Expr(P("n"))
	if g.rng.Intn(2) == 0 {
		init = I(int64(g.rng.Intn(5)))
	}
	nl, nn, ni := len(g.loops), len(g.inN), len(g.ints)
	g.loops, g.inN, g.ints = append(g.loops, k), append(g.inN, k), append(g.ints, x, y)
	clamped := Min(Max(V(y), I(0)), I(int64(g.bufLen-1)))
	body := []Stmt{LetI(y, Add(V(x), I(1))), Put("out", g.own(clamped), At("in", clamped))}
	body = append(body, g.block(depth-1, g.rng.Intn(2))...)
	gid := Gid(g.rng.Intn(g.dims))
	if g.rng.Intn(2) == 0 {
		body = append(body, Set(x, Add(gid, I(int64(g.rng.Intn(3))))))
	} else {
		body = append(body, When(Lt(gid, I(int64(1+g.rng.Intn(4)))), Set(x, I(int64(g.rng.Intn(9))))))
	}
	g.loops, g.inN, g.ints = g.loops[:nl], g.inN[:nn], append(g.ints[:ni], x)
	return []Stmt{LetI(x, init), Loop(k, I(0), P("n"), body...)}
}

// checkShapeKernel runs shapeKernel(seed) through Compile and
// CompileUnoptimized on the batch engine against the Reference walker
// at each strip size, for n = 0 (every loop bounded by n skips) and
// n = bufLen, with per-buffer storage and compute precisions from prec
// (as in FuzzBatchVsReference).
func checkShapeKernel(t *testing.T, seed int64, prec uint16, strips []int) {
	const bufLen = 12
	k, global := shapeKernel(rand.New(rand.NewSource(seed)), bufLen)
	if err := Verify(k); err != nil {
		t.Fatalf("seed %d: generated kernel fails verification: %v\n%s", seed, err, k)
	}
	storage, ca := make([]precision.Type, 2), make([]precision.Type, 2)
	for i := range storage {
		b := prec >> (4 * i)
		storage[i] = precision.All[int(b&3)%3]
		ca[i] = precision.Type(b >> 2 & 3)
	}
	defer func() {
		if t.Failed() {
			t.Logf("seed %d, NDRange %v, storage %v, compute %v:\n%s", seed, global, storage, ca, k)
		}
	}()
	for _, compile := range []func(*Kernel) (*Program, error){Compile, CompileUnoptimized} {
		p, err := compile(k)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, n := range []int64{0, bufLen} {
			mk := mkEnv(uint64(seed), storage, []int{bufLen, 80 * bufLen}, ca, []int64{n}, global)
			for _, strip := range strips {
				runBothEngines(t, p, func() *ExecEnv {
					env := mk()
					env.Strip = strip
					return env
				})
			}
		}
	}
}

// TestRandomShapeKernels runs generated kernels on the batch engine
// against the Reference walker at strips 1, 7, 64, 256 and 1024.
func TestRandomShapeKernels(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		checkShapeKernel(t, seed, uint16(seed*2654435761), []int{1, 7, 64, 256, 1024})
	}
}

// FuzzRandomKernel is TestRandomShapeKernels over fuzzed seeds, storage
// and compute precisions, and strip sizes (0 = DefaultStrip).
func FuzzRandomKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, prec uint16, strip uint16) {
		checkShapeKernel(t, seed, prec, []int{int(strip) % 1025})
	})
}

// TestDifferentialFuzzOptimizer checks that the optimized and
// unoptimized programs of each random kernel agree and that the
// optimizer never adds cost, and runs each program against its
// Reference twin, so a batch-engine bug both programs share cannot pass.
func TestDifferentialFuzzOptimizer(t *testing.T) {
	const cases = 300
	const items = 5
	bufLen := 16
	var seed int64
	var k *Kernel
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d:\n%s", seed, k)
		}
	})
	for seed = 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k = randomKernel(rng, bufLen)
		if err := Verify(k); err != nil {
			t.Fatalf("seed %d: generated kernel fails verification: %v\n%s", seed, err, k)
		}
		opt, err := Compile(k)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		raw, err := CompileUnoptimized(k)
		if err != nil {
			t.Fatalf("seed %d: compile unopt: %v", seed, err)
		}
		mk := func() *ExecEnv {
			in := precision.NewArray(precision.Single, bufLen)
			out := precision.NewArray(precision.Single, items*bufLen)
			vr := rand.New(rand.NewSource(seed + 7919))
			for i := 0; i < bufLen; i++ {
				in.Set(i, vr.Float64()*4-2)
			}
			for i := 0; i < out.Len(); i++ {
				out.Set(i, vr.Float64())
			}
			return &ExecEnv{
				Bufs:    []*precision.Array{in, out},
				IntArgs: []int64{int64(bufLen)},
				Global:  [2]int{items, 1},
			}
		}
		runBothEngines(t, opt, mk)
		runBothEngines(t, raw, mk)
		oe, re := mk(), mk()
		oc, err := opt.Run(oe)
		if err != nil {
			t.Fatalf("seed %d: run opt: %v", seed, err)
		}
		rc, err := raw.Run(re)
		if err != nil {
			t.Fatalf("seed %d: run raw: %v", seed, err)
		}
		if err := sameOutputs(oe, re); err != nil {
			t.Fatalf("seed %d: %v\nkernel:\n%s\nopt:\n%s", seed, err, k, opt.Disassemble())
		}
		if oc.TotalFlops() > rc.TotalFlops() || oc.IntOps > rc.IntOps || oc.LoadBytes > rc.LoadBytes {
			t.Fatalf("seed %d: optimizer increased cost: %+v vs %+v", seed, oc, rc)
		}
		if oc.StoreBytes != rc.StoreBytes {
			t.Fatalf("seed %d: stores changed: %v != %v", seed, oc.StoreBytes, rc.StoreBytes)
		}
	}
}

func BenchmarkLVNStencil(b *testing.B) {
	k := stencilKernel(b)
	p := MustCompile(k)
	n := 1024
	a := precision.NewArray(precision.Double, n*4)
	env := &ExecEnv{
		Bufs:    []*precision.Array{a, precision.NewArray(precision.Double, n*4)},
		IntArgs: []int64{3},
		Global:  [2]int{n, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoLVNStencil(b *testing.B) {
	k := stencilKernel(b)
	p, err := CompileUnoptimized(k)
	if err != nil {
		b.Fatal(err)
	}
	n := 1024
	a := precision.NewArray(precision.Double, n*4)
	env := &ExecEnv{
		Bufs:    []*precision.Array{a, precision.NewArray(precision.Double, n*4)},
		IntArgs: []int64{3},
		Global:  [2]int{n, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

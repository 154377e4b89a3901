package kir

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/precision"
)

// Differential tests: the batch engine must be observationally identical
// to the Reference tree walker — bit-identical buffer contents
// (including NaN/Inf payloads and fp16 subnormals), deeply-equal dynamic
// counts, and byte-identical error strings, for every kernel shape,
// precision binding, and strip size.

// diffKernels builds the kernel shapes the differential tests sweep:
// accumulator loops, divergent (gid-dependent) trip counts, branches,
// selects, transcendentals, multi-buffer streaming, a dyn-key select,
// the three suite epilogues whose tapes are static only when a
// launch-constant loop is known to run, loops whose start varies among
// the active lanes, and a boundary if whose active lanes form runs.
func diffKernels() map[string]*Kernel {
	ks := map[string]*Kernel{}

	// Accumulator matmul: the GEMM inner pattern.
	ks["matmul"] = NewKernel("matmul", 2).In("A").In("B").Out("C").Ints("n").
		Body(
			LetF("acc", F(0)),
			Loop("k", I(0), P("n"),
				Set("acc", Add(
					Mul(At("A", Idx2(Gid(0), P("n"), V("k"))), At("B", Idx2(V("k"), P("n"), Gid(1)))),
					V("acc"),
				)),
			),
			Put("C", Idx2(Gid(0), P("n"), Gid(1)), V("acc")),
		).MustBuild()

	// Triangular loop with gid-dependent lower bound and two stores per
	// iteration: corr_mat's divergence pattern.
	ks["triangular"] = NewKernel("triangular", 1).In("A").Out("S").Ints("n").
		Body(
			Put("S", Idx2(Gid(0), P("n"), Gid(0)), F(1)),
			Loop("j", Add(Gid(0), I(1)), P("n"),
				LetF("acc", F(0)),
				Loop("i", I(0), P("n"),
					Set("acc", Add(
						Mul(At("A", Idx2(V("i"), P("n"), Gid(0))), At("A", Idx2(V("i"), P("n"), V("j")))),
						V("acc"),
					)),
				),
				Put("S", Idx2(Gid(0), P("n"), V("j")), V("acc")),
				Put("S", Idx2(V("j"), P("n"), Gid(0)), V("acc")),
			),
		).MustBuild()

	// Branches and selects over possibly-NaN data, plus sqrt/exp/log and
	// integer min/abs index math. B is read in one branch, so lanes of a
	// strip diverge on data, not just on gid.
	ks["branchy"] = NewKernel("branchy", 1).In("A").InOut("B").Ints("n").
		Body(
			LetI("i", Min(Gid(0), Abs(Sub(P("n"), I(1))))),
			LetF("v", At("A", V("i"))),
			When(Gt(V("v"), F(0)),
				Put("B", Gid(0), Sqrt(V("v"))),
			),
			WhenElse(Le(V("v"), F(0)),
				[]Stmt{Put("B", Gid(0), Cond(Lt(V("v"), F(-1)), Exp(V("v")), Neg(V("v"))))},
				[]Stmt{Put("B", Gid(0), Add(At("B", Gid(0)), Log(Max(V("v"), F(1e-300)))))},
			),
		).MustBuild()

	// Loop with a data-dependent guard inside (float compare against
	// loaded values), so active lanes differ per iteration.
	ks["guarded"] = NewKernel("guarded", 1).In("A").In("B").Out("C").Ints("n").
		Body(
			LetF("acc", F(0)),
			Loop("k", I(0), P("n"),
				LetF("a", At("A", Idx2(Gid(0), P("n"), V("k")))),
				When(Ge(V("a"), F(0)),
					Set("acc", Add(Mul(V("a"), At("B", V("k"))), V("acc"))),
				),
			),
			Put("C", Gid(0), Div(V("acc"), Max(ItoF(P("n")), F(1)))),
		).MustBuild()

	// A float select between two buffers: under a binding that computes
	// A and B at different precisions, the sum's precision differs
	// across lanes, so the binding is a dyn key and runs on the walker.
	ks["mixedsel"] = NewKernel("mixedsel", 1).In("A").In("B").Out("C").Ints("n").
		Body(
			LetF("v", Cond(Lt(ItoF(Gid(0)), F(8)), At("A", Gid(0)), At("B", Gid(0)))),
			Put("C", Gid(0), Add(V("v"), V("v"))),
		).MustBuild()

	// A bare alpha*acc after an accumulator loop: the mm2_k1 and gesummv
	// epilogue. The multiply does not fuse into an FMA, so its precision
	// comes from acc alone.
	ks["scaledacc"] = NewKernel("scaledacc", 1).In("A").In("B").Out("C").Ints("n").
		Body(
			LetF("acc", F(0)),
			Loop("k", I(0), P("n"),
				Set("acc", Add(Mul(At("A", Idx2(Gid(0), P("n"), V("k"))), At("B", V("k"))), V("acc"))),
			),
			Put("C", Gid(0), Mul(F(1.5), V("acc"))),
		).MustBuild()

	// acc / n after an accumulator loop: the covar_mean, corr_mean and
	// corr_std epilogue.
	ks["meanacc"] = NewKernel("meanacc", 1).In("A").Out("C").Ints("n").
		Body(
			LetF("acc", F(0)),
			Loop("i", I(0), P("n"),
				Set("acc", Add(At("A", Idx2(V("i"), P("n"), Gid(0))), V("acc"))),
			),
			Put("C", Gid(0), Div(V("acc"), ItoF(P("n")))),
		).MustBuild()

	// An inner loop with launch-constant bounds inside a gid-started
	// loop, as in covar_mat.
	ks["innerconst"] = NewKernel("innerconst", 1).In("A").Out("C").Ints("n").
		Body(
			Loop("j", Gid(0), P("n"),
				LetF("acc", F(0)),
				Loop("i", I(0), P("n"),
					Set("acc", Add(
						Mul(At("A", Idx2(V("i"), P("n"), Gid(0))), At("A", Idx2(V("i"), P("n"), V("j")))),
						V("acc"),
					)),
				),
				Put("C", Idx2(Gid(0), P("n"), V("j")), Div(V("acc"), Sub(ItoF(P("n")), F(1)))),
			),
		).MustBuild()

	// Loops whose start varies among the active lanes, so all must stay
	// divergent: i starts at j mod 3 under a gid-started j, k at a
	// counter bumped under a divergent if, and m at a counter bumped in
	// every round of the divergent j.
	ks["varstart"] = NewKernel("varstart", 1).In("A").Out("C").Ints("n").
		Body(
			LetI("c", I(0)),
			When(Lt(Mod(Gid(0), I(3)), I(1)), Set("c", Add(V("c"), I(2)))),
			LetI("t", I(0)),
			LetF("acc", F(0)),
			Loop("j", Gid(0), P("n"),
				Set("t", Add(V("t"), I(1))),
				Loop("i", Mod(V("j"), I(3)), P("n"),
					Set("acc", Add(Mul(At("A", Idx2(V("i"), P("n"), V("j"))), F(0.5)), V("acc"))),
				),
			),
			Loop("k", V("c"), P("n"),
				Set("acc", Add(At("A", Idx2(Gid(0), P("n"), V("k"))), V("acc"))),
			),
			Loop("m", V("t"), P("n"),
				Set("acc", Add(At("A", V("m")), V("acc"))),
			),
			Put("C", Gid(0), V("acc")),
		).MustBuild()

	// A 2D stencil whose boundary if tests both gids and reads the
	// neighbours: its active lanes are one run per row starting past
	// lane 0, several runs per strip when a strip holds several rows.
	// The row index is gid 0, so an NDRange wider than n faults inside a
	// run.
	ks["window"] = NewKernel("window", 2).In("A").Out("B").Ints("n").
		Body(
			When(And(Ge(Gid(0), I(1)), And(Ge(Gid(1), I(1)), Lt(Gid(1), Sub(P("n"), I(1))))),
				Put("B", Idx2(Gid(0), P("n"), Gid(1)), Add(
					Mul(F(0.5), At("A", Idx2(Gid(0), P("n"), Gid(1)))),
					Add(
						Add(At("A", Idx2(Gid(0), P("n"), Sub(Gid(1), I(1)))), At("A", Idx2(Gid(0), P("n"), Add(Gid(1), I(1))))),
						At("A", Idx2(Sub(Gid(0), I(1)), P("n"), Gid(1))),
					),
				)),
			),
		).MustBuild()

	return ks
}

// diffData fills a buffer deterministically with values that exercise
// rounding edge cases: normals of both signs, zeros, fp16 subnormals,
// NaN and ±Inf payloads.
func diffData(n int, seed uint64) []float64 {
	out := make([]float64, n)
	s := seed*2654435761 + 1
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		switch s >> 61 {
		case 0:
			out[i] = math.NaN()
		case 1:
			out[i] = math.Inf(int(s&2) - 1)
		case 2:
			out[i] = 5.96e-8 * float64(int64(s%7)-3) // fp16 subnormal range
		default:
			out[i] = float64(int64(s%4096)-2048) / 37.0
		}
	}
	return out
}

// mkEnv builds an ExecEnv factory over fresh buffers with the given
// storage precisions, buffer i filled from diffData(seed+i+1).
func mkEnv(seed uint64, bufs []precision.Type, lens []int, computeAs []precision.Type, args []int64, global [2]int) func() *ExecEnv {
	return func() *ExecEnv {
		env := &ExecEnv{IntArgs: args, Global: global, ComputeAs: computeAs}
		for i, t := range bufs {
			a := precision.NewArray(t, lens[i])
			precision.RoundSlice(a.Data(), diffData(lens[i], seed+uint64(i+1)), t)
			env.Bufs = append(env.Bufs, a)
		}
		return env
	}
}

// runBothEngines runs p on the batch engine and on its Reference twin
// over identically-initialized environments and requires bit-identical
// buffers, equal counts, and identical errors.
func runBothEngines(t *testing.T, p *Program, mk func() *ExecEnv) {
	t.Helper()
	envT := mk()
	cT, errT := p.Reference().Run(envT)
	envB := mk()
	cB, errB := p.Run(envB)

	switch {
	case (errT == nil) != (errB == nil):
		t.Fatalf("error mismatch:\n tree:  %v\n batch: %v", errT, errB)
	case errT != nil && errT.Error() != errB.Error():
		t.Fatalf("error text mismatch:\n tree:  %v\n batch: %v", errT, errB)
	}
	if errT != nil {
		// On a fault both engines return the same error for the same
		// work item, but buffer contents past the faulting item are
		// unspecified: the tree engine stops mid-range while the batch
		// engine finishes the strip's surviving lanes. That divergence
		// is unobservable upstream — a failed launch aborts the trial
		// and invalidates any cached buffers — so only the error text
		// is compared here.
		return
	}
	if !reflect.DeepEqual(cT, cB) {
		t.Fatalf("counts mismatch:\n tree:  %+v\n batch: %+v", cT, cB)
	}
	for i := range envT.Bufs {
		a, b := envT.Bufs[i].Data(), envB.Bufs[i].Data()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("buffer %d elem %d: tree %x (%g) batch %x (%g)",
					i, j, math.Float64bits(a[j]), a[j], math.Float64bits(b[j]), b[j])
			}
		}
	}
}

// bindings enumerates per-buffer compute precisions: nil (storage), all
// uniform precisions, and a rotating mixed one.
func bindings(nb int) [][]precision.Type {
	out := [][]precision.Type{nil}
	for _, t := range precision.All {
		u := make([]precision.Type, nb)
		for i := range u {
			u[i] = t
		}
		out = append(out, u)
	}
	m := make([]precision.Type, nb)
	for i := range m {
		m[i] = precision.All[i%3]
	}
	out = append(out, m)
	return out
}

func TestBatchDifferentialKernels(t *testing.T) {
	const n = 17 // odd and smaller than any strip size: exercises the tail
	for name, k := range diffKernels() {
		k := k
		t.Run(name, func(t *testing.T) {
			p := MustCompile(k)
			if err := p.CheckTree(); err != nil {
				t.Fatal(err)
			}
			var lens []int
			var storage []precision.Type
			for range k.Bufs {
				lens = append(lens, n*n)
				storage = append(storage, precision.Double)
			}
			global := [2]int{n, 1}
			if k.Dims == 2 {
				global = [2]int{n, n}
			}
			for _, ca := range bindings(len(k.Bufs)) {
				runBothEngines(t, p, mkEnv(0, storage, lens, ca, []int64{int64(n)}, global))
			}
			// Storage-precision variants (memory-object scaling).
			for _, st := range precision.All {
				sto := make([]precision.Type, len(k.Bufs))
				for i := range sto {
					sto[i] = st
				}
				runBothEngines(t, p, mkEnv(0, sto, lens, nil, []int64{int64(n)}, global))
			}
		})
	}
}

// FuzzBatchVsReference generalizes the sweeps above: it picks a
// diffKernels shape (in sorted name order), a storage and compute
// precision per buffer (four bits each of prec: storage All[b&3%3],
// compute override b>>2&3 with 0 meaning none), the diffData seed, the
// problem size, the strip size (0 = DefaultStrip), an NDRange overshoot
// past the size that drives gid-indexed accesses out of bounds, and the
// int argument (arg mod size+1, so a launch may skip its loops). It
// requires the batch engine and the Reference walker to agree at that
// argument and then at the size, on one Program, which then holds tapes
// for both non-empty masks.
func FuzzBatchVsReference(f *testing.F) {
	ks := diffKernels()
	names := make([]string, 0, len(ks))
	for name := range ks {
		names = append(names, name)
	}
	sort.Strings(names)
	progs := make([]*Program, len(names))
	for i, name := range names {
		progs[i] = MustCompile(ks[name])
	}
	f.Fuzz(func(t *testing.T, kernel uint8, prec uint16, seed uint64, n uint8, strip uint16, over uint8, arg uint8) {
		p := progs[int(kernel)%len(progs)]
		nb := len(p.Kernel.Bufs)
		size := int(n)%24 + 1
		storage := make([]precision.Type, nb)
		ca := make([]precision.Type, nb)
		lens := make([]int, nb)
		for i := range storage {
			b := prec >> (4 * i)
			storage[i] = precision.All[int(b&3)%3]
			ca[i] = precision.Type(b >> 2 & 3)
			lens[i] = size * size
		}
		global := [2]int{size + int(over), 1}
		if p.Kernel.Dims == 2 {
			global[1] = size
		}
		for _, a := range []int64{int64(arg) % int64(size+1), int64(size)} {
			mk := mkEnv(seed, storage, lens, ca, []int64{a}, global)
			runBothEngines(t, p, func() *ExecEnv {
				env := mk()
				env.Strip = int(strip) % 1025
				return env
			})
		}
	})
}

func TestBatchDifferentialStripSizes(t *testing.T) {
	const n = 23
	for _, name := range []string{"triangular", "window"} {
		k := diffKernels()[name]
		p := MustCompile(k)
		global := [2]int{n, 1}
		if k.Dims == 2 {
			global[1] = n
		}
		for _, strip := range []int{1, 7, 64, 256, 1024} {
			strip := strip
			mk := mkEnv(0, []precision.Type{precision.Double, precision.Double},
				[]int{n * n, n * n}, nil, []int64{int64(n)}, global)
			runBothEngines(t, p, func() *ExecEnv {
				env := mk()
				env.Strip = strip
				return env
			})
		}
	}
}

// TestSplitRuns pins the run splitter on the lane-list shapes the engine
// meets: one run anywhere in the strip, gaps at either end, one-lane
// runs, and every other lane, which no suite kernel produces but the
// data-divergent diffKernels reach.
func TestSplitRuns(t *testing.T) {
	for _, c := range []struct {
		name  string
		lanes []int32
		want  []laneSpan
	}{
		{"whole-strip", []int32{0, 1, 2, 3}, []laneSpan{{0, 4}}},
		{"one-run-at-offset", []int32{5, 6, 7, 8, 9}, []laneSpan{{5, 5}}},
		{"one-lane", []int32{9}, []laneSpan{{9, 1}}},
		{"gaps-at-both-ends", []int32{2, 3, 4, 7, 8, 12}, []laneSpan{{2, 3}, {7, 2}, {12, 1}}},
		{"one-lane-runs", []int32{0, 2, 3, 5, 9, 10, 11}, []laneSpan{{0, 1}, {2, 2}, {5, 1}, {9, 3}}},
		{"every-other-lane", []int32{1, 3, 5, 7, 9, 11}, []laneSpan{{1, 1}, {3, 1}, {5, 1}, {7, 1}, {9, 1}, {11, 1}}},
		{"empty", nil, []laneSpan{}},
	} {
		st := &batchState{runs: make([]laneSpan, 0, 16)}
		if got := st.split(c.lanes); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: split(%v) = %v, want %v", c.name, c.lanes, got, c.want)
		}
	}
	// Every subset of a 12-lane strip against a lane-by-lane scan.
	st := &batchState{runs: make([]laneSpan, 0, 12)}
	for mask := 0; mask < 1<<12; mask++ {
		var lanes []int32
		want := []laneSpan{}
		for l := 0; l < 12; l++ {
			if mask>>l&1 == 0 {
				continue
			}
			if k := len(want) - 1; k >= 0 && want[k].lo+want[k].n == l {
				want[k].n++
			} else {
				want = append(want, laneSpan{l, 1})
			}
			lanes = append(lanes, int32(l))
		}
		if got := st.split(lanes); !reflect.DeepEqual(got, want) {
			t.Fatalf("split(%v) = %v, want %v", lanes, got, want)
		}
	}
}

// TestBatchFaultIdentity checks that runtime faults — out-of-bounds
// accesses and integer division by zero — surface the same error text as
// the tree engine, including which work item faults first when a strip
// contains several faulting lanes.
func TestBatchFaultIdentity(t *testing.T) {
	t.Run("load-oob", func(t *testing.T) {
		k := NewKernel("oob", 1).In("A").Out("B").Ints("n").
			Body(Put("B", Gid(0), At("A", Mul(Gid(0), I(3))))).MustBuild()
		p := MustCompile(k)
		runBothEngines(t, p, mkEnv(0, []precision.Type{precision.Double, precision.Double},
			[]int{16, 64}, nil, []int64{16}, [2]int{64, 1}))
	})
	t.Run("store-oob", func(t *testing.T) {
		k := NewKernel("oobstore", 1).In("A").Out("B").Ints("n").
			Body(Put("B", Mul(Gid(0), I(5)), At("A", Gid(0)))).MustBuild()
		p := MustCompile(k)
		runBothEngines(t, p, mkEnv(0, []precision.Type{precision.Double, precision.Double},
			[]int{64, 32}, nil, []int64{64}, [2]int{64, 1}))
	})
	t.Run("load-oob-in-run", func(t *testing.T) {
		// Lanes 5..63 form one run that does not start at lane 0; lane
		// 16 is its first to read out of bounds.
		k := NewKernel("oobrun", 1).In("A").Out("B").Ints("n").
			Body(When(Ge(Gid(0), I(5)), Put("B", Gid(0), At("A", Mul(Gid(0), I(2)))))).MustBuild()
		p := MustCompile(k)
		runBothEngines(t, p, mkEnv(0, []precision.Type{precision.Double, precision.Double},
			[]int{32, 64}, nil, []int64{32}, [2]int{64, 1}))
	})
	t.Run("div-zero", func(t *testing.T) {
		// Lane 13 divides by zero mid-strip; every other lane stays in
		// bounds (1/d truncates to 0 or 1).
		k := NewKernel("divz", 1).In("A").Out("B").Ints("n").
			Body(
				LetI("d", Sub(Gid(0), I(13))),
				LetI("q", Div(I(1), V("d"))),
				Put("B", Add(Gid(0), V("q")), At("A", Gid(0))),
			).MustBuild()
		p := MustCompile(k)
		runBothEngines(t, p, mkEnv(0, []precision.Type{precision.Double, precision.Double},
			[]int{64, 66}, nil, []int64{64}, [2]int{64, 1}))
	})
	t.Run("mod-zero", func(t *testing.T) {
		k := NewKernel("modz", 1).In("A").Out("B").Ints("n").
			Body(
				LetI("d", Sub(Gid(0), I(7))),
				LetI("q", Mod(I(1), V("d"))),
				Put("B", Min(Add(Gid(0), V("q")), Sub(P("n"), I(1))), At("A", Gid(0))),
			).MustBuild()
		p := MustCompile(k)
		runBothEngines(t, p, mkEnv(0, []precision.Type{precision.Double, precision.Double},
			[]int{64, 64}, nil, []int64{64}, [2]int{64, 1}))
	})
}

// TestBatchDynTape builds a binding the static precision inference
// cannot resolve — a float select between two compute precisions feeding
// arithmetic — and checks that the batch compiler marks that key dyn, so
// Run executes it on the reference walker, while a uniform binding of
// the same kernel gets a static tape, and that both execute identically
// to the tree engine.
func TestBatchDynTape(t *testing.T) {
	p := MustCompile(diffKernels()["mixedsel"])
	ca := []precision.Type{precision.Half, precision.Double, precision.Double}
	if bp := p.batchFor(ca, 0); bp == nil || !bp.dyn {
		t.Fatal("mixed-precision select binding should compile to a dyn tape")
	}
	uniform := []precision.Type{precision.Double, precision.Double, precision.Double}
	if bp := p.batchFor(uniform, 0); bp == nil || bp.dyn {
		t.Fatal("uniform binding should compile to a static tape")
	}
	runBothEngines(t, p, mkEnv(0,
		[]precision.Type{precision.Double, precision.Double, precision.Double},
		[]int{16, 16, 16}, ca, []int64{16}, [2]int{16, 1}))
}

// TestZeroTripTapes pins the non-empty mask on the three epilogue
// shapes: a launch whose loops run gets a static tape, and a launch with
// n = 0, where they run zero times, is still a conservative dyn key.
// Both launches run on one Program and match the reference walker.
func TestZeroTripTapes(t *testing.T) {
	const size = 6
	ks := diffKernels()
	for _, name := range []string{"scaledacc", "meanacc", "innerconst"} {
		p := MustCompile(ks[name])
		nb := len(p.Kernel.Bufs)
		for _, prec := range precision.All {
			storage, lens := make([]precision.Type, nb), make([]int, nb)
			for i := range storage {
				storage[i], lens[i] = prec, size*size
			}
			for _, c := range []struct {
				n   int64
				dyn bool
			}{{size, false}, {0, true}} {
				runBothEngines(t, p, mkEnv(0, storage, lens, nil, []int64{c.n}, [2]int{size, 1}))
				if bp := p.batchFor(storage, p.nonEmpty([]int64{c.n})); bp.dyn != c.dyn {
					t.Errorf("%s at %v, n=%d: dyn tape = %v, want %v", name, prec, c.n, bp.dyn, c.dyn)
				}
			}
		}
	}
}

// TestTripBitsCapped pins the 64-bit mask: only the first 64 loops with
// launch-constant bounds get a bit, so an accumulator loop after 64 others
// keeps the conservative treatment and its epilogue stays on a dyn tape.
func TestTripBitsCapped(t *testing.T) {
	const n = 5
	var body []Stmt
	for i := 0; i < 64; i++ {
		body = append(body, Loop("i", I(0), P("n"), Put("C", Gid(0), ItoF(V("i")))))
	}
	body = append(body, LetF("acc", F(0)),
		Loop("k", I(0), P("n"), Set("acc", Add(At("A", V("k")), V("acc")))),
		Put("C", Gid(0), Mul(F(1.5), V("acc"))))
	p := MustCompile(NewKernel("capped", 1).In("A").Out("C").Ints("n").Body(body...).MustBuild())
	storage := []precision.Type{precision.Single, precision.Single}
	runBothEngines(t, p, mkEnv(0, storage, []int{n, n}, nil, []int64{n}, [2]int{n, 1}))
	if mask := p.nonEmpty([]int64{n}); mask != math.MaxUint64 {
		t.Fatalf("non-empty mask = %#x, want all 64 bits", mask)
	}
	if bp := p.batchFor(storage, p.nonEmpty([]int64{n})); !bp.dyn {
		t.Fatal("the 65th launch-constant loop got a bit: epilogue on a static tape")
	}
}

// TestBatchSupportsAccumulators pins the interval-lattice property that
// makes the engine practical: an untyped-initialized accumulator
// (acc = 0.0; acc += typed) must resolve statically.
func TestBatchSupportsAccumulators(t *testing.T) {
	p := MustCompile(diffKernels()["matmul"])
	for _, t2 := range precision.All {
		if p.batchFor([]precision.Type{t2, t2, t2}, 0) == nil {
			t.Fatalf("matmul at %v: accumulator binding not batch-supported", t2)
		}
	}
}

// TestBatchAllocs pins the steady-state allocation behavior: the batch
// engine must not allocate per work item (the arena is pooled), only a
// bounded per-launch constant (run context + Counts assembly).
func TestBatchAllocs(t *testing.T) {
	p := MustCompile(diffKernels()["matmul"])
	const n = 48
	env := mkEnv(0, []precision.Type{precision.Double, precision.Double, precision.Double},
		[]int{n * n, n * n, n * n}, nil, []int64{int64(n)}, [2]int{n, n})()
	if _, err := p.Run(env); err != nil { // warm the pool and the specialization cache
		t.Fatal(err)
	}
	perLaunch := testing.AllocsPerRun(20, func() {
		if _, err := p.Run(env); err != nil {
			t.Fatal(err)
		}
	})
	if perItem := perLaunch / (n * n); perItem >= 0.01 {
		t.Fatalf("batch engine allocates %.3f allocs/work-item (%.0f per launch); want ~0 per item", perItem, perLaunch)
	}
	if perLaunch > 16 {
		t.Fatalf("batch engine allocates %.0f per launch; want a small constant", perLaunch)
	}
}

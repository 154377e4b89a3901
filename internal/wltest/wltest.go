// Package wltest provides small synthetic workloads with controlled
// numerical properties for testing the scaling framework: a benign
// elementwise program where every precision passes, a half-hostile
// program whose values overflow binary16, and a compute-heavy program
// dominated by kernel time. The Polybench suite (internal/polybench)
// provides the real evaluation workloads; these exist so framework tests
// can force specific decision-maker paths. OnReference moves any workload
// onto the reference interpreter for batch-vs-reference differentials.
package wltest

import (
	"repro/internal/kir"
	"repro/internal/precision"
	"repro/internal/prog"
)

// VecCombine returns a transfer-dominated two-kernel workload:
//
//	tmp[i] = a[i] * b[i]
//	c[i]   = tmp[i] + a[i]
//
// with values small enough that every precision meets a 0.9 TOQ.
func VecCombine(n int) *prog.Workload {
	mul := kir.NewKernel("mul", 1).In("a").In("b").Out("tmp").
		Body(kir.Put("tmp", kir.Gid(0), kir.Mul(kir.At("a", kir.Gid(0)), kir.At("b", kir.Gid(0))))).
		MustBuild()
	add := kir.NewKernel("add", 1).In("tmp").In("a").Out("c").
		Body(kir.Put("c", kir.Gid(0), kir.Add(kir.At("tmp", kir.Gid(0)), kir.At("a", kir.Gid(0))))).
		MustBuild()
	return &prog.Workload{
		Name:     "veccombine",
		Original: precision.Double,
		Objects: []prog.ObjectSpec{
			{Name: "a", Len: n, Kind: prog.ObjInput},
			{Name: "b", Len: n, Kind: prog.ObjInput},
			{Name: "tmp", Len: n, Kind: prog.ObjTemp},
			{Name: "c", Len: n, Kind: prog.ObjOutput},
		},
		Kernels: map[string]*kir.Program{
			"mul": kir.MustCompile(mul),
			"add": kir.MustCompile(add),
		},
		InputBytes:   n * 8,
		DefaultRange: [2]float64{0, 2},
		MakeInputs: func(set prog.InputSet) map[string][]float64 {
			a := make([]float64, n)
			b := make([]float64, n)
			scale := rangeScale(set, 2)
			for i := 0; i < n; i++ {
				a[i] = scale * (0.3 + float64(i%17)*0.07)
				b[i] = scale * (0.5 + float64(i%5)*0.09)
			}
			return map[string][]float64{"a": a, "b": b}
		},
		Script: func(x *prog.Exec) error {
			for _, obj := range []string{"a", "b"} {
				if err := x.Write(obj); err != nil {
					return err
				}
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

// HalfHostile returns a workload whose products exceed the binary16
// range (values around 1000, squared), so any configuration that stores
// or computes the product at half precision overflows and fails TOQ,
// while single precision passes.
func HalfHostile(n int) *prog.Workload {
	sq := kir.NewKernel("square", 1).In("a").Out("c").
		Body(kir.Put("c", kir.Gid(0), kir.Mul(kir.At("a", kir.Gid(0)), kir.At("a", kir.Gid(0))))).
		MustBuild()
	return &prog.Workload{
		Name:     "halfhostile",
		Original: precision.Double,
		Objects: []prog.ObjectSpec{
			{Name: "a", Len: n, Kind: prog.ObjInput},
			{Name: "c", Len: n, Kind: prog.ObjOutput},
		},
		Kernels:      map[string]*kir.Program{"square": kir.MustCompile(sq)},
		InputBytes:   n * 8,
		DefaultRange: [2]float64{900, 1100},
		MakeInputs: func(set prog.InputSet) map[string][]float64 {
			a := make([]float64, n)
			for i := 0; i < n; i++ {
				a[i] = 900 + float64(i%200) // squares in [810000, 1210000]: > half max
			}
			return map[string][]float64{"a": a}
		},
		Script: func(x *prog.Exec) error {
			if err := x.Write("a"); err != nil {
				return err
			}
			if err := x.Launch("square", [2]int{n, 1}, []string{"a", "c"}); err != nil {
				return err
			}
			return x.Read("c")
		},
	}
}

// RangeHostile returns a workload whose half-precision viability depends
// on the input set: it squares its input, and with random inputs (values
// around 1) every precision passes a 0.9 TOQ, while image-range inputs
// (values up to ~276) square past the binary16 maximum of 65504, so any
// configuration touching half fails. Session drift tests use it to force
// a TOQ-violation re-scale when inputs drift from random to image.
func RangeHostile(n int) *prog.Workload {
	sq := kir.NewKernel("square", 1).In("a").Out("c").
		Body(kir.Put("c", kir.Gid(0), kir.Mul(kir.At("a", kir.Gid(0)), kir.At("a", kir.Gid(0))))).
		MustBuild()
	return &prog.Workload{
		Name:     "rangehostile",
		Original: precision.Double,
		Objects: []prog.ObjectSpec{
			{Name: "a", Len: n, Kind: prog.ObjInput},
			{Name: "c", Len: n, Kind: prog.ObjOutput},
		},
		Kernels:      map[string]*kir.Program{"square": kir.MustCompile(sq)},
		InputBytes:   n * 8,
		DefaultRange: [2]float64{0, 2},
		MakeInputs: func(set prog.InputSet) map[string][]float64 {
			a := make([]float64, n)
			scale := rangeScale(set, 1)
			for i := 0; i < n; i++ {
				// random: values in [0.8, 1.08); image: [204.8, 276.5) whose
				// squares reach ~76000 — past half's 65504 for most elements.
				a[i] = scale * (1.6 + float64(i%8)*0.08)
			}
			return map[string][]float64{"a": a}
		},
		Script: func(x *prog.Exec) error {
			if err := x.Write("a"); err != nil {
				return err
			}
			if err := x.Launch("square", [2]int{n, 1}, []string{"a", "c"}); err != nil {
				return err
			}
			return x.Read("c")
		},
	}
}

// ComputeHeavy returns a kernel-dominated workload: each work item loops
// k times accumulating FMAs over a small input, so kernel time dwarfs the
// transfers.
func ComputeHeavy(n, k int) *prog.Workload {
	kern := kir.NewKernel("iterate", 1).In("a").Out("c").Ints("k").
		Body(
			kir.LetF("acc", kir.F(0)),
			kir.LetF("x", kir.At("a", kir.Gid(0))),
			kir.Loop("i", kir.I(0), kir.P("k"),
				kir.Set("acc", kir.Add(kir.Mul(kir.V("x"), kir.F(0.999)), kir.V("acc"))),
			),
			kir.Put("c", kir.Gid(0), kir.V("acc")),
		).MustBuild()
	return &prog.Workload{
		Name:     "computeheavy",
		Original: precision.Double,
		Objects: []prog.ObjectSpec{
			{Name: "a", Len: n, Kind: prog.ObjInput},
			{Name: "c", Len: n, Kind: prog.ObjOutput},
		},
		Kernels:      map[string]*kir.Program{"iterate": kir.MustCompile(kern)},
		InputBytes:   n * 8,
		DefaultRange: [2]float64{0, 1},
		MakeInputs: func(set prog.InputSet) map[string][]float64 {
			a := make([]float64, n)
			for i := 0; i < n; i++ {
				a[i] = 0.25 + float64(i%7)*0.1
			}
			return map[string][]float64{"a": a}
		},
		Script: func(x *prog.Exec) error {
			if err := x.Write("a"); err != nil {
				return err
			}
			if err := x.Launch("iterate", [2]int{n, 1}, []string{"a", "c"}, int64(k)); err != nil {
				return err
			}
			return x.Read("c")
		},
	}
}

// rangeScale maps an input set to a value scale: image data spans
// [0, 256), random data [0, 1), and the default set uses the given scale.
func rangeScale(set prog.InputSet, def float64) float64 {
	switch set {
	case prog.InputImage:
		return 128
	case prog.InputRandom:
		return 0.5
	default:
		return def
	}
}

// OnReference returns a copy of w whose kernels run on their
// kir.Program.Reference twins. Scripts launch kernels by name, so the
// copy is the reference side of a batch-vs-reference differential.
func OnReference(w *prog.Workload) *prog.Workload {
	cp := *w
	cp.Kernels = make(map[string]*kir.Program, len(w.Kernels))
	for name, p := range w.Kernels {
		cp.Kernels[name] = p.Reference()
	}
	return &cp
}

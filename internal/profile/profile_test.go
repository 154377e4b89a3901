package profile

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/precision"
	"repro/internal/prog"
)

// profWorkload: big input a (transfer heavy), small input b, output c.
// kernel1: c[i] = a[i] + b[i % m]; kernel2 reads only a.
func profWorkload(n, m int) *prog.Workload {
	k1 := kir.NewKernel("combine", 1).In("a").In("b").Out("c").Ints("m").
		Body(kir.Put("c", kir.Gid(0), kir.Add(kir.At("a", kir.Gid(0)), kir.At("b", kir.Mod(kir.Gid(0), kir.P("m")))))).
		MustBuild()
	k2 := kir.NewKernel("scale_a", 1).InOut("a").
		Body(kir.Put("a", kir.Gid(0), kir.Mul(kir.At("a", kir.Gid(0)), kir.F(2)))).
		MustBuild()
	return &prog.Workload{
		Name:     "profwl",
		Original: precision.Double,
		Objects: []prog.ObjectSpec{
			{Name: "a", Len: n, Kind: prog.ObjInput},
			{Name: "b", Len: m, Kind: prog.ObjInput},
			{Name: "c", Len: n, Kind: prog.ObjOutput},
		},
		Kernels: map[string]*kir.Program{
			"combine": kir.MustCompile(k1),
			"scale_a": kir.MustCompile(k2),
		},
		MakeInputs: func(set prog.InputSet) map[string][]float64 {
			a := make([]float64, n)
			b := make([]float64, m)
			for i := range a {
				a[i] = float64(i % 31)
			}
			for i := range b {
				b[i] = float64(i)
			}
			return map[string][]float64{"a": a, "b": b}
		},
		Script: func(x *prog.Exec) error {
			if err := x.Write("a"); err != nil {
				return err
			}
			if err := x.Write("b"); err != nil {
				return err
			}
			if err := x.Launch("scale_a", [2]int{n, 1}, []string{"a"}); err != nil {
				return err
			}
			if err := x.Launch("combine", [2]int{n, 1}, []string{"a", "b", "c"}, int64(m)); err != nil {
				return err
			}
			return x.Read("c")
		},
	}
}

func TestProfileBasics(t *testing.T) {
	w := profWorkload(4096, 64)
	info, res, err := Profile(hw.System1(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Workload != "profwl" {
		t.Error("workload name")
	}
	if info.Total != res.Total {
		t.Error("total mismatch")
	}
	if len(info.Objects) != 3 {
		t.Fatalf("objects = %d", len(info.Objects))
	}
	if len(info.Kernels) != 2 {
		t.Fatalf("kernels = %d", len(info.Kernels))
	}
	// Kernels sorted by name.
	if info.Kernels[0].Name != "combine" || info.Kernels[1].Name != "scale_a" {
		t.Errorf("kernel order: %v %v", info.Kernels[0].Name, info.Kernels[1].Name)
	}
	if info.Kernels[0].Launches != 1 || len(info.Kernels[0].Args) != 3 {
		t.Errorf("combine info: %+v", info.Kernels[0])
	}
}

func TestObjectEffectiveTimeOrdering(t *testing.T) {
	// a is large and bound to both kernels; b is tiny. a must sort first,
	// and b must come last.
	w := profWorkload(65536, 16)
	info, _, err := Profile(hw.System1(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Objects[0].Name != "a" {
		t.Errorf("largest object should be first: %v", info.Objects[0].Name)
	}
	if info.Objects[len(info.Objects)-1].Name != "b" {
		t.Errorf("smallest object should be last: %v", info.Objects[len(info.Objects)-1].Name)
	}
	for i := 1; i < len(info.Objects); i++ {
		if info.Objects[i-1].EffectiveTime < info.Objects[i].EffectiveTime {
			t.Error("objects must be sorted by descending effective time")
		}
	}
}

func TestObjectTransfers(t *testing.T) {
	w := profWorkload(4096, 64)
	info, _, err := Profile(hw.System1(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := info.Object("a")
	if a == nil {
		t.Fatal("object a missing")
	}
	if len(a.Transfers) != 1 || a.Transfers[0].Dir != ocl.DirHtoD || a.Transfers[0].Elems != 4096 {
		t.Errorf("a transfers: %+v", a.Transfers)
	}
	c := info.Object("c")
	if len(c.Transfers) != 1 || c.Transfers[0].Dir != ocl.DirDtoH {
		t.Errorf("c transfers: %+v", c.Transfers)
	}
	if a.TransferTime() <= 0 {
		t.Error("transfer time must be positive")
	}
	// a participates in both kernels; c in one.
	if a.KernelTime <= c.KernelTime {
		t.Errorf("a kernel time (%v) should exceed c's (%v)", a.KernelTime, c.KernelTime)
	}
	if info.Object("zz") != nil {
		t.Error("unknown object lookup should be nil")
	}
}

func TestEffectiveTimeDecomposition(t *testing.T) {
	w := profWorkload(4096, 64)
	info, _, err := Profile(hw.System1(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range info.Objects {
		if math.Abs(o.EffectiveTime-(o.TransferTime()+o.KernelTime)) > 1e-15 {
			t.Errorf("object %s: effective %v != transfer %v + kernel %v", o.Name, o.EffectiveTime, o.TransferTime(), o.KernelTime)
		}
	}
}

func TestTransferFraction(t *testing.T) {
	w := profWorkload(1<<18, 16)
	info, _, err := Profile(hw.System1(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := info.TransferFraction()
	if f <= 0 || f >= 1 {
		t.Errorf("transfer fraction = %v", f)
	}
	// This trivially mem-bound workload is data-intensive: transfers dominate.
	if f < 0.5 {
		t.Errorf("expected data-intensive workload, transfer fraction = %v", f)
	}
	empty := &AppInfo{}
	if empty.TransferFraction() != 0 {
		t.Error("zero-total fraction should be 0")
	}
}

func TestFromResultIdempotent(t *testing.T) {
	w := profWorkload(1024, 16)
	res, err := prog.Run(hw.System2(), w, prog.InputDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := FromResult(w, res)
	b := FromResult(w, res)
	if len(a.Objects) != len(b.Objects) {
		t.Fatal("nondeterministic profiling")
	}
	for i := range a.Objects {
		if a.Objects[i].Name != b.Objects[i].Name || a.Objects[i].EffectiveTime != b.Objects[i].EffectiveTime {
			t.Fatal("nondeterministic object info")
		}
	}
}

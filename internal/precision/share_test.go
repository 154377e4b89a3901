package precision

import (
	"math"
	"sync"
	"testing"
)

// views returns four arrays sharing one storage: the original, a Share,
// an Adopt and a same-precision Convert.
func views() []*Array {
	a := FromSlice(Single, []float64{1, 2, 3, 4})
	adopted := NewArray(Single, 4)
	adopted.Adopt(a)
	return []*Array{a, a.Share(), adopted, a.Convert(Single)}
}

func TestShareForksOnEveryMutator(t *testing.T) {
	src := FromSlice(Double, []float64{9.5, 8.5, 7.5, 6.5})
	mutators := map[string]func(*Array){
		"Set":             func(a *Array) { a.Set(2, 100) },
		"Data":            func(a *Array) { a.Data()[2] = 100 },
		"Fill":            func(a *Array) { a.Fill(100) },
		"CopyFrom narrow": func(a *Array) { a.CopyFrom(src) },
		"CopyFrom same":   func(a *Array) { a.CopyFrom(FromSlice(Single, []float64{0, 0, 100, 0})) },
		"Adopt":           func(a *Array) { a.Adopt(FromSlice(Single, []float64{0, 0, 100, 0})) },
	}
	for name, mutate := range mutators {
		for w := 0; w < 4; w++ {
			vs := views()
			mutate(vs[w])
			if vs[w].Get(2) == 3 {
				t.Errorf("%s through view %d did not write", name, w)
			}
			for o, v := range vs {
				if o == w {
					continue
				}
				for i, want := range []float64{1, 2, 3, 4} {
					if got := v.Get(i); got != want {
						t.Errorf("%s through view %d: view %d[%d] = %v, want %v", name, w, o, i, got, want)
					}
				}
			}
		}
	}
}

func TestLazyZeroArray(t *testing.T) {
	a := NewArray(Half, 5)
	if a.Len() != 5 || a.Bytes() != 10 {
		t.Errorf("lazy Len/Bytes = %d/%d, want 5/10", a.Len(), a.Bytes())
	}
	if a.data != nil {
		t.Fatal("NewArray allocated storage before first touch")
	}
	b := NewArray(Half, 5)
	b.Adopt(FromSlice(Half, []float64{1, 2, 3, 4, 5}))
	if b.Get(4) != 5 {
		t.Error("adopting into an untouched array lost the values")
	}
	for i, v := range a.Values() {
		if v != 0 || math.Signbit(v) {
			t.Errorf("lazy [%d] = %v, want +0", i, v)
		}
	}
	if a.Len() != 5 || a.Bytes() != 10 {
		t.Errorf("touched Len/Bytes = %d/%d, want 5/10", a.Len(), a.Bytes())
	}
	if s := NewArray(Double, 3).Share(); s.Len() != 3 || s.Get(2) != 0 {
		t.Error("a view of a lazy zero array must read as zeros")
	}
	defer func() {
		if recover() == nil {
			t.Error("Get past Len on a lazy array must panic")
		}
	}()
	NewArray(Single, 2).Get(2)
}

func TestConvertSharesWideningRoundsNarrowing(t *testing.T) {
	src := FromSlice(Single, []float64{1.0 / 3.0, 65519, 1e-8})
	for _, tt := range []Type{Single, Double} {
		c := src.Convert(tt)
		if c.Elem() != tt || &c.Values()[0] != &src.Values()[0] {
			t.Errorf("Convert(%v) must share the source storage", tt)
		}
	}
	h := src.Convert(Half)
	if &h.Values()[0] == &src.Values()[0] {
		t.Fatal("narrowing Convert must not share")
	}
	for i := 0; i < src.Len(); i++ {
		if want := Round(src.Get(i), Half); math.Float64bits(h.Get(i)) != math.Float64bits(want) {
			t.Errorf("Convert(Half)[%d] = %v, want %v", i, h.Get(i), want)
		}
	}
	d := NewArray(Double, 3)
	d.CopyFrom(src)
	if &d.Values()[0] != &src.Values()[0] {
		t.Error("widening CopyFrom must share")
	}
}

func TestAdopt(t *testing.T) {
	src := FromSlice(Half, []float64{1, 2, 3})
	dst := NewArray(Half, 3)
	dst.Adopt(src)
	for i := 0; i < 3; i++ {
		if dst.Get(i) != src.Get(i) {
			t.Errorf("elem %d: %v != %v", i, dst.Get(i), src.Get(i))
		}
	}
	for name, f := range map[string]func(){
		"elem mismatch": func() { NewArray(Single, 3).Adopt(src) },
		"len mismatch":  func() { NewArray(Half, 4).Adopt(src) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Adopt %s must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFrozenArrayIsNeverWritten pins the property concurrent trial
// workers rely on: reading, sharing, adopting from and converting a
// frozen array leave it bit-for-bit unchanged, flags included. Run under
// -race, the goroutines also catch any write the comparison would miss.
func TestFrozenArrayIsNeverWritten(t *testing.T) {
	a := FromSlice(Half, []float64{1, 2, 3}).Freeze()
	before := *a
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := a.Share()
			v.Set(0, 5)
			b := NewArray(Half, 3)
			b.Adopt(a)
			NewArray(Double, 3).CopyFrom(a)
			_ = a.Convert(Single).Get(1) + a.Values()[2] + a.Get(0)
			a.Freeze()
		}()
	}
	wg.Wait()
	if a.elem != before.elem || a.n != before.n || a.shared != before.shared || &a.data[0] != &before.data[0] {
		t.Errorf("frozen array changed: %+v -> %+v", before, *a)
	}
	if a.Get(0) != 1 {
		t.Errorf("a write through a view reached the frozen array: %v", a.Get(0))
	}
}

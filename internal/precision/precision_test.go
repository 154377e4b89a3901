package precision

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeBasics(t *testing.T) {
	if Half.Size() != 2 || Single.Size() != 4 || Double.Size() != 8 {
		t.Fatal("sizes wrong")
	}
	if Half.Bits() != 16 || Double.Bits() != 64 {
		t.Fatal("bits wrong")
	}
	if Invalid.Valid() || !Half.Valid() || !Double.Valid() {
		t.Fatal("validity wrong")
	}
	if Half.String() != "FP16" || Single.String() != "FP32" || Double.String() != "FP64" {
		t.Fatal("names wrong")
	}
	if Invalid.Size() != 0 {
		t.Fatal("invalid size should be 0")
	}
}

func TestPromote(t *testing.T) {
	cases := []struct{ a, b, want Type }{
		{Half, Half, Half},
		{Half, Single, Single},
		{Single, Half, Single},
		{Half, Double, Double},
		{Double, Single, Double},
		{Double, Double, Double},
	}
	for _, c := range cases {
		if got := Promote(c.a, c.b); got != c.want {
			t.Errorf("Promote(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBelow(t *testing.T) {
	if got := Double.Below(); len(got) != 2 || got[0] != Single || got[1] != Half {
		t.Errorf("Double.Below() = %v", got)
	}
	if got := Single.Below(); len(got) != 1 || got[0] != Half {
		t.Errorf("Single.Below() = %v", got)
	}
	if got := Half.Below(); len(got) != 0 {
		t.Errorf("Half.Below() = %v", got)
	}
}

func TestRound(t *testing.T) {
	if Round(math.Pi, Double) != math.Pi {
		t.Error("Double rounding must be identity")
	}
	if Round(math.Pi, Single) != float64(float32(math.Pi)) {
		t.Error("Single rounding mismatch")
	}
	if Round(1e5, Half) != math.Inf(1) {
		t.Error("Half overflow should produce +Inf")
	}
	if Round(0.333251953125, Half) != 0.333251953125 {
		t.Error("representable half value should be unchanged")
	}
}

func TestPropertyRoundOrdering(t *testing.T) {
	// Rounding at a lower precision never produces a value farther from x
	// than the precision's ULP bound allows, and Half/Single/Double rounds
	// agree on values exactly representable at Half.
	f := func(raw uint16) bool {
		x := Round(float64(raw)*0.001, Half) // snap to a half-representable value
		return Round(x, Single) == x && Round(x, Double) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayStoreRounds(t *testing.T) {
	a := NewArray(Half, 4)
	a.Set(0, math.Pi)
	if a.Get(0) != Round(math.Pi, Half) {
		t.Errorf("Set did not round: %v", a.Get(0))
	}
	a.Set(1, 1e9)
	if !math.IsInf(a.Get(1), 1) {
		t.Error("half overflow on store should give +Inf")
	}
	if a.Len() != 4 || a.Bytes() != 8 {
		t.Errorf("Len/Bytes = %d/%d", a.Len(), a.Bytes())
	}
}

func TestArrayConvertClone(t *testing.T) {
	src := FromSlice(Double, []float64{1, math.Pi, 2048.5, 1e-9})
	h := src.Convert(Half)
	if h.Elem() != Half {
		t.Fatal("convert elem")
	}
	for i := 0; i < src.Len(); i++ {
		if h.Get(i) != Round(src.Get(i), Half) {
			t.Errorf("elem %d: %v != %v", i, h.Get(i), Round(src.Get(i), Half))
		}
	}
	c := src.Share()
	c.Set(0, 7)
	if src.Get(0) == 7 {
		t.Error("a shared view must not alias on write")
	}
}

// FromSlice copies and leaves its argument alone; Wrap rounds its
// argument in place and keeps it as the array's storage.
func TestWrapRoundsInPlace(t *testing.T) {
	vals := []float64{1, math.Pi, 2048.5, 1e-9}
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = Round(v, Half)
	}
	c := FromSlice(Half, vals)
	if vals[1] != math.Pi || &c.Values()[0] == &vals[0] {
		t.Fatal("FromSlice must copy and leave its argument unrounded")
	}
	w := Wrap(Half, vals)
	if &w.Values()[0] != &vals[0] {
		t.Fatal("Wrap copied its argument")
	}
	for i := range want {
		if vals[i] != want[i] || w.Get(i) != want[i] || c.Get(i) != want[i] {
			t.Errorf("elem %d: wrapped %v, FromSlice %v, want %v", i, w.Get(i), c.Get(i), want[i])
		}
	}
	if d := Wrap(Double, []float64{math.Pi}); d.Get(0) != math.Pi {
		t.Errorf("Wrap at Double changed a value: %v", d.Get(0))
	}
	if Wrap(Single, nil).Len() != 0 || len(Wrap(Single, nil).Values()) != 0 {
		t.Error("Wrap of nil must be an empty array")
	}
}

func TestArrayCopyFromFill(t *testing.T) {
	dst := NewArray(Half, 3)
	src := FromSlice(Double, []float64{1, 2, 3.0001})
	dst.CopyFrom(src)
	if dst.Get(2) != Round(3.0001, Half) {
		t.Error("CopyFrom should round")
	}
	dst.Fill(math.Pi)
	for i := 0; i < 3; i++ {
		if dst.Get(i) != Round(math.Pi, Half) {
			t.Error("Fill should round")
		}
	}
}

func TestArrayPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("invalid type", func() { NewArray(Invalid, 1) })
	mustPanic("negative len", func() { NewArray(Half, -1) })
	mustPanic("CopyFrom mismatch", func() {
		NewArray(Half, 2).CopyFrom(NewArray(Half, 3))
	})
}

func TestMeanRelativeError(t *testing.T) {
	ref := []float64{1, 2, 4}
	got := []float64{1.1, 2, 4}
	mre := MeanRelativeError(ref, got)
	want := (0.1 / 1.0) / 3
	if math.Abs(mre-want) > 1e-12 {
		t.Errorf("MRE = %v, want %v", mre, want)
	}
	if MeanRelativeError(nil, nil) != 0 {
		t.Error("empty MRE should be 0")
	}
}

func TestMeanRelativeErrorNonFinite(t *testing.T) {
	// Inf/NaN in got count as total loss for that element.
	ref := []float64{1, 1}
	got := []float64{math.Inf(1), 1}
	if mre := MeanRelativeError(ref, got); mre != 0.5 {
		t.Errorf("Inf element MRE = %v, want 0.5", mre)
	}
	got = []float64{math.NaN(), 1}
	if mre := MeanRelativeError(ref, got); mre != 0.5 {
		t.Errorf("NaN element MRE = %v, want 0.5", mre)
	}
	// Matching infinities are fine (both overflowed the same way).
	if mre := MeanRelativeError([]float64{math.Inf(1)}, []float64{math.Inf(1)}); mre != 0 {
		t.Errorf("matching Inf MRE = %v, want 0", mre)
	}
	if mre := MeanRelativeError([]float64{math.Inf(1)}, []float64{math.Inf(-1)}); mre != 1 {
		t.Errorf("opposite Inf MRE = %v, want 1", mre)
	}
}

func TestMeanRelativeErrorSmallMagnitude(t *testing.T) {
	// Near-zero references switch to absolute error.
	ref := []float64{0}
	got := []float64{1e-7}
	if mre := MeanRelativeError(ref, got); mre != 1e-7 {
		t.Errorf("small-ref MRE = %v, want 1e-7", mre)
	}
	// Error is capped at 1 per element.
	got = []float64{5}
	if mre := MeanRelativeError(ref, got); mre != 1 {
		t.Errorf("capped MRE = %v, want 1", mre)
	}
}

func TestQuality(t *testing.T) {
	ref := []float64{1, 2, 3}
	if q := Quality(ref, ref); q != 1 {
		t.Errorf("identical quality = %v, want 1", q)
	}
	got := []float64{math.NaN(), math.NaN(), math.NaN()}
	if q := Quality(ref, got); q != 0 {
		t.Errorf("all-NaN quality = %v, want 0", q)
	}
}

func TestPropertyQualityBounds(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		ref := []float64{a, b}
		got := []float64{c, d}
		q := Quality(ref, got)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQualityOfRoundedHalf(t *testing.T) {
	// Rounding in-range values to half keeps quality high: relative error is
	// bounded by 2^-11 per element for values in the normal range.
	f := func(seed uint32) bool {
		ref := make([]float64, 16)
		got := make([]float64, 16)
		x := float64(seed%1000) + 1
		for i := range ref {
			v := x + float64(i)*0.25
			ref[i] = v
			got[i] = Round(v, Half)
		}
		return Quality(ref, got) > 1-math.Pow(2, -10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQualityArrays(t *testing.T) {
	r1 := FromSlice(Double, []float64{1, 2})
	r2 := FromSlice(Double, []float64{4})
	g1 := FromSlice(Double, []float64{1, 2})
	g2 := FromSlice(Double, []float64{2}) // 50% relative error on 1 of 3 elements
	q := QualityArrays([]*Array{r1, r2}, []*Array{g1, g2})
	want := 1 - 0.5/3
	if math.Abs(q-want) > 1e-12 {
		t.Errorf("QualityArrays = %v, want %v", q, want)
	}
	if QualityArrays(nil, nil) != 1 {
		t.Error("empty QualityArrays should be 1")
	}
}

package fp16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecialValues(t *testing.T) {
	cases := []struct {
		name string
		bits Bits
		f64  float64
	}{
		{"+0", PositiveZero, 0},
		{"-0", NegativeZero, math.Copysign(0, -1)},
		{"+Inf", PositiveInfinity, math.Inf(1)},
		{"-Inf", NegativeInfinity, math.Inf(-1)},
		{"1.0", 0x3c00, 1.0},
		{"-1.0", 0xbc00, -1.0},
		{"2.0", 0x4000, 2.0},
		{"0.5", 0x3800, 0.5},
		{"max", 0x7bff, 65504},
		{"-max", 0xfbff, -65504},
		{"min normal", 0x0400, MinNormal},
		{"smallest subnormal", 0x0001, SmallestSubnormal},
		{"epsilon", 0x1400, Epsilon},
		{"1/3 rounded", 0x3555, 0.333251953125},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.bits.Float64(); got != c.f64 && !(math.IsNaN(got) && math.IsNaN(c.f64)) {
				// Compare signed zero by bits.
				if got == 0 && c.f64 == 0 {
					if math.Signbit(got) != math.Signbit(c.f64) {
						t.Fatalf("Float64(%#04x) = %v, want %v (sign mismatch)", uint16(c.bits), got, c.f64)
					}
					return
				}
				t.Fatalf("Float64(%#04x) = %v, want %v", uint16(c.bits), got, c.f64)
			}
			if got := FromFloat64(c.f64); got != c.bits {
				t.Fatalf("FromFloat64(%v) = %#04x, want %#04x", c.f64, uint16(got), uint16(c.bits))
			}
		})
	}
}

func TestNaN(t *testing.T) {
	n := FromFloat64(math.NaN())
	if !n.IsNaN() {
		t.Fatalf("FromFloat64(NaN) = %#04x, not NaN", uint16(n))
	}
	if !math.IsNaN(n.Float64()) {
		t.Fatalf("NaN.Float64() = %v, want NaN", n.Float64())
	}
	if QuietNaN.IsFinite() || QuietNaN.IsInf(0) {
		t.Fatal("QuietNaN misclassified")
	}
}

func TestOverflowToInfinity(t *testing.T) {
	for _, f := range []float64{65520, 1e5, 1e300, math.MaxFloat64} {
		if got := FromFloat64(f); got != PositiveInfinity {
			t.Errorf("FromFloat64(%v) = %#04x, want +Inf", f, uint16(got))
		}
		if got := FromFloat64(-f); got != NegativeInfinity {
			t.Errorf("FromFloat64(%v) = %#04x, want -Inf", -f, uint16(got))
		}
	}
	// 65519.999... rounds down to max, 65520 is the tie that rounds to even
	// (infinity), anything above is clearly out of range.
	if got := FromFloat64(65519.96); got != 0x7bff {
		t.Errorf("FromFloat64(65519.96) = %#04x, want max finite", uint16(got))
	}
}

func TestUnderflowToZero(t *testing.T) {
	for _, f := range []float64{1e-9, 2.9e-8, math.SmallestNonzeroFloat64} {
		if got := FromFloat64(f); got != PositiveZero {
			t.Errorf("FromFloat64(%v) = %#04x, want +0", f, uint16(got))
		}
		if got := FromFloat64(-f); got != NegativeZero {
			t.Errorf("FromFloat64(%v) = %#04x, want -0", -f, uint16(got))
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 (even mantissa) and 1+2^-10:
	// ties-to-even keeps 1.0.
	if got := FromFloat64(1 + math.Pow(2, -11)); got != 0x3c00 {
		t.Errorf("tie at 1+2^-11 = %#04x, want 0x3c00", uint16(got))
	}
	// (1+2^-10) + 2^-11 is halfway between odd mantissa 0x3c01 and 0x3c02:
	// rounds up to even.
	if got := FromFloat64(1 + math.Pow(2, -10) + math.Pow(2, -11)); got != 0x3c02 {
		t.Errorf("tie above odd = %#04x, want 0x3c02", uint16(got))
	}
	// Slightly above the tie rounds up.
	if got := FromFloat64(1 + math.Pow(2, -11) + math.Pow(2, -20)); got != 0x3c01 {
		t.Errorf("above tie = %#04x, want 0x3c01", uint16(got))
	}
}

func TestSubnormals(t *testing.T) {
	// Smallest subnormal times k should round-trip for k in [1, 1023].
	for k := 1; k <= 1023; k += 51 {
		f := float64(k) * SmallestSubnormal
		b := FromFloat64(f)
		if !b.IsSubnormal() {
			t.Fatalf("%v should be subnormal, got %#04x", f, uint16(b))
		}
		if got := b.Float64(); got != f {
			t.Fatalf("subnormal round trip: %v -> %v", f, got)
		}
	}
}

func TestExhaustiveRoundTrip(t *testing.T) {
	// Every one of the 65536 half patterns must survive half -> f64 -> half
	// (NaNs may canonicalize, zeros keep sign).
	for i := 0; i <= 0xffff; i++ {
		h := Bits(i)
		f := h.Float64()
		back := FromFloat64(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("NaN %#04x -> %v -> %#04x (not NaN)", i, f, uint16(back))
			}
			continue
		}
		if back != h {
			t.Fatalf("round trip %#04x -> %v -> %#04x", i, f, uint16(back))
		}
	}
}

func TestExhaustiveFloat32Float64Agree(t *testing.T) {
	for i := 0; i <= 0xffff; i++ {
		h := Bits(i)
		f32 := h.Float32()
		f64 := h.Float64()
		if math.IsNaN(f64) {
			if !math.IsNaN(float64(f32)) {
				t.Fatalf("%#04x: Float32=%v Float64=%v", i, f32, f64)
			}
			continue
		}
		if float64(f32) != f64 {
			t.Fatalf("%#04x: Float32=%v Float64=%v disagree", i, f32, f64)
		}
	}
}

// TestExhaustiveMidpointOracle checks double->half and single->half
// rounding, and Round, against an oracle built from the half grid alone.
// For every pair of consecutive finite halves a < b of either sign (the
// last pair being 65504 and 65536, which is out of range and rounds to
// infinity), one ULP below their exact midpoint must round to a, one ULP
// above to b, and the midpoint itself to whichever has the even pattern.
func TestExhaustiveMidpointOracle(t *testing.T) {
	// value is the magnitude of half pattern i, read from its fields.
	value := func(i int) float64 {
		exp, mant := i>>10, i&0x3ff
		if exp == 0 {
			return math.Ldexp(float64(mant), -24)
		}
		return math.Ldexp(float64(0x400|mant), exp-25)
	}
	for i := 0; i < int(PositiveInfinity); i++ {
		lo, hi := Bits(i), Bits(i+1)
		tie := lo
		if hi&1 == 0 {
			tie = hi
		}
		mid := (value(i) + value(i+1)) / 2 // exact: at most 12 significant bits
		mid32 := float32(mid)
		for _, sign := range []Bits{0, signMask} {
			s := 1.0
			if sign != 0 {
				s = -1
			}
			for _, c := range []struct {
				f64  float64
				f32  float32
				want Bits
			}{
				{math.Nextafter(mid, 0), math.Nextafter32(mid32, 0), lo},
				{mid, mid32, tie},
				{math.Nextafter(mid, math.Inf(1)), math.Nextafter32(mid32, float32(math.Inf(1))), hi},
			} {
				if got := FromFloat64(s * c.f64); got != sign|c.want {
					t.Fatalf("FromFloat64(%g) = %#04x, want %#04x", s*c.f64, uint16(got), uint16(sign|c.want))
				}
				if got := FromFloat32(float32(s) * c.f32); got != sign|c.want {
					t.Fatalf("FromFloat32(%g) = %#04x, want %#04x", float32(s)*c.f32, uint16(got), uint16(sign|c.want))
				}
				if got, want := Round(s*c.f64), (sign | c.want).Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Round(%g) = %g, want %g", s*c.f64, got, want)
				}
			}
		}
	}
}

// TestRoundMatchesBits compares Round, which rounds in the float64
// bits, with the round trip through Bits on the values where the two
// could part: signed zeros and infinities, NaNs with payloads, the
// overflow boundary, both sides of MinNormal, the bottom of the
// subnormal range and float64 subnormals.
func TestRoundMatchesBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{
		0, negZero, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000abc),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7fffffffffffffff),
		65504, math.Nextafter(65520, 0), 65520, math.Nextafter(65520, math.Inf(1)), 65536,
		math.Nextafter(MinNormal, 0), MinNormal, math.Nextafter(MinNormal, 1),
		SmallestSubnormal, math.Nextafter(SmallestSubnormal, 0),
		math.Nextafter(SmallestSubnormal/2, 0), SmallestSubnormal / 2, math.Nextafter(SmallestSubnormal/2, 1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
	}
	for _, v := range vals {
		for _, x := range []float64{v, -v} {
			got, want := Round(x), FromFloat64(x).Float64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Round(%g [%#016x]) = %#016x, want %#016x",
					x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// FuzzRound requires Round to match the round trip through Bits bit for
// bit on arbitrary float64 bit patterns.
func FuzzRound(f *testing.F) {
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		got, want := Round(x), FromFloat64(x).Float64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Round(%#016x) = %#016x, want %#016x", b, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

func TestFromFloat32MatchesFromFloat64(t *testing.T) {
	// For every float32 that is exactly representable from a half-ULP grid,
	// the two conversion paths must agree. Sample a broad grid.
	vals := []float32{0, 1, -1, 0.1, 1e-3, 1e-5, 1e-7, 3.14159, 65504, 65519.9, 65520, 1e10, -2.5e-8}
	for _, v := range vals {
		if a, b := FromFloat32(v), FromFloat64(float64(v)); a != b {
			t.Errorf("FromFloat32(%v)=%#04x FromFloat64=%#04x", v, uint16(a), uint16(b))
		}
	}
}

func TestPropertyRoundIdempotent(t *testing.T) {
	f := func(x float64) bool {
		r := Round(x)
		return math.IsNaN(r) || Round(r) == r || (r == 0 && Round(r) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundMonotone(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		rx, ry := Round(x), Round(y)
		return rx <= ry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundWithinHalfULP(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > MaxValue {
			return true
		}
		r := Round(x)
		if math.IsInf(r, 0) {
			// Only the very top of the range may round to Inf.
			return math.Abs(x) > 65504-16
		}
		// Relative error bounded by 2^-11 for normal range; absolute by the
		// subnormal ULP otherwise.
		if math.Abs(x) >= MinNormal {
			return math.Abs(r-x) <= math.Abs(x)*math.Pow(2, -11)+1e-300
		}
		return math.Abs(r-x) <= SmallestSubnormal/2+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestArithmetic(t *testing.T) {
	one := FromFloat64(1)
	two := FromFloat64(2)
	three := FromFloat64(3)
	if got := Add(one, two); got != three {
		t.Errorf("1+2 = %#04x, want 3", uint16(got))
	}
	if got := Sub(three, two); got != one {
		t.Errorf("3-2 = %#04x, want 1", uint16(got))
	}
	if got := Mul(two, three); got.Float64() != 6 {
		t.Errorf("2*3 = %v, want 6", got.Float64())
	}
	if got := Div(three, two); got.Float64() != 1.5 {
		t.Errorf("3/2 = %v, want 1.5", got.Float64())
	}
	if got := Sqrt(FromFloat64(4)); got.Float64() != 2 {
		t.Errorf("sqrt(4) = %v, want 2", got.Float64())
	}
	if got := FMA(two, three, one); got.Float64() != 7 {
		t.Errorf("fma(2,3,1) = %v, want 7", got.Float64())
	}
	// Overflow in arithmetic.
	big := FromFloat64(60000)
	if got := Add(big, big); !got.IsInf(1) {
		t.Errorf("60000+60000 = %v, want +Inf", got.Float64())
	}
	// Precision loss: 2048 + 1 is not representable (ULP at 2048 is 2).
	if got := Add(FromFloat64(2048), one); got.Float64() != 2048 {
		t.Errorf("2048+1 = %v, want 2048 (absorbed)", got.Float64())
	}
}

func TestComparisons(t *testing.T) {
	if !Less(FromFloat64(1), FromFloat64(2)) {
		t.Error("1 < 2 failed")
	}
	if Less(QuietNaN, FromFloat64(1)) || Less(FromFloat64(1), QuietNaN) {
		t.Error("NaN ordered comparison should be false")
	}
	if !Equal(PositiveZero, NegativeZero) {
		t.Error("+0 should equal -0")
	}
	if Equal(QuietNaN, QuietNaN) {
		t.Error("NaN should not equal NaN")
	}
}

func TestClassification(t *testing.T) {
	if !PositiveZero.IsZero() || !NegativeZero.IsZero() {
		t.Error("zero classification")
	}
	if !NegativeInfinity.IsInf(-1) || NegativeInfinity.IsInf(1) {
		t.Error("-Inf classification")
	}
	if !FromFloat64(1).IsFinite() {
		t.Error("1 should be finite")
	}
	if !NegativeZero.Signbit() || PositiveZero.Signbit() {
		t.Error("signbit")
	}
	if Bits(0x0001).IsZero() || !Bits(0x0001).IsSubnormal() {
		t.Error("subnormal classification")
	}
}

func TestNegAbs(t *testing.T) {
	one := FromFloat64(1)
	if one.Neg().Float64() != -1 {
		t.Error("Neg(1) != -1")
	}
	if one.Neg().Abs() != one {
		t.Error("Abs(Neg(1)) != 1")
	}
	if !QuietNaN.Neg().IsNaN() {
		t.Error("Neg(NaN) should stay NaN")
	}
}

func TestNextPrev(t *testing.T) {
	one := FromFloat64(1)
	n := Next(one)
	if n.Float64() != 1+Epsilon {
		t.Errorf("Next(1) = %v, want %v", n.Float64(), 1+Epsilon)
	}
	if Prev(n) != one {
		t.Error("Prev(Next(1)) != 1")
	}
	if Next(PositiveZero) != 0x0001 {
		t.Error("Next(+0) should be smallest subnormal")
	}
	if Next(NegativeZero) != 0x0001 {
		t.Error("Next(-0) should be smallest subnormal")
	}
	if Prev(PositiveZero) != 0x8001 {
		t.Error("Prev(+0) should be smallest negative subnormal")
	}
	if Next(PositiveInfinity) != PositiveInfinity {
		t.Error("Next(+Inf) should saturate")
	}
	if Prev(NegativeInfinity) != NegativeInfinity {
		t.Error("Prev(-Inf) should saturate")
	}
	// Walking Next from 0 must be strictly increasing over a sample.
	h := PositiveZero
	prev := h.Float64()
	for i := 0; i < 1000; i++ {
		h = Next(h)
		f := h.Float64()
		if f <= prev {
			t.Fatalf("Next not increasing at step %d: %v -> %v", i, prev, f)
		}
		prev = f
	}
}

func TestPropertyNextPrevInverse(t *testing.T) {
	f := func(raw uint16) bool {
		h := Bits(raw)
		if h.IsNaN() || h.IsInf(0) {
			return true
		}
		// Prev(Next(h)) == h except where Next saturates at +Inf.
		n := Next(h)
		if n == PositiveInfinity {
			return true
		}
		p := Prev(n)
		// -0/+0 aliasing: Next(-0) = subnormal, Prev(subnormal) = +0.
		if h == NegativeZero {
			return p == PositiveZero
		}
		return p == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFromFloat64(b *testing.B) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i) * 0.37
	}
	b.ResetTimer()
	var sink Bits
	for i := 0; i < b.N; i++ {
		sink = FromFloat64(vals[i&1023])
	}
	_ = sink
}

func BenchmarkRound(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = Round(float64(i) * 1.00001)
	}
	_ = sink
}

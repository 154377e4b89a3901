package precision

import (
	"math"
	"testing"
)

func TestRoundSliceBitExact(t *testing.T) {
	src := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.0 / 3.0,
		math.NaN(), math.Inf(1), math.Inf(-1),
		65504, 65520, 1e300, 5.960464477539063e-08,
		1.0009765625, 1.00146484375, -3.14159265358979,
	}
	for _, tt := range []Type{Half, Single, Double} {
		dst := make([]float64, len(src))
		RoundSlice(dst, src, tt)
		for i, v := range src {
			want := Round(v, tt)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Errorf("RoundSlice(%v)[%d] (%g) = %x, want %x", tt, i, v, dst[i], want)
			}
		}
	}
}

// TestConvertWideningIsExact pins the fast path: converting to the same
// or a wider type must preserve every stored value bit-for-bit.
func TestConvertWideningIsExact(t *testing.T) {
	src := FromSlice(Half, []float64{0.5, 1.0 / 3.0, 65504, -2})
	for _, tt := range []Type{Half, Single, Double} {
		got := src.Convert(tt)
		for i := 0; i < src.Len(); i++ {
			if math.Float64bits(got.Get(i)) != math.Float64bits(src.Get(i)) {
				t.Errorf("Convert(%v)[%d] = %x, want %x", tt, i, got.Get(i), src.Get(i))
			}
		}
	}
}

var roundSink []float64

func BenchmarkConvertBatch(b *testing.B) {
	n := 1 << 16
	src := make([]float64, n)
	for i := range src {
		src[i] = 0.1 + float64(i)*0.25
	}
	dst := make([]float64, n)
	for _, tt := range []struct {
		name string
		t    Type
	}{{"half", Half}, {"single", Single}} {
		b.Run(tt.name, func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				RoundSlice(dst, src, tt.t)
			}
			roundSink = dst
		})
	}
}

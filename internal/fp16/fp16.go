// Package fp16 implements IEEE 754 binary16 ("half precision") floating
// point in software: conversions to and from float32/float64 with
// round-to-nearest-even, classification, and arithmetic helpers that
// evaluate at half precision.
//
// GPUs since compute capability 5.3 execute half-precision arithmetic
// natively; this package provides bit-exact half semantics on the host so
// that precision-scaled programs observe genuine binary16 rounding and
// range behaviour (overflow above 65504, subnormals below 2^-14).
package fp16

import "math"

// Bits is the raw 16-bit representation of a binary16 value:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Bits uint16

// Special values.
const (
	PositiveZero     Bits = 0x0000
	NegativeZero     Bits = 0x8000
	PositiveInfinity Bits = 0x7c00
	NegativeInfinity Bits = 0xfc00
	QuietNaN         Bits = 0x7e00
)

// Numeric limits of binary16.
const (
	MaxValue          = 65504.0               // largest finite half
	MinNormal         = 0.00006103515625      // 2^-14
	SmallestSubnormal = 5.960464477539063e-08 // 2^-24
	Epsilon           = 0.0009765625          // 2^-10, ULP of 1.0
)

const (
	signMask    = 0x8000
	expMask     = 0x7c00
	mantMask    = 0x03ff
	expBias     = 15
	mantBits    = 10
	f32ExpBias  = 127
	f32MantBits = 23
)

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even.
// Values too large for half become infinity; NaN is preserved (quieted).
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := Bits(b>>16) & signMask
	exp := int32(b>>f32MantBits) & 0xff
	mant := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if mant != 0 {
			return sign | QuietNaN
		}
		return sign | PositiveInfinity
	case exp == 0 && mant == 0: // signed zero
		return sign
	}

	// Unbiased exponent of the float32 value. Subnormal float32 inputs are
	// far below the half subnormal range and flush to zero below.
	e := exp - f32ExpBias

	switch {
	case e > 15: // overflow to infinity
		return sign | PositiveInfinity
	case e >= -14: // normal half range
		// 13 = f32MantBits - mantBits dropped bits.
		m := mant >> 13
		h := sign | Bits((e+expBias)<<mantBits) | Bits(m)
		return roundNearestEven(h, mant, 13)
	case e >= -25: // subnormal half range, and [2^-25, 2^-24), which rounds to 0 or 2^-24
		// Shift in the implicit leading 1, then denormalize.
		full := mant | 0x800000
		shift := uint32(13 + (-14 - e))
		if shift > 31 {
			return sign
		}
		m := full >> shift
		h := sign | Bits(m)
		return roundNearestEven(h, full, shift)
	default: // underflow to zero
		return sign
	}
}

// roundNearestEven applies IEEE round-to-nearest-even to a truncated half
// value h, given the original mantissa and the number of dropped low bits.
// Rounding may carry into the exponent; that is correct and can produce
// infinity from the largest finite values.
func roundNearestEven(h Bits, mant uint32, dropped uint32) Bits {
	if dropped == 0 || dropped > 31 {
		return h
	}
	half := uint32(1) << (dropped - 1)
	rem := mant & ((uint32(1) << dropped) - 1)
	switch {
	case rem > half:
		return h + 1
	case rem == half:
		return h + Bits(h&1) // ties to even
	default:
		return h
	}
}

// FromFloat64 converts a float64 to binary16 with round-to-nearest-even.
//
// The conversion is performed directly from the float64 representation
// rather than via float32 to avoid double rounding on values whose
// float32 rounding lands exactly on a half-ULP boundary.
func FromFloat64(f float64) Bits {
	b := math.Float64bits(f)
	sign := Bits(b>>48) & signMask
	exp := int64(b>>52) & 0x7ff
	mant := b & 0xfffffffffffff

	switch {
	case exp == 0x7ff:
		if mant != 0 {
			return sign | QuietNaN
		}
		return sign | PositiveInfinity
	case exp == 0 && mant == 0:
		return sign
	}

	e := exp - 1023

	switch {
	case e > 15:
		return sign | PositiveInfinity
	case e >= -14:
		m := mant >> 42 // 52 - 10 dropped bits
		h := sign | Bits((e+expBias)<<mantBits) | Bits(m)
		return roundNearestEven64(h, mant, 42)
	case e >= -25:
		full := mant | (1 << 52)
		shift := uint64(42 + (-14 - e))
		if shift > 63 {
			return sign
		}
		m := full >> shift
		h := sign | Bits(m)
		return roundNearestEven64(h, full, shift)
	default:
		return sign
	}
}

func roundNearestEven64(h Bits, mant uint64, dropped uint64) Bits {
	if dropped == 0 || dropped > 63 {
		return h
	}
	half := uint64(1) << (dropped - 1)
	rem := mant & ((uint64(1) << dropped) - 1)
	switch {
	case rem > half:
		return h + 1
	case rem == half:
		return h + Bits(h&1)
	default:
		return h
	}
}

// Float32 converts a binary16 value to float32. The conversion is exact:
// every half value is representable as a float32.
func (h Bits) Float32() float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h&expMask) >> mantBits
	mant := uint32(h & mantMask)

	switch {
	case exp == 0x1f: // Inf / NaN
		if mant != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | mant<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal half: normalize into a float32 normal. The value is
		// mant * 2^-24; shifting k times until bit 10 is set leaves an
		// unbiased exponent of -14-k.
		e := int32(-14)
		for mant&(1<<mantBits) == 0 {
			mant <<= 1
			e--
		}
		mant &= mantMask
		return math.Float32frombits(sign | uint32(e+f32ExpBias)<<f32MantBits | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-expBias+f32ExpBias)<<f32MantBits | mant<<13)
	}
}

// Float64 converts a binary16 value to float64 exactly.
func (h Bits) Float64() float64 {
	return float64(h.Float32())
}

// Round rounds a float64 to the nearest representable binary16 value and
// returns it as a float64, bit-exact with FromFloat64(f).Float64(). It is
// the fundamental operation used by the kernel interpreter to model
// half-precision arithmetic: compute in float64, then round the result
// through binary16. It rounds in the float64 bits directly, without the
// detour through Bits.
func Round(f float64) float64 {
	const (
		signBit  = 1 << 63
		infBits  = 0x7ff0000000000000
		nanBits  = 0x7ff8000000000000 // the quiet NaN Bits.Float64 returns
		overflow = 0x40effe0000000000 // 65520, the tie above MaxValue: rounds to even, which is infinity
		normal   = 0x3f10000000000000 // MinNormal
		drop     = 52 - mantBits      // float64 mantissa bits below a half's
		// Adding shift to a magnitude below MinNormal rounds it to a
		// multiple of 2^-24, the half subnormal spacing (float64's ulp in
		// [2^28, 2^29)), ties to even; subtracting it again is exact.
		shift = 1.5 * (1 << 28)
	)
	b := math.Float64bits(f)
	s, a := b&signBit, b&^signBit
	switch {
	case a > infBits:
		return math.Float64frombits(s | nanBits)
	case a >= overflow:
		return math.Float64frombits(s | infBits)
	case a >= normal:
		a += 1<<(drop-1) - 1 + a>>drop&1
		return math.Float64frombits(s | a&^(1<<drop-1))
	}
	r := math.Float64frombits(a) + shift - shift
	return math.Float64frombits(s | math.Float64bits(r))
}

// FromFloat64Slice converts src into dst element-wise with
// round-to-nearest-even, bit-exact with FromFloat64. The slices must have
// equal length. The batch form lets transfer paths convert whole buffers
// without per-element call overhead.
func FromFloat64Slice(dst []Bits, src []float64) {
	if len(dst) != len(src) {
		panic("fp16: FromFloat64Slice length mismatch")
	}
	for i, v := range src {
		dst[i] = FromFloat64(v)
	}
}

// ToFloat64Slice converts src into dst element-wise, exactly (every half
// value is representable as a float64). The slices must have equal length.
func ToFloat64Slice(dst []float64, src []Bits) {
	if len(dst) != len(src) {
		panic("fp16: ToFloat64Slice length mismatch")
	}
	for i, h := range src {
		dst[i] = h.Float64()
	}
}

// RoundSlice rounds src through binary16 into dst, bit-exact with calling
// Round on each element. The slices must have equal length; dst and src
// may be the same slice.
func RoundSlice(dst, src []float64) {
	if len(dst) != len(src) {
		panic("fp16: RoundSlice length mismatch")
	}
	for i, v := range src {
		dst[i] = Round(v)
	}
}

// IsNaN reports whether h represents a NaN.
func (h Bits) IsNaN() bool {
	return h&expMask == expMask && h&mantMask != 0
}

// IsInf reports whether h is an infinity. sign > 0 tests for +Inf,
// sign < 0 for -Inf, and sign == 0 for either.
func (h Bits) IsInf(sign int) bool {
	if h&expMask != expMask || h&mantMask != 0 {
		return false
	}
	switch {
	case sign > 0:
		return h&signMask == 0
	case sign < 0:
		return h&signMask != 0
	default:
		return true
	}
}

// IsFinite reports whether h is neither infinite nor NaN.
func (h Bits) IsFinite() bool {
	return h&expMask != expMask
}

// IsSubnormal reports whether h is a nonzero subnormal value.
func (h Bits) IsSubnormal() bool {
	return h&expMask == 0 && h&mantMask != 0
}

// IsZero reports whether h is +0 or -0.
func (h Bits) IsZero() bool {
	return h&^signMask == 0
}

// Signbit reports whether h has its sign bit set.
func (h Bits) Signbit() bool {
	return h&signMask != 0
}

// Neg returns h with the sign flipped. Neg(NaN) stays NaN.
func (h Bits) Neg() Bits {
	return h ^ signMask
}

// Abs returns h with the sign bit cleared.
func (h Bits) Abs() Bits {
	return h &^ signMask
}

// Add returns a+b evaluated at half precision.
func Add(a, b Bits) Bits { return FromFloat64(a.Float64() + b.Float64()) }

// Sub returns a-b evaluated at half precision.
func Sub(a, b Bits) Bits { return FromFloat64(a.Float64() - b.Float64()) }

// Mul returns a*b evaluated at half precision.
func Mul(a, b Bits) Bits { return FromFloat64(a.Float64() * b.Float64()) }

// Div returns a/b evaluated at half precision.
func Div(a, b Bits) Bits { return FromFloat64(a.Float64() / b.Float64()) }

// Sqrt returns sqrt(a) evaluated at half precision.
func Sqrt(a Bits) Bits { return FromFloat64(math.Sqrt(a.Float64())) }

// FMA returns a*b+c with a single rounding to half precision, matching the
// fused multiply-add available on half-capable GPU hardware.
func FMA(a, b, c Bits) Bits {
	return FromFloat64(math.FMA(a.Float64(), b.Float64(), c.Float64()))
}

// Less reports a < b under IEEE ordering (NaN compares false with everything).
func Less(a, b Bits) bool { return a.Float64() < b.Float64() }

// Equal reports a == b under IEEE equality (+0 == -0, NaN != NaN).
func Equal(a, b Bits) bool { return a.Float64() == b.Float64() }

// Next returns the next representable half after h toward +Inf.
// Next(+Inf) returns +Inf; Next(NaN) returns NaN.
func Next(h Bits) Bits {
	switch {
	case h.IsNaN():
		return h
	case h == PositiveInfinity:
		return h
	case h == NegativeZero:
		return 0x0001 // smallest positive subnormal
	case h.Signbit():
		return h - 1
	default:
		return h + 1
	}
}

// Prev returns the next representable half after h toward -Inf.
func Prev(h Bits) Bits {
	switch {
	case h.IsNaN():
		return h
	case h == NegativeInfinity:
		return h
	case h == PositiveZero:
		return 0x8001
	case h.Signbit():
		return h + 1
	default:
		return h - 1
	}
}

// Package precision defines the floating-point precision lattice used
// throughout the framework (half, single, double), typed value rounding,
// typed arrays with on-store rounding, and the output-quality metrics used
// to evaluate precision-scaled programs against a reference.
package precision

import (
	"fmt"
	"math"

	"repro/internal/fp16"
)

// Type identifies a floating-point precision. The zero value is invalid so
// that forgotten initialization is caught by Validate.
type Type uint8

const (
	// Invalid is the zero Type.
	Invalid Type = iota
	// Half is IEEE 754 binary16 (FP16).
	Half
	// Single is IEEE 754 binary32 (FP32).
	Single
	// Double is IEEE 754 binary64 (FP64).
	Double
)

// All lists the valid precisions in ascending precision order.
var All = []Type{Half, Single, Double}

// Descending lists the valid precisions from highest to lowest precision,
// the order in which the decision maker's normal search tries targets.
var Descending = []Type{Double, Single, Half}

// String returns the conventional short name (FP16/FP32/FP64).
func (t Type) String() string {
	switch t {
	case Half:
		return "FP16"
	case Single:
		return "FP32"
	case Double:
		return "FP64"
	default:
		return fmt.Sprintf("Invalid(%d)", uint8(t))
	}
}

// Size returns the storage size in bytes of one element.
func (t Type) Size() int {
	switch t {
	case Half:
		return 2
	case Single:
		return 4
	case Double:
		return 8
	default:
		return 0
	}
}

// Valid reports whether t is one of Half, Single, Double.
func (t Type) Valid() bool {
	return t == Half || t == Single || t == Double
}

// Bits returns the bit width of the format.
func (t Type) Bits() int { return t.Size() * 8 }

// Below returns the precisions strictly lower than t, highest first.
// Below(Half) is empty.
func (t Type) Below() []Type {
	switch t {
	case Double:
		return []Type{Single, Half}
	case Single:
		return []Type{Half}
	default:
		return nil
	}
}

// Promote returns the wider of two precisions, matching the usual
// arithmetic conversion rule applied to mixed-precision expressions.
func Promote(a, b Type) Type {
	if a > b {
		return a
	}
	return b
}

// Round rounds v to the nearest value representable at precision t.
// Rounding to Double is the identity.
func Round(v float64, t Type) float64 {
	switch t {
	case Half:
		return fp16.Round(v)
	case Single:
		return float64(float32(v))
	default:
		return v
	}
}

// RoundSlice rounds src into dst at precision t, bit-exact with calling
// Round per element but hoisting the type dispatch out of the loop. The
// slices must have equal length; dst and src may alias. Rounding to
// Double is a plain copy.
func RoundSlice(dst, src []float64, t Type) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("precision: RoundSlice length mismatch %d != %d", len(dst), len(src)))
	}
	switch t {
	case Half:
		fp16.RoundSlice(dst, src)
	case Single:
		for i, v := range src {
			dst[i] = float64(float32(v))
		}
	default:
		copy(dst, src)
	}
}

// MaxFinite returns the largest finite value representable at t.
func MaxFinite(t Type) float64 {
	switch t {
	case Half:
		return fp16.MaxValue
	case Single:
		return math.MaxFloat32
	default:
		return math.MaxFloat64
	}
}

// Epsilon returns the machine epsilon (ULP of 1.0) at t.
func Epsilon(t Type) float64 {
	switch t {
	case Half:
		return fp16.Epsilon
	case Single:
		return math.Pow(2, -23)
	default:
		return math.Pow(2, -52)
	}
}

// Array is a fixed-length numeric array whose elements are constrained to a
// precision: every store rounds through the element type, so the float64
// values held internally are always exactly representable at Elem. It is
// the host-side analog of an OpenCL memory object's backing store.
//
// An Array either owns its storage or shares it with other arrays (cache
// snapshots, replayed buffers, read-backs). Sharing is copy-on-write:
// every mutator (Set, Data, Fill, CopyFrom) forks shared storage before it
// writes, so a write through one array never shows through another. A
// zero array allocates its storage on first touch.
type Array struct {
	elem Type
	n    int
	// data is nil until first touched; a nil data reads as n zeros.
	data []float64
	// shared reports that data may be referenced by another Array: the
	// array is frozen. Only a mutator clears it, by forking. Nothing that
	// reads or hands out views writes to a frozen array, so concurrent
	// goroutines may read and share it.
	shared bool
}

// NewArray returns an Array of n zero elements at precision t. The
// type must be valid and n non-negative; violating either is a
// programmer error, so it panics rather than returning an error.
func NewArray(t Type, n int) *Array {
	if !t.Valid() {
		panic("precision: NewArray with invalid type " + t.String())
	}
	if n < 0 {
		panic("precision: NewArray with negative length")
	}
	return &Array{elem: t, n: n}
}

// FromSlice builds an Array at precision t containing a copy of vals,
// each rounded to t. vals is left as it was.
func FromSlice(t Type, vals []float64) *Array {
	a := NewArray(t, len(vals))
	RoundSlice(a.Values(), vals, t)
	return a
}

// Wrap rounds vals to t in place and returns an Array that owns vals as
// its storage, without copying it. The caller hands vals over: it must
// not read or write vals afterwards.
func Wrap(t Type, vals []float64) *Array {
	a := NewArray(t, len(vals))
	if t != Double { // rounding to Double is the identity
		RoundSlice(vals, vals, t)
	}
	a.data = vals
	return a
}

// Elem returns the element precision.
func (a *Array) Elem() Type { return a.elem }

// Len returns the number of elements.
func (a *Array) Len() int { return a.n }

// Bytes returns the storage footprint in bytes at the element precision.
func (a *Array) Bytes() int { return a.n * a.elem.Size() }

// Get returns element i (already exactly representable at Elem).
func (a *Array) Get(i int) float64 { return a.Values()[i] }

// Set stores v at index i, rounding to the element precision.
func (a *Array) Set(i int, v float64) { a.own()[i] = Round(v, a.elem) }

// Values returns the elements for reading without forking shared
// storage. Callers must not write through the returned slice; use Data
// to write.
func (a *Array) Values() []float64 {
	if a.data == nil {
		a.data = make([]float64, a.n)
	}
	return a.data
}

// Data returns the elements for writing: shared storage is forked first,
// so writes never show through another array. Callers must not store
// values that are not representable at Elem; use Set when in doubt.
func (a *Array) Data() []float64 { return a.own() }

// own returns storage that a alone references, forking shared storage.
func (a *Array) own() []float64 {
	if a.shared {
		d := make([]float64, a.n)
		copy(d, a.data)
		a.data, a.shared = d, false
	}
	return a.Values()
}

// Freeze allocates a's storage and marks it shared, so that nothing but
// a mutator writes to a again. Freeze an array before other goroutines
// read or share it; a mutator on a frozen array still forks it, which
// only its owner may do. Freeze returns a.
func (a *Array) Freeze() *Array {
	a.Values()
	if !a.shared {
		a.shared = true
	}
	return a
}

// Share returns a frozen view of a's storage. a is frozen too, so the
// first write through either one forks it.
func (a *Array) Share() *Array {
	a.Freeze()
	return &Array{elem: a.elem, n: a.n, data: a.data, shared: true}
}

// Adopt drops a's storage and shares src's instead, without any
// rounding. The element precisions and lengths must match exactly. A
// host-to-device write adopts the host array, and the incremental trial
// evaluator adopts cached snapshots to restore them bit-for-bit without
// re-running the conversion path.
func (a *Array) Adopt(src *Array) {
	if src.elem != a.elem {
		panic(fmt.Sprintf("precision: Adopt element mismatch %v != %v", src.elem, a.elem))
	}
	if src.n != a.n {
		panic(fmt.Sprintf("precision: Adopt length mismatch %d != %d", src.n, a.n))
	}
	a.adopt(src)
}

func (a *Array) adopt(src *Array) {
	src.Freeze()
	a.data, a.shared = src.data, true
}

// Convert returns a new Array at precision t whose elements are a's
// elements rounded to t. Same-precision and widening conversions share
// a's storage: the stored values are already exactly representable, so
// rounding at a wider type is the identity.
func (a *Array) Convert(t Type) *Array {
	if t >= a.elem {
		c := a.Share()
		c.elem = t
		return c
	}
	return FromSlice(t, a.Values())
}

// CopyFrom copies src into a (same length required), rounding each element
// to a's precision. It models an in-place conversion into an existing
// destination buffer. As in Convert, same-or-widening copies share src's
// storage instead of copying it.
func (a *Array) CopyFrom(src *Array) {
	if src.n != a.n {
		panic(fmt.Sprintf("precision: CopyFrom length mismatch %d != %d", src.n, a.n))
	}
	if src.elem <= a.elem {
		a.adopt(src)
		return
	}
	RoundSlice(a.own(), src.Values(), a.elem)
}

// Fill sets every element to v rounded to the element precision.
func (a *Array) Fill(v float64) {
	r := Round(v, a.elem)
	d := a.own()
	for i := range d {
		d[i] = r
	}
}

// quality comparison tuning
const (
	// smallMagnitude is the threshold below which reference elements are
	// compared absolutely instead of relatively, to avoid division blowups
	// near zero.
	smallMagnitude = 1e-6
)

// MeanRelativeError returns the mean relative error of got against ref,
// the error metric used by the paper. Elements whose reference magnitude
// is below a small threshold are compared by absolute error. Non-finite
// outputs (overflow to Inf, NaN) contribute an error of 1 (complete loss),
// which is what makes half-precision overflow fail the TOQ check.
func MeanRelativeError(ref, got []float64) float64 {
	if len(ref) != len(got) {
		panic(fmt.Sprintf("precision: MeanRelativeError length mismatch %d != %d", len(ref), len(got)))
	}
	if len(ref) == 0 {
		return 0
	}
	var sum float64
	for i := range ref {
		sum += ElementError(ref[i], got[i])
	}
	return sum / float64(len(ref))
}

// ElementError is the per-element error term behind MeanRelativeError:
// relative error capped at 1, absolute below smallMagnitude, 1 for
// non-finite mismatches. Exported so callers that stream over outputs
// (prog.QualityNamed) can reproduce the exact same sum without building
// intermediate slices.
func ElementError(r, g float64) float64 {
	if math.IsNaN(g) || math.IsInf(g, 0) {
		if math.IsInf(r, 0) && math.IsInf(g, 0) && math.Signbit(r) == math.Signbit(g) {
			return 0
		}
		return 1
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 1
	}
	diff := math.Abs(g - r)
	if math.Abs(r) < smallMagnitude {
		e := diff
		if e > 1 {
			e = 1
		}
		return e
	}
	e := diff / math.Abs(r)
	if e > 1 {
		e = 1 // cap so a handful of wild elements cannot push MRE above 1
	}
	return e
}

// Quality returns 1 - MeanRelativeError, clamped to [0, 1]. A program
// meets a target output quality TOQ when Quality >= TOQ.
func Quality(ref, got []float64) float64 {
	q := 1 - MeanRelativeError(ref, got)
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// QualityArrays computes Quality over a set of output arrays, weighting
// every element equally across arrays. ref and got must pair up by index
// with equal lengths.
func QualityArrays(ref, got []*Array) float64 {
	if len(ref) != len(got) {
		panic("precision: QualityArrays arity mismatch")
	}
	var sum float64
	var n int
	for k := range ref {
		r, g := ref[k].Values(), got[k].Values()
		if len(r) != len(g) {
			panic("precision: QualityArrays length mismatch")
		}
		for i := range r {
			sum += ElementError(r[i], g[i])
		}
		n += len(r)
	}
	if n == 0 {
		return 1
	}
	q := 1 - sum/float64(n)
	if q < 0 {
		return 0
	}
	return q
}

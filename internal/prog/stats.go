package prog

import (
	"math"
	"sort"

	"repro/internal/precision"
)

// RunningStats accumulates streaming summary statistics of a value
// stream using Welford's online algorithm. The zero value is ready to
// use. All fields are exported so snapshots of a stream (session
// persistence) marshal losslessly to JSON and can resume observation
// after a restart.
type RunningStats struct {
	// N is the number of observed values.
	N int64 `json:"n"`
	// Min and Max bound the observed range.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Mean is the running arithmetic mean.
	Mean float64 `json:"mean"`
	// M2 is the running sum of squared deviations from the mean
	// (Welford's aggregate); Var derives the variance from it.
	M2 float64 `json:"m2"`
}

// Observe folds one value into the statistics.
func (s *RunningStats) Observe(x float64) {
	s.N++
	if s.N == 1 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	d := x - s.Mean
	s.Mean += d / float64(s.N)
	s.M2 += d * (x - s.Mean)
}

// ObserveSlice folds every value of xs into the statistics.
func (s *RunningStats) ObserveSlice(xs []float64) {
	for _, x := range xs {
		s.Observe(x)
	}
}

// Var returns the population variance of the observed stream, 0 when
// fewer than two values have been seen.
func (s *RunningStats) Var() float64 {
	if s.N < 2 {
		return 0
	}
	return s.M2 / float64(s.N)
}

// Std returns the population standard deviation.
func (s *RunningStats) Std() float64 { return math.Sqrt(s.Var()) }

// Range returns Max - Min, 0 before the first observation.
func (s *RunningStats) Range() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Max - s.Min
}

// NormalizedShift measures how far the distribution summarized by cur
// has moved from the reference distribution ref, as the largest of the
// mean, standard-deviation and range displacements, normalized by the
// reference scale (max of reference range and |mean|). The result is 0
// when either side is empty, ~0 for same-distribution streams, and
// grows past 1 for order-of-magnitude range drifts such as the paper's
// 0-1 random inputs moving to 0-255 image pixels.
func NormalizedShift(ref, cur *RunningStats) float64 {
	if ref == nil || cur == nil || ref.N == 0 || cur.N == 0 {
		return 0
	}
	const eps = 1e-12
	scale := math.Max(ref.Range(), math.Abs(ref.Mean))
	if scale < eps {
		scale = eps
	}
	shift := math.Abs(cur.Mean - ref.Mean)
	if d := math.Abs(cur.Std() - ref.Std()); d > shift {
		shift = d
	}
	if d := math.Abs(cur.Range() - ref.Range()); d > shift {
		shift = d
	}
	return shift / scale
}

// ObjectErrors attributes the output error of a run to the workload's
// memory objects: for each object, the contribution is the worst mean
// element error among the output objects its configuration can reach
// through the op stream (DependencyIndex taint propagation). Objects
// that cannot reach any output contribute 0. ops is the op trace of a
// representative execution (the op stream's structure is configuration
// independent, so the profile run's trace works for any trial); ref and
// res are a reference and a candidate result over the same inputs.
//
// The warm-start search (scaler.Options.Seed) compares these
// contributions across input drift: an object whose contribution moved
// is re-validated, one whose contribution held keeps its seeded target.
func ObjectErrors(w *Workload, ops []Op, ref, res *Result) map[string]float64 {
	// Mean element error per output object, in sorted-name order to
	// mirror QualityNamed exactly.
	outErr := make(map[string]float64, len(ref.Outputs))
	for _, name := range SortedOutputNames(ref) {
		rd := ref.Outputs[name].Values()
		if len(rd) == 0 {
			outErr[name] = 0
			continue
		}
		var sum float64
		if g, ok := res.Outputs[name]; ok && g.Len() == len(rd) {
			gd := g.Values()
			for i := range rd {
				sum += precision.ElementError(rd[i], gd[i])
			}
		} else {
			for i := range rd {
				sum += precision.ElementError(rd[i], 0)
			}
		}
		outErr[name] = sum / float64(len(rd))
	}

	idx := BuildDependencyIndex(w, ops)
	out := make(map[string]float64, len(w.Objects))
	names := make([]string, 0, len(w.Objects))
	for _, o := range w.Objects {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	for _, obj := range names {
		var worst float64
		for _, i := range idx.AffectedOps(obj) {
			op := ops[i]
			if op.Kind != OpRead {
				continue
			}
			if e, ok := outErr[op.Object]; ok && e > worst {
				worst = e
			}
		}
		out[obj] = worst
	}
	return out
}

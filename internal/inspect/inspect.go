// Package inspect implements PreScaler's System Inspector: the one-time,
// application-independent probing of a target system that measures every
// {type-conversion method + transfer} combination across a grid of data
// sizes and records the results in a database. The decision maker later
// consults the database to predict the best conversion method for a
// transfer event without executing it (Algorithm 2 of the paper).
//
// Because the simulated runtime charges exactly the analytic cost of each
// method, "measuring" here evaluates the convert estimators over the
// probe grid. Queries between grid points interpolate linearly in size,
// so predictions carry a small, realistic discretization error relative
// to actual execution — which is why the decision maker still validates
// its final candidates by running the application.
package inspect

import (
	"encoding"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// probeKey identifies one measured curve: a direction, the host-side and
// device-side endpoint precisions, and a concrete plan.
type probeKey struct {
	Dir  ocl.Dir
	Host precision.Type
	Dev  precision.Type
	Plan convert.Plan
}

// Measurement is one probed point.
type Measurement struct {
	Elems int
	Time  float64
}

// DB is the inspector result database for one system. It is immutable
// once Inspect, InspectSizes or Load returns, so one DB is shared by
// reference between any number of goroutines.
type DB struct {
	sys    *hw.System
	sizes  []int
	curves map[probeKey][]float64 // time per grid size, parallel to sizes
	// hashState is the FNV-64a state after hashing the MarshalJSON
	// bytes, recorded once so fingerprints never re-marshal the DB.
	hashState []byte
}

// DefaultSizes is the probe grid in elements: powers of two from 256 to
// 16Mi, covering Table 4's range of input sizes.
func DefaultSizes() []int {
	var out []int
	for n := 256; n <= 1<<24; n <<= 1 {
		out = append(out, n)
	}
	return out
}

// Inspect probes the system over the default size grid.
func Inspect(sys *hw.System) *DB {
	return InspectSizes(sys, DefaultSizes())
}

// InspectSizes probes the system over a custom size grid (ascending).
func InspectSizes(sys *hw.System, sizes []int) *DB {
	db := &DB{sys: sys, sizes: sizes, curves: map[probeKey][]float64{}}
	types := precision.All
	for _, host := range types {
		for _, dev := range types {
			for _, plan := range convert.CandidatePlans(&sys.CPU, host, dev, types) {
				for _, dir := range []ocl.Dir{ocl.DirHtoD, ocl.DirDtoH} {
					db.curves[probeKey{Dir: dir, Host: host, Dev: dev, Plan: plan}] = db.measure(dir, host, dev, plan)
				}
			}
		}
	}
	return db.seal()
}

// seal records the hasher state over the canonical serialization. Only
// a non-finite time fails to encode: JSON input cannot hold one, and
// only a broken system model (a zero-bandwidth bus, say) measures one.
func (db *DB) seal() *DB {
	data, err := db.MarshalJSON()
	if err != nil {
		panic(fmt.Sprintf("inspect: %s: %v", db.sys.Name, err))
	}
	h := fnv.New64a()
	h.Write(data)
	db.hashState, _ = h.(encoding.BinaryMarshaler).MarshalBinary() // cannot fail for fnv
	return db
}

// Hash returns a fresh FNV-64a hasher already fed with the MarshalJSON
// bytes of the database, ready for more fields to be written.
func (db *DB) Hash() hash.Hash64 {
	h := fnv.New64a()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(db.hashState); err != nil {
		panic(err) // the state was marshaled by the same hasher type
	}
	return h
}

// System returns the inspected system.
func (db *DB) System() *hw.System { return db.sys }

// Sizes returns the probe grid.
func (db *DB) Sizes() []int { return db.sizes }

// NumCurves returns the number of measured (direction, endpoints, plan)
// curves.
func (db *DB) NumCurves() int { return len(db.curves) }

// interp linearly interpolates a curve at n elements, extrapolating flat
// below the grid and linearly above it.
func (db *DB) interp(curve []float64, n int) float64 {
	sizes := db.sizes
	if n <= sizes[0] {
		return curve[0]
	}
	last := len(sizes) - 1
	if n >= sizes[last] {
		// Linear extrapolation from the final segment.
		x0, x1 := float64(sizes[last-1]), float64(sizes[last])
		y0, y1 := curve[last-1], curve[last]
		return y1 + (y1-y0)*(float64(n)-x1)/(x1-x0)
	}
	i := sort.SearchInts(sizes, n)
	if sizes[i] == n {
		return curve[i]
	}
	x0, x1 := float64(sizes[i-1]), float64(sizes[i])
	y0, y1 := curve[i-1], curve[i]
	frac := (float64(n) - x0) / (x1 - x0)
	return y0 + (y1-y0)*frac
}

// measure evaluates one plan's curve over the probe grid.
func (db *DB) measure(dir ocl.Dir, hostType, devType precision.Type, plan convert.Plan) []float64 {
	curve := make([]float64, len(db.sizes))
	for i, sz := range db.sizes {
		if dir == ocl.DirHtoD {
			curve[i] = convert.EstimateHtoD(db.sys, sz, hostType, devType, plan)
		} else {
			curve[i] = convert.EstimateDtoH(db.sys, sz, devType, hostType, plan)
		}
	}
	return curve
}

// Estimate predicts the time of the given plan for a transfer of n
// elements between hostType (host side) and devType (device side) in the
// given direction. A plan the inspector never probed (an unlisted thread
// count, say) is measured afresh and not stored: the database never
// changes after construction.
func (db *DB) Estimate(dir ocl.Dir, n int, hostType, devType precision.Type, plan convert.Plan) float64 {
	curve, ok := db.curves[probeKey{Dir: dir, Host: hostType, Dev: devType, Plan: plan}]
	if !ok {
		curve = db.measure(dir, hostType, devType, plan)
	}
	return db.interp(curve, n)
}

// BestPlan returns the predicted-fastest conversion plan for a transfer
// of n elements between hostType and devType in the given direction,
// considering only wire (intermediate) types drawn from mids — this is
// Algorithm 2's getBestHost/DeviceConversionMethod pair fused into one
// query. The predicted time is returned alongside the plan.
func (db *DB) BestPlan(dir ocl.Dir, n int, hostType, devType precision.Type, mids []precision.Type) (convert.Plan, float64) {
	var best convert.Plan
	bestT := 0.0
	found := false
	for _, plan := range convert.CandidatePlans(&db.sys.CPU, hostType, devType, mids) {
		t := db.Estimate(dir, n, hostType, devType, plan)
		if !found || t < bestT {
			best, bestT, found = plan, t, true
		}
	}
	if !found {
		// No valid candidate (empty mids): fall back to a direct transfer
		// at the host type with device-side conversion if needed.
		best = convert.Direct(hostType)
		bestT = db.Estimate(dir, n, hostType, devType, best)
	}
	return best, bestT
}

// Curve returns the measured points for one plan, for Figure 5-style
// reporting.
func (db *DB) Curve(dir ocl.Dir, hostType, devType precision.Type, plan convert.Plan) []Measurement {
	out := make([]Measurement, len(db.sizes))
	for i, n := range db.sizes {
		out[i] = Measurement{Elems: n, Time: db.Estimate(dir, n, hostType, devType, plan)}
	}
	return out
}

// dbJSON is the serialization schema.
type dbJSON struct {
	System string      `json:"system"`
	Sizes  []int       `json:"sizes"`
	Curves []curveJSON `json:"curves"`
}

type curveJSON struct {
	Dir     uint8     `json:"dir"`
	Host    uint8     `json:"host"`
	Dev     uint8     `json:"dev"`
	Method  uint8     `json:"method"`
	Threads int       `json:"threads"`
	Mid     uint8     `json:"mid"`
	Times   []float64 `json:"times"`
}

// MarshalJSON serializes the database (system name, grid, curves).
func (db *DB) MarshalJSON() ([]byte, error) {
	out := dbJSON{System: db.sys.Name, Sizes: db.sizes}
	keys := make([]probeKey, 0, len(db.curves))
	for k := range db.curves {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Dev != b.Dev {
			return a.Dev < b.Dev
		}
		if a.Plan.Host != b.Plan.Host {
			return a.Plan.Host < b.Plan.Host
		}
		return a.Plan.Mid < b.Plan.Mid
	})
	for _, k := range keys {
		out.Curves = append(out.Curves, curveJSON{
			Dir: uint8(k.Dir), Host: uint8(k.Host), Dev: uint8(k.Dev),
			Method: uint8(k.Plan.Host), Threads: k.Plan.Threads, Mid: uint8(k.Plan.Mid),
			Times: db.curves[k],
		})
	}
	return json.Marshal(out)
}

// Load deserializes a database saved with MarshalJSON, binding it to sys
// (whose name must match).
func Load(sys *hw.System, data []byte) (*DB, error) {
	var in dbJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("inspect: load: %w", err)
	}
	if in.System != sys.Name {
		return nil, fmt.Errorf("inspect: database is for system %q, not %q", in.System, sys.Name)
	}
	if len(in.Sizes) < 2 {
		return nil, fmt.Errorf("inspect: size grid has %d points, need at least 2", len(in.Sizes))
	}
	for i, n := range in.Sizes {
		if n <= 0 || (i > 0 && n <= in.Sizes[i-1]) {
			return nil, fmt.Errorf("inspect: size grid %v is not strictly ascending and positive", in.Sizes)
		}
	}
	db := &DB{sys: sys, sizes: in.Sizes, curves: map[probeKey][]float64{}}
	for _, c := range in.Curves {
		if len(c.Times) != len(in.Sizes) {
			return nil, fmt.Errorf("inspect: curve has %d points, grid has %d", len(c.Times), len(in.Sizes))
		}
		key := probeKey{
			Dir: ocl.Dir(c.Dir), Host: precision.Type(c.Host), Dev: precision.Type(c.Dev),
			Plan: convert.Plan{Host: convert.Method(c.Method), Threads: c.Threads, Mid: precision.Type(c.Mid)},
		}
		db.curves[key] = c.Times
	}
	return db.seal(), nil
}

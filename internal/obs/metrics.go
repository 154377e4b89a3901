package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Label is one metric label pair.
type Label struct {
	Key string
	Val string
}

// L builds a label.
func L(key, val string) Label { return Label{Key: key, Val: val} }

// metricID identifies one instrument: its name and at most two labels,
// put in key order. It is comparable, so a registry lookup hashes it in
// place and allocates nothing.
type metricID struct {
	name   string
	n      int // labels in use
	l1, l2 Label
}

// newMetricID builds the identity of name+labels. Every instrument takes
// at most two labels; a third is a programming error and panics.
func newMetricID(name string, labels []Label) metricID {
	id := metricID{name: name, n: len(labels)}
	switch len(labels) {
	case 0:
	case 1:
		id.l1 = labels[0]
	case 2:
		id.l1, id.l2 = labels[0], labels[1]
		if id.l2.Key < id.l1.Key {
			id.l1, id.l2 = id.l2, id.l1
		}
	default:
		panic("obs: metric " + name + " takes at most two labels")
	}
	return id
}

// labels returns the identity's labels in key order.
func (id metricID) labels() []Label {
	return []Label{id.l1, id.l2}[:id.n]
}

// series is one instrument of a registry map with the canonical text of
// its labels, "k=v" joined by commas in key order, built once at
// creation for the exposition formats.
type series[T any] struct {
	inst *T
	text string
}

// newSeries returns a fresh instrument with the label text of id.
func newSeries[T any](id metricID) series[T] {
	parts := make([]string, id.n)
	for i, l := range id.labels() {
		parts[i] = l.Key + "=" + l.Val
	}
	return series[T]{inst: new(T), text: strings.Join(parts, ",")}
}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	mu sync.Mutex
	n  float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are ignored: counters only grow).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

// Value returns the accumulated count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Gauge is a set-to-current-value metric. Safe for concurrent use.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations into fixed buckets. Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []int     // len(bounds)+1
	sum    float64
	n      int
	min    float64
	max    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the observation mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Buckets returns the histogram's upper bounds and the cumulative
// observation counts: cumulative[i] counts observations <= bounds[i],
// and cumulative[len(bounds)] is the total count (the implicit +Inf
// bucket). Both slices are copies. This is the Prometheus bucket
// semantic, so the text exposition renders straight from it.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int, len(h.counts))
	sum := 0
	for i, c := range h.counts {
		sum += c
		cumulative[i] = sum
	}
	return bounds, cumulative
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the bucket containing the target rank — the same
// estimator as Prometheus's histogram_quantile, refined with the
// tracked min/max: the first bucket interpolates from the observed
// minimum instead of zero, observations landing in the +Inf bucket
// report the observed maximum, and the result is clamped to
// [min, max]. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		if i == len(h.bounds) {
			// Target rank falls in the +Inf bucket: no finite upper bound
			// to interpolate toward, report the observed maximum.
			return h.max
		}
		lower := h.min
		if i > 0 {
			lower = h.bounds[i-1]
		}
		upper := h.bounds[i]
		if lower > upper {
			lower = upper
		}
		v := lower + (upper-lower)*(rank-cum)/float64(c)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// DefaultErrorBuckets is the bucket grid used for relative-error
// histograms (1% to 50%).
var DefaultErrorBuckets = []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50}

// DefaultLatencyBuckets is the bucket grid for wall-clock latency
// histograms, in seconds (0.5ms to 10s, roughly logarithmic — the
// service's request and queue-wait histograms use it).
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds named, labeled metrics. A nil *Registry hands out nil
// instruments, whose methods are all no-ops. Instrument lookup and the
// instruments themselves are safe for concurrent use; looking up an
// existing instrument allocates nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[metricID]series[Counter]
	gauges   map[metricID]series[Gauge]
	hists    map[metricID]series[Histogram]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[metricID]series[Counter]{},
		gauges:   map[metricID]series[Gauge]{},
		hists:    map[metricID]series[Histogram]{},
	}
}

// lookup returns the instrument for id in m, creating it on first use.
// Caller holds r.mu.
func lookup[T any](m map[metricID]series[T], id metricID) (inst *T, created bool) {
	if s, ok := m[id]; ok {
		return s.inst, false
	}
	s := newSeries[T](id)
	m[id] = s
	return s.inst, true
}

// Counter returns (creating on first use) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id := newMetricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, _ := lookup(r.counters, id)
	return c
}

// Gauge returns (creating on first use) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id := newMetricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, _ := lookup(r.gauges, id)
	return g
}

// Histogram returns (creating on first use) the histogram for
// name+labels. The bucket grid is fixed at creation; later calls may
// pass nil bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := newMetricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, created := lookup(r.hists, id)
	if created {
		if len(bounds) == 0 {
			bounds = DefaultErrorBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h.bounds, h.counts = b, make([]int, len(b)+1)
	}
	return h
}

// WriteCSV dumps every metric as CSV with the header
// name,labels,kind,field,value. Rows are sorted by (name, labels,
// field), so the dump is deterministic.
func (r *Registry) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "labels", "kind", "field", "value"}); err != nil {
		return err
	}
	if r == nil {
		cw.Flush()
		return cw.Error()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows [][]string
	add := func(id metricID, labels, kind, field string, value float64) {
		rows = append(rows, []string{id.name, labels, kind, field, fmt.Sprintf("%g", value)})
	}
	for id, s := range r.counters {
		add(id, s.text, "counter", "count", s.inst.Value())
	}
	for id, s := range r.gauges {
		add(id, s.text, "gauge", "value", s.inst.Value())
	}
	for id, s := range r.hists {
		h := s.inst
		h.mu.Lock()
		add(id, s.text, "histogram", "count", float64(h.n))
		add(id, s.text, "histogram", "sum", h.sum)
		mean := 0.0
		if h.n > 0 {
			mean = h.sum / float64(h.n)
		}
		add(id, s.text, "histogram", "mean", mean)
		add(id, s.text, "histogram", "max", h.max)
		for i, b := range h.bounds {
			add(id, s.text, "histogram", fmt.Sprintf("bucket_le_%g", b), float64(h.counts[i]))
		}
		add(id, s.text, "histogram", "bucket_le_inf", float64(h.counts[len(h.bounds)]))
		h.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

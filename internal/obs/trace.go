// Package obs is the framework's zero-dependency observability layer:
// hierarchical spans over the simulated clock, a labeled metrics
// registry, and a decision journal that explains the scaler's search.
//
// Everything in the package is nil-safe: every method on a nil *Tracer,
// *Registry, *Observer, *Span, *Counter, *Gauge or *Histogram is a no-op
// (or returns a zero value), so instrumented code paths cost a single
// nil check when observability is off and the scaler's decisions stay
// bit-identical whether or not an Observer is attached.
//
// Time never comes from the wall clock, with one exception: a tracer
// built by NewWallTracer. Every other tracer stamps spans from a virtual
// clock that pipeline code advances by each trial's simulated duration,
// which makes exported traces deterministic: two runs of the same
// workload produce byte-identical Chrome trace JSON.
//
// Tracer and Registry (and their instruments) are safe for concurrent
// use. Determinism of the exported artifacts is a separate, stronger
// property: it additionally requires that the *order* of recorded spans
// and clock advances be fixed, which parallel pipeline code guarantees
// by buffering work per worker and replaying it into the sinks in a
// deterministic merge order (see DESIGN.md, "Determinism under
// parallelism").
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Attr is one span attribute. Attributes are exported as Chrome
// trace-event args.
type Attr struct {
	Key string
	Val any
}

// A builds an attribute.
func A(key string, val any) Attr { return Attr{Key: key, Val: val} }

// Span is one timed region. Spans are created open by Tracer.Start and
// closed by Tracer.End; Tracer.Emit records already-finished spans (used
// for runtime events replayed from a queue trace).
type Span struct {
	Name  string
	Cat   string
	TID   int
	Start float64
	Stop  float64
	Attrs []Attr
	open  bool
}

// SetAttr appends an attribute to the span.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// Duration returns the span length in seconds of the tracer's clock.
func (s *Span) Duration() float64 {
	if s == nil {
		return 0
	}
	return s.Stop - s.Start
}

// Trace rows ("thread" ids in the Chrome trace): the pipeline stages and
// the three runtime activity rows, matching the queue trace layout.
const (
	RowPipeline = 0
	RowHost     = 1
	RowBus      = 2
	RowDevice   = 3
)

// Wall-trace rows: the request lifecycle on one row, individual search
// trials on another so nesting stays readable. Tracer.Start opens spans
// on row 0, the request row.
const (
	WallRowRequest = 0
	WallRowTrials  = 1
)

// rowNames and wallRowNames label the rows, indexed by row id, in traces
// exported by virtual-clock and wall-clock tracers.
var (
	rowNames     = []string{"pipeline", "host", "bus", "device"}
	wallRowNames = []string{"request", "trials"}
)

// Tracer records hierarchical spans against a clock fixed at
// construction, and the two clocks never mix within one tracer:
//
//   - NewTracer's virtual clock moves only by Advance, which pipeline
//     code calls with each trial's modeled duration. Its exports describe
//     what the modeled hardware did and are byte-identical across runs.
//   - NewWallTracer's clock reads the seconds since the tracer was built.
//     Its exports describe what this process spent (request handling,
//     queue waits, real search latency) and are never deterministic. The
//     decision service records one per decision and serves it from
//     GET /v1/decisions/{id}/trace.
//
// All methods are safe for concurrent use; note, however, that
// determinism of a virtual-clock export (byte-identical JSON across
// runs) additionally requires that spans be recorded in a deterministic
// order — parallel pipeline code achieves that by recording runs
// off-line in worker goroutines and replaying them into the tracer in a
// fixed merge order (see internal/scaler).
type Tracer struct {
	mu    sync.Mutex
	wall  bool      // the clock is time.Since(epoch), not now
	epoch time.Time // construction time of a wall tracer
	now   float64   // the virtual clock
	spans []*Span
}

// NewTracer creates a virtual-clock tracer with the clock at zero.
func NewTracer() *Tracer { return &Tracer{} }

// NewWallTracer creates a wall-clock tracer whose clock reads the
// seconds elapsed since this call, so traces from different requests
// all start near zero and load side by side. Advance does not move it.
func NewWallTracer() *Tracer { return &Tracer{wall: true, epoch: time.Now()} }

// Now returns the clock in seconds.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nowLocked()
}

// nowLocked reads the clock; the caller holds t.mu.
func (t *Tracer) nowLocked() float64 {
	if t.wall {
		return time.Since(t.epoch).Seconds()
	}
	return t.now
}

// Advance moves the virtual clock forward by d simulated seconds.
// Pipeline code calls this after each trial with the trial's simulated
// total, so sibling trials occupy disjoint time ranges. It is a no-op on
// a wall tracer.
func (t *Tracer) Advance(d float64) {
	if t == nil || t.wall || d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now += d
}

// Start opens a span at the current clock on row 0 (the pipeline row of
// a virtual trace, the request row of a wall trace). Spans nest: a span
// started while another is open becomes its child in the exported
// timeline (Chrome nests same-row slices by time containment).
func (t *Tracer) Start(name, cat string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Cat: cat, TID: RowPipeline, Start: t.nowLocked(), Attrs: attrs, open: true}
	t.spans = append(t.spans, s)
	return s
}

// End closes the span at the current clock.
func (t *Tracer) End(s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.open {
		return
	}
	s.Stop = t.nowLocked()
	s.open = false
}

// Emit records a complete span with explicit start and duration (clock
// offsets are the caller's responsibility). Used by the runtime hook to
// replay queue events onto the host/bus/device rows.
func (t *Tracer) Emit(name, cat string, tid int, start, dur float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, &Span{
		Name: name, Cat: cat, TID: tid, Start: start, Stop: start + dur, Attrs: attrs,
	})
}

// Spans returns the recorded spans in creation order. The slice is a
// copy; the spans themselves are shared.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto). Timestamps are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the recorded spans as Chrome trace-event
// JSON: metadata events naming the rows first, then the spans in
// creation order, still-open spans closed at the current clock. A
// virtual-clock export is deterministic.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte("{\"traceEvents\":[]}\n"))
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := rowNames
	if t.wall {
		names = wallRowNames
	}
	now := t.nowLocked()
	out := make([]chromeEvent, 0, len(t.spans)+len(names))
	for row, name := range names {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: row,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range t.spans {
		stop := s.Stop
		if s.open {
			stop = now
		}
		ce := chromeEvent{
			Name: s.Name, Cat: s.Cat, Phase: "X",
			TS: s.Start * 1e6, Dur: (stop - s.Start) * 1e6,
			PID: 1, TID: s.TID,
		}
		if len(s.Attrs) > 0 {
			ce.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ce.Args[a.Key] = a.Val
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

package obs

import (
	"fmt"

	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// Observer bundles the three observability pillars for one pipeline
// run: the span tracer, the metrics registry, and the explain journal.
// A nil *Observer is fully inert; instrumented code never needs to
// check for nil before calling into it.
type Observer struct {
	trace   *Tracer
	metrics *Registry
	journal *Journal
}

// New creates an observer with all three pillars enabled.
func New() *Observer {
	return &Observer{trace: NewTracer(), metrics: NewRegistry(), journal: &Journal{}}
}

// Compose builds an observer from explicit pillars, any of which may be
// nil (that pillar is then inert). The decision service uses it to give
// every request its own journal while all requests share the
// process-wide metrics registry that /metrics renders.
func Compose(t *Tracer, m *Registry, j *Journal) *Observer {
	return &Observer{trace: t, metrics: m, journal: j}
}

// Tracer returns the span tracer (nil on a nil observer).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.trace
}

// Metrics returns the metrics registry (nil on a nil observer).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Journal returns the explain journal (nil on a nil observer).
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// Explain renders the decision journal ("" on a nil observer).
func (o *Observer) Explain() string { return o.Journal().Render() }

// Advance moves the virtual trace clock forward by d simulated seconds;
// pipeline code calls it after each trial with the trial's total.
func (o *Observer) Advance(d float64) { o.Tracer().Advance(d) }

// RunHook returns an ocl.Hook that feeds one program execution's
// runtime events into the event metrics and, when a tracer is attached,
// replays them as spans on the host/bus/device rows, offset by the
// tracer's current clock. It is the one place runtime events become
// spans. Create a fresh hook per execution; it captures the clock base at
// creation. Returns nil — which prog.Run skips — when the observer has
// neither a tracer nor a metrics registry.
func (o *Observer) RunHook() ocl.Hook {
	if o == nil || (o.trace == nil && o.metrics == nil) {
		return nil
	}
	return &runHook{obs: o, base: o.trace.Now()}
}

// runHook adapts the runtime Hook interface onto the tracer and
// registry for one program execution.
type runHook struct {
	obs  *Observer
	base float64
}

// BufferCreated counts allocations and bytes.
func (h *runHook) BufferCreated(b *ocl.Buffer) {
	m := h.obs.metrics
	m.Counter("ocl_buffers_created", L("precision", b.Elem().String())).Inc()
	m.Counter("ocl_buffer_bytes", L("precision", b.Elem().String())).Add(float64(b.Bytes()))
}

// EventRecorded accumulates the event metrics — counts and durations by
// kind and direction, transferred bytes, and per-precision dynamic flop
// counts from the kernel interpreter — and, when a tracer is attached,
// turns the event into a span on its activity row.
func (h *runHook) EventRecorded(e ocl.Event) {
	m := h.obs.metrics
	kind := e.Kind.String()
	m.Counter("ocl_events", L("kind", kind), L("dir", e.Dir.String())).Inc()
	m.Counter("ocl_event_seconds", L("kind", kind), L("dir", e.Dir.String())).Add(e.Duration)
	switch e.Kind {
	case ocl.EvKernel:
		for _, prec := range precision.Descending {
			if n := e.Counts.Flops[prec]; n > 0 {
				m.Counter("kernel_flops", L("precision", prec.String())).Add(n)
			}
		}
		m.Counter("kernel_conv_ops").Add(e.Counts.ConvOps)
		m.Counter("kernel_launches", L("kernel", e.Kernel)).Inc()
	case ocl.EvDeviceConvert:
		m.Counter("convert_elems", L("side", "device")).Add(float64(e.Elems))
	case ocl.EvHostConvert:
		m.Counter("convert_elems", L("side", "host")).Add(float64(e.Elems))
	case ocl.EvWrite:
		m.Counter("bus_bytes", L("dir", "HtoD")).Add(float64(e.Bytes))
	case ocl.EvRead:
		m.Counter("bus_bytes", L("dir", "DtoH")).Add(float64(e.Bytes))
	}
	if h.obs.trace != nil {
		h.span(e)
	}
}

// span records e on its row: kernels and device-side conversions on the
// device row, host conversions on the host row, transfers on the bus.
func (h *runHook) span(e ocl.Event) {
	t := h.obs.trace
	start := h.base + e.Start
	switch e.Kind {
	case ocl.EvKernel:
		t.Emit("kernel "+e.Kernel, "kernel", RowDevice, start, e.Duration,
			A("work_items", e.Counts.WorkItems),
			A("flops", totalFlops(e.Counts)),
			A("conv_ops", e.Counts.ConvOps),
		)
	case ocl.EvDeviceConvert:
		t.Emit(fmt.Sprintf("device convert %s->%s", e.Src, e.Dst), e.Dir.String(), RowDevice, start, e.Duration,
			A("elems", e.Elems))
	case ocl.EvHostConvert:
		t.Emit(fmt.Sprintf("host convert %s->%s", e.Src, e.Dst), e.Dir.String(), RowHost, start, e.Duration,
			A("elems", e.Elems))
	case ocl.EvWrite:
		t.Emit(fmt.Sprintf("HtoD %s (%d B)", e.Dst, e.Bytes), e.Dir.String(), RowBus, start, e.Duration,
			A("bytes", e.Bytes), A("buffer", e.Buffer))
	case ocl.EvRead:
		t.Emit(fmt.Sprintf("DtoH %s (%d B)", e.Src, e.Bytes), e.Dir.String(), RowBus, start, e.Duration,
			A("bytes", e.Bytes), A("buffer", e.Buffer))
	}
}

// totalFlops sums weighted flops in fixed precision order so the sum is
// bit-deterministic (map iteration order would let float rounding vary
// between runs, breaking byte-identical trace exports).
func totalFlops(c kir.Counts) float64 {
	var s float64
	for _, t := range precision.Descending {
		s += c.Flops[t]
	}
	return s
}

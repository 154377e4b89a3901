package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// runQueue drives a real runtime queue through one event of every kind
// with h attached: a write, a host conversion, a device conversion, a
// kernel launch and a read. It returns the queue's events.
func runQueue(t *testing.T, h ocl.Hook) []ocl.Event {
	t.Helper()
	ctx := ocl.NewContext(hw.System1())
	ctx.AddHook(h)
	q := ocl.NewQueue(ctx)
	b := ctx.MustCreateBuffer("a", precision.Double, 64)
	if err := q.WriteBuffer(b, precision.NewArray(precision.Double, 64)); err != nil {
		t.Fatal(err)
	}
	q.AddHostTime(1e-6, ocl.DirHtoD, b, 64, precision.Double, precision.Single)
	q.MustDeviceConvert(b, precision.Half)
	k := kir.NewKernel("scale2", 1).InOut("b").
		Body(kir.Put("b", kir.Gid(0), kir.Mul(kir.F(2), kir.At("b", kir.Gid(0))))).MustBuild()
	if err := q.Launch(kir.MustCompile(k), [2]int{4, 1}, []*ocl.Buffer{b}, nil, nil); err != nil {
		t.Fatal(err)
	}
	q.MustReadBuffer(b)
	return q.Events()
}

// The runtime hook turns every queue event into one span on its
// activity row: kernels on the device row as "kernel <name>", host
// conversions on the host row, transfers on the bus row. The spans keep
// the in-order queue's order without overlap, offset by the tracer's
// clock when the hook was created.
func TestRunHookSpans(t *testing.T) {
	o := New()
	o.Advance(0.5)
	events := runQueue(t, o.RunHook())

	var buf bytes.Buffer
	if err := o.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans []int
	for i, e := range doc.TraceEvents {
		if e.Phase == "X" {
			spans = append(spans, i)
		} else if e.Phase != "M" {
			t.Errorf("phase %q, want M or X", e.Phase)
		}
	}
	if len(spans) != len(events) {
		t.Fatalf("trace has %d spans, queue has %d events", len(spans), len(events))
	}
	var sawKernel, sawHost, sawBus bool
	prevEnd := 0.5e6
	for n, i := range spans {
		e, ev := doc.TraceEvents[i], events[n]
		if math.Abs(e.TS-(0.5+ev.Start)*1e6) > 1e-6 {
			t.Errorf("span %q at %v µs, want the event's start offset by the clock", e.Name, e.TS)
		}
		if e.TS < prevEnd-1e-9 {
			t.Error("spans overlap: the simulated queue is in-order")
		}
		prevEnd = e.TS + e.Dur
		switch ev.Kind {
		case ocl.EvKernel:
			if e.TID != RowDevice || e.Name != "kernel scale2" {
				t.Errorf("kernel span %q on row %d", e.Name, e.TID)
			}
			sawKernel = true
		case ocl.EvDeviceConvert:
			if e.TID != RowDevice {
				t.Errorf("device conversion %q on row %d", e.Name, e.TID)
			}
		case ocl.EvHostConvert:
			if e.TID != RowHost || !strings.HasPrefix(e.Name, "host convert ") {
				t.Errorf("host conversion %q on row %d", e.Name, e.TID)
			}
			sawHost = true
		case ocl.EvWrite, ocl.EvRead:
			if e.TID != RowBus {
				t.Errorf("transfer %q on row %d", e.Name, e.TID)
			}
			sawBus = true
		}
	}
	if !sawKernel || !sawHost || !sawBus {
		t.Errorf("rows missing: kernel=%v host=%v bus=%v", sawKernel, sawHost, sawBus)
	}
}

// An observer with a metrics registry but no tracer still gets a
// runtime hook, and that hook feeds the event metrics: the decision
// service's per-request observer is built this way.
func TestRunHookMetricsWithoutTracer(t *testing.T) {
	reg := NewRegistry()
	h := Compose(nil, reg, nil).RunHook()
	if h == nil {
		t.Fatal("metrics-only observer returned no runtime hook")
	}
	runQueue(t, h)
	if v := reg.Counter("ocl_events", L("kind", ocl.EvKernel.String()), L("dir", ocl.DirNone.String())).Value(); v != 1 {
		t.Errorf("ocl_events{kind=kernel} = %v, want 1", v)
	}
	if v := reg.Counter("kernel_flops", L("precision", precision.Double.String())).Value(); v <= 0 {
		t.Errorf("kernel_flops{precision=double} = %v, want > 0", v)
	}
	if v := reg.Counter("bus_bytes", L("dir", "HtoD")).Value(); v != 64*8 {
		t.Errorf("bus_bytes{dir=HtoD} = %v, want %d", v, 64*8)
	}
	if v := reg.Counter("bus_bytes", L("dir", "DtoH")).Value(); v != 64*8 {
		t.Errorf("bus_bytes{dir=DtoH} = %v, want %d", v, 64*8)
	}

	if Compose(nil, nil, &Journal{}).RunHook() != nil {
		t.Error("observer with neither tracer nor registry returned a runtime hook")
	}
}

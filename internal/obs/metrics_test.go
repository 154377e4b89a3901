package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("trials", L("kind", "executed"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // counters only grow
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Same name+labels resolves to the same instrument, regardless of
	// label order.
	c2 := r.Counter("trials", L("kind", "executed"))
	if c2 != c {
		t.Fatal("registry minted a duplicate counter")
	}
	multi := r.Counter("x", L("b", "2"), L("a", "1"))
	if r.Counter("x", L("a", "1"), L("b", "2")) != multi {
		t.Fatal("label order changed instrument identity")
	}
	// Different labels are a different series.
	if r.Counter("trials", L("kind", "memoized")) == c {
		t.Fatal("distinct labels shared an instrument")
	}

	g := r.Gauge("speedup")
	g.Set(1.5)
	g.Set(1.33)
	if g.Value() != 1.33 {
		t.Fatalf("gauge = %v", g.Value())
	}

	h := r.Histogram("err", []float64{0.1, 0.5})
	for _, v := range []float64{0.05, 0.2, 0.7, 0.3} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1.25 || h.Max() != 0.7 {
		t.Fatalf("histogram count=%d sum=%v max=%v", h.Count(), h.Sum(), h.Max())
	}
	if h.Mean() != 1.25/4 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrument, the tracer, the journal, and the observer must be
	// no-ops when nil — this is what keeps the hot path untouched with
	// observability off.
	var c *Counter
	c.Inc()
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram has state")
	}

	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", nil).Observe(1)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "name,labels,kind,field,value\n" {
		t.Fatalf("nil registry CSV = %q", got)
	}

	var tr *Tracer
	s := tr.Start("x", "y")
	s.SetAttr("k", 1)
	tr.End(s)
	tr.Emit("e", "c", RowHost, 0, 1)
	tr.Advance(5)
	if tr.Now() != 0 || tr.Spans() != nil || s.Duration() != 0 {
		t.Fatal("nil tracer has state")
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer export not valid JSON: %v", err)
	}

	var j *Journal
	j.Note("ignored %d", 1)
	j.Object("a").AddAttempt(TrialNote{})
	if j.Render() != "" {
		t.Fatal("nil journal renders text")
	}

	var o *Observer
	o.Advance(1)
	if o.Tracer() != nil || o.Metrics() != nil || o.Journal() != nil {
		t.Fatal("nil observer hands out live components")
	}
	if o.Explain() != "" {
		t.Fatal("nil observer explains")
	}
	if hook := o.RunHook(); hook != nil {
		t.Fatal("nil observer returned a non-nil hook")
	}
}

func TestWriteCSVDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		// Insertion order deliberately scrambled vs. sort order.
		r.Counter("zeta", L("dir", "DtoH")).Add(3)
		r.Gauge("alpha").Set(1.5)
		r.Counter("zeta", L("dir", "HtoD")).Add(7)
		r.Histogram("mid", []float64{0.5, 0.1}).Observe(0.3)
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("CSV not deterministic:\n%s\n%s", a, b)
	}

	recs, err := csv.NewReader(bytes.NewReader(a)).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if got := strings.Join(recs[0], ","); got != "name,labels,kind,field,value" {
		t.Fatalf("header = %q", got)
	}
	// Rows sorted by (name, labels, field).
	for i := 2; i < len(recs); i++ {
		prev := strings.Join(recs[i-1][:4], "\x00")
		cur := strings.Join(recs[i][:4], "\x00")
		if cur < prev {
			t.Fatalf("rows out of order: %v before %v", recs[i-1], recs[i])
		}
	}
	// Histogram bucket grid is sorted at creation even when passed
	// unsorted, and rows carry the bucket fields.
	var fields []string
	for _, rec := range recs[1:] {
		if rec[0] == "mid" {
			fields = append(fields, rec[3])
		}
	}
	want := "bucket_le_0.1,bucket_le_0.5,bucket_le_inf,count,max,mean,sum"
	if got := strings.Join(fields, ","); got != want {
		t.Fatalf("histogram fields = %q, want %q", got, want)
	}
}

func TestJournalRender(t *testing.T) {
	j := &Journal{
		Workload: "gemm", System: "system1", TOQ: 0.80,
		VisitOrder:    []string{"C", "A", "B"},
		BaselineTotal: 0.010,
		PreFP:         &PassNote{Chosen: "FP32"},
	}
	j.PreFP.Attempts = append(j.PreFP.Attempts, TrialNote{Target: "all-FP32", Total: 0.008, Quality: 0.99, Verdict: "accepted"})
	o := j.Object("C")
	o.Kind, o.Elems, o.StopReason = "out", 4096, "toq-fail at FP16"
	o.Chosen, o.ChosenPlans = "FP32", "ev0:device"
	o.AddAttempt(TrialNote{Target: "FP32", Total: 0.007, Quality: 0.98, Verdict: "best-so-far"})
	o.AddAttempt(TrialNote{Target: "FP16", Total: 0.006, Quality: 0.40, Verdict: "toq-fail", Cached: true})
	o.Wildcard = &WildcardNote{
		Mids:   []string{"FP16"},
		Best:   &TrialNote{Target: "FP16*", Total: 0.005, Predicted: true, Verdict: "predicted"},
		Reason: "slower than normal search",
	}
	j.Note("fallback engaged after %d trials", 7)
	j.FinalTotal, j.FinalQuality, j.Speedup, j.Trials = 0.007, 0.98, 1.43, 9
	j.SearchSpace, j.TreeSpace, j.PredictedSpace = 729, 27, 9

	got := j.Render()
	for _, want := range []string{
		"gemm", "system1", "TOQ 0.80",
		"visit order: C, A, B",
		"object C (out, 4096 elems",
		"FP32", "FP16",
		"(memoized)",
		"-> toq-fail",
		"stop: toq-fail at FP16",
		"wildcard (mids FP16)",
		"not executed", // predicted wildcard candidate has no measured quality
		"slower than normal search",
		"note: fallback engaged after 7 trials",
		"speedup 1.43x, 9 trials",
		"729 entire (eq1)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("Render missing %q in:\n%s", want, got)
		}
	}
	// A predicted trial must not print a bogus measured quality.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "FP16*") && strings.Contains(line, "quality") {
			t.Fatalf("predicted trial shows measured quality: %q", line)
		}
	}

	// Object() is get-or-create.
	if j.Object("C") != o {
		t.Fatal("Object minted a duplicate note")
	}
	if len(j.Objects) != 1 {
		t.Fatalf("objects = %d, want 1", len(j.Objects))
	}
}

// -update rewrites the exposition goldens under testdata from the
// current registry.
var update = flag.Bool("update", false, "rewrite the exposition goldens")

// expositionScript feeds a registry a fixed sequence: every instrument
// kind with zero, one and two labels, two-label lookups in both orders,
// and label values that need quoting or escaping.
func expositionScript(r *Registry) {
	r.Counter("requests", L("endpoint", "scale")).Add(3)
	r.Counter("requests", L("endpoint", "healthz")).Inc()
	r.Counter("plain").Inc()
	r.Counter("faults", L("op", "write"), L("kind", "transient")).Add(2)
	r.Counter("faults", L("kind", "transient"), L("op", "write")).Inc()
	r.Counter("faults", L("kind", "lost"), L("op", "launch")).Inc()
	r.Counter("odd", L("msg", "a\"b\\c\nd,e=f")).Inc()
	r.Gauge("busy").Set(2)
	r.Gauge("space", L("eq", "tree")).Set(1.5)
	r.Gauge("peer_up", L("peer", "127.0.0.1:9"), L("node", "a")).Set(1)
	r.Gauge("peer_up", L("node", "a"), L("peer", "127.0.0.1:9")).Set(0)
	r.Gauge("peer_up", L("node", "b"), L("peer", "127.0.0.1:9")).Set(1)
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	r.Histogram("stage_seconds", []float64{1, 0.1}, L("stage", "queue"), L("bench", "ATAX")).Observe(0.05)
	r.Histogram("stage_seconds", nil, L("bench", "ATAX"), L("stage", "queue")).Observe(2)
	r.Histogram("stage_seconds", nil, L("bench", "GEMM"), L("stage", "queue")).Observe(0.5)
	r.Histogram("errors", nil, L("bench", "GEMM")).Observe(0.03)
}

// TestExpositionGolden pins the Prometheus and CSV renderings of a fixed
// registry byte for byte.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	expositionScript(r)
	var prom, csvOut bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{{"exposition.prom", prom.Bytes()}, {"exposition.csv", csvOut.Bytes()}} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update): %v", path, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from golden:\ngot:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}

// TestRegistryLookupAllocs checks that looking up an existing instrument
// allocates nothing, with zero, one or two labels in either order, and
// that both orders of two labels name one instrument.
func TestRegistryLookupAllocs(t *testing.T) {
	r := NewRegistry()
	c0 := r.Counter("plain")
	c1 := r.Counter("requests", L("endpoint", "scale"))
	c2 := r.Counter("faults", L("op", "write"), L("kind", "transient"))
	g2 := r.Gauge("peer_up", L("peer", "a"), L("node", "b"))
	h2 := r.Histogram("stage_seconds", nil, L("stage", "queue"), L("bench", "ATAX"))
	if r.Counter("faults", L("kind", "transient"), L("op", "write")) != c2 ||
		r.Gauge("peer_up", L("node", "b"), L("peer", "a")) != g2 ||
		r.Histogram("stage_seconds", nil, L("bench", "ATAX"), L("stage", "queue")) != h2 {
		t.Fatal("label order changed instrument identity")
	}
	endpoint := strings.Repeat("s", 1) + "cale" // not a constant
	for _, c := range []struct {
		name string
		want any
		get  func() any
	}{
		{"counter/0", c0, func() any { return r.Counter("plain") }},
		{"counter/1", c1, func() any { return r.Counter("requests", L("endpoint", endpoint)) }},
		{"counter/2", c2, func() any { return r.Counter("faults", L("op", "write"), L("kind", "transient")) }},
		{"counter/2-swapped", c2, func() any { return r.Counter("faults", L("kind", "transient"), L("op", "write")) }},
		{"gauge/2", g2, func() any { return r.Gauge("peer_up", L("node", "b"), L("peer", "a")) }},
		{"histogram/2", h2, func() any { return r.Histogram("stage_seconds", nil, L("stage", "queue"), L("bench", "ATAX")) }},
	} {
		if got := c.get(); got != c.want {
			t.Errorf("%s: lookup returned another instrument", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { c.get() }); n != 0 {
			t.Errorf("%s: lookup allocates %v times, want 0", c.name, n)
		}
	}
}

// TestRegistryRejectsThirdLabel checks that a third label panics with a
// message that names the metric.
func TestRegistryRejectsThirdLabel(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "search_trials") {
			t.Fatalf("panic = %q, want one naming the metric", msg)
		}
	}()
	NewRegistry().Counter("search_trials", L("a", "1"), L("b", "2"), L("c", "3"))
}

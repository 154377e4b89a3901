package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestWallTracerChromeExport(t *testing.T) {
	wt := NewWallTracer()
	req := wt.Start("request GEMM", "request", A("id", "abc"))
	q := wt.Start("queue-wait", "queue")
	wt.End(q)
	wt.Emit("trial uniform single", "trial", WallRowTrials, wt.Now(), 0.001, A("quality", 0.97))
	wt.End(req)
	// The wall clock cannot be advanced like the virtual one.
	before := wt.Now()
	wt.Advance(1000)
	if wt.Now()-before >= 1000 {
		t.Error("Advance moved a wall tracer's clock")
	}

	var buf bytes.Buffer
	if err := wt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	rows := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		if e.Phase == "M" {
			rows[e.Args["name"].(string)] = true
		}
		if e.Phase == "X" && e.Name != "trial uniform single" && e.TID != WallRowRequest {
			t.Errorf("span %s on row %d, want the request row", e.Name, e.TID)
		}
		if e.Phase == "X" && e.TS < 0 {
			t.Errorf("span %s has negative timestamp %v", e.Name, e.TS)
		}
	}
	for _, want := range []string{"request GEMM", "queue-wait", "trial uniform single"} {
		if !names[want] {
			t.Errorf("trace missing span %q:\n%s", want, buf.String())
		}
	}
	if len(rows) != 2 || !rows["request"] || !rows["trials"] {
		t.Errorf("wall trace rows %v, want request and trials only", rows)
	}
}

func TestWallTracerNilAndOpenSpans(t *testing.T) {
	var wt *Tracer
	wt.End(wt.Start("x", "y"))
	wt.Emit("x", "y", 0, 0, 1)
	var buf bytes.Buffer
	if err := wt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{\"traceEvents\":[]}\n" {
		t.Errorf("nil tracer trace = %q", buf.String())
	}

	// An open span is closed at export time with a non-negative duration.
	wt2 := NewWallTracer()
	wt2.Start("open", "request")
	buf.Reset()
	if err := wt2.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == "open" {
			found = true
			if e.Dur < 0 {
				t.Errorf("open span exported with negative duration %v", e.Dur)
			}
		}
	}
	if !found {
		t.Error("open span missing from export")
	}
}

func TestWallTracerConcurrent(t *testing.T) {
	wt := NewWallTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := wt.Start("s", "c")
				wt.Emit("e", "c", WallRowTrials, wt.Now(), 0)
				wt.End(s)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := wt.WriteChromeTrace(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

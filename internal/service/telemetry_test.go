package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/polybench"
	"repro/internal/scaler"
)

// sseRecord is one parsed server-sent event.
type sseRecord struct {
	name string
	data map[string]any
}

// readSSE subscribes to a decision's event stream and collects events
// until the terminal one (or the deadline).
func readSSE(t *testing.T, base, id string) []sseRecord {
	t.Helper()
	events, err := streamSSE(base + "/v1/decisions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// streamSSE reads an events route like readSSE, for goroutines other
// than the test's own: it returns what went wrong instead of failing
// the test.
func streamSSE(url string) ([]sseRecord, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("events Content-Type = %q", ct)
	}
	var events []sseRecord
	var cur sseRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = sseRecord{name: strings.TrimPrefix(line, "event: ")}
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				return nil, fmt.Errorf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" || cur.name == "error" {
					return events, nil
				}
				cur = sseRecord{}
			}
		}
	}
	return nil, fmt.Errorf("event stream ended without a terminal event: %+v", events)
}

// rawSSE reads a decision's whole event stream as bytes; the server ends
// it after the terminal event.
func rawSSE(t *testing.T, base, id string) []byte {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/v1/decisions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// assertProgressStream checks the contract both the live stream and the
// history replay must satisfy: a start event, at least one trial event,
// and the terminal done event, in that order.
func assertProgressStream(t *testing.T, events []sseRecord) {
	t.Helper()
	if len(events) < 3 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	if events[0].name != "start" {
		t.Errorf("first event %q, want start", events[0].name)
	}
	trials := 0
	for _, ev := range events {
		if ev.name == "trial" {
			trials++
			if ev.data["label"] == "" || ev.data["verdict"] == "" {
				t.Errorf("trial event missing label/verdict: %+v", ev.data)
			}
		}
	}
	if trials == 0 {
		t.Errorf("no trial events in stream: %+v", events)
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("terminal event %q, want done: %+v", last.name, last.data)
	}
	if id, _ := last.data["decision_id"].(string); id == "" {
		t.Errorf("done event missing decision_id: %+v", last.data)
	}
}

// fingerprintOnly runs POST /v1/scale?fingerprint=1 and returns the
// decision id and cached flag.
func fingerprintOnly(t *testing.T, base, body string) (string, bool) {
	t.Helper()
	resp, err := http.Post(base+"/v1/scale?fingerprint=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint status %d", resp.StatusCode)
	}
	var out struct {
		Schema     string `json:"schema"`
		DecisionID string `json:"decision_id"`
		Cached     bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != api.Schema || out.DecisionID == "" {
		t.Fatalf("fingerprint response %+v", out)
	}
	if hdr := resp.Header.Get("X-Decision-Id"); hdr != out.DecisionID {
		t.Errorf("X-Decision-Id %q != body id %q", hdr, out.DecisionID)
	}
	return out.DecisionID, out.Cached
}

// Decision bodies must stay byte-identical to the CLI encoding with
// every telemetry channel exercised (structured logs at debug level,
// request ids, SSE subscribers, wall traces): each is a side channel.
func TestTelemetryByteIdentity(t *testing.T) {
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})
	req := `{"benchmark":"veccombine","toq":0.92}`

	// Subscribe to the SSE stream before the search runs.
	id, cached := fingerprintOnly(t, ts.URL, req)
	if cached {
		t.Fatal("fingerprint reports cached before any search")
	}
	var wg sync.WaitGroup
	var streamed []sseRecord
	wg.Add(1)
	go func() {
		defer wg.Done()
		streamed = readSSE(t, ts.URL, id)
	}()

	resp, body := postScale(t, ts, req)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := cliBody(t, scaler.Options{TOQ: 0.92, Retries: 2}); !bytes.Equal(body, want) {
		t.Errorf("instrumented daemon body differs from CLI encoding:\ndaemon:\n%s\ncli:\n%s", body, want)
	}
	assertProgressStream(t, streamed)

	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Error("response missing X-Request-Id")
	}
	if !strings.Contains(logs.String(), rid) {
		t.Errorf("access log does not mention request id %s:\n%s", rid, logs.String())
	}
}

// A cache miss feeds the shared registry the same runtime and scaler
// metrics as an observed CLI search of the same request, although the
// daemon attaches no virtual-clock tracer to its searches: the runtime
// hook feeds the registry on its own.
func TestMissMetricsMatchCLI(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, Config{Obs: o, Workload: polybench.ByName})
	if resp, body := postScale(t, ts, `{"benchmark":"ATAX"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	opts, err := scaler.DefaultOptions().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cli := obs.New()
	opts.Obs = cli
	if _, err := core.NewFramework(hw.System1()).Scale(context.Background(), polybench.ByName("ATAX"), opts); err != nil {
		t.Fatal(err)
	}
	got, want := searchMetrics(t, o.Metrics()), searchMetrics(t, cli.Metrics())
	if !strings.Contains(want, "ocl_events,") || !strings.Contains(want, "trials_executed,") {
		t.Fatalf("CLI registry lacks runtime or scaler metrics:\n%s", want)
	}
	if got != want {
		t.Errorf("daemon search metrics differ from the CLI's:\ndaemon:\n%s\ncli:\n%s", got, want)
	}
}

// searchMetrics renders the runtime and scaler metric families of reg,
// the ones a search feeds, as CSV rows.
func searchMetrics(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, row := range strings.Split(buf.String(), "\n") {
		name, _, _ := strings.Cut(row, ",")
		for _, family := range []string{"ocl_", "kernel_", "bus_bytes", "convert_elems", "trials_",
			"toq_outcome", "search_", "object_precision", "conversion_method"} {
			if strings.HasPrefix(name, family) {
				rows = append(rows, row)
				break
			}
		}
	}
	return strings.Join(rows, "\n")
}

// The SSE stream must deliver trial events and a terminal event both
// for the original cache miss (live) and for later subscribers to the
// now-cached decision (history replay).
func TestSSEEventsMissAndHit(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := `{"benchmark":"halfhostile"}`

	resp, _ := postScale(t, ts, req)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	id := resp.Header.Get("X-Decision-Id")

	// Replay after the miss completed.
	assertProgressStream(t, readSSE(t, ts.URL, id))

	// The log keeps each progress event's value and the stream encodes it
	// on read: the frames must be the eager encoding of the same events.
	srv.dmu.Lock()
	log := srv.decisions[id].log
	srv.dmu.Unlock()
	logged, _, _, _ := log.read(0)
	var eager bytes.Buffer
	progress := 0
	for _, ev := range logged {
		data := ev.data
		if ev.progress != nil {
			progress++
			var err error
			if data, err = json.Marshal(*ev.progress); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&eager, "event: %s\ndata: %s\n\n", ev.name, data)
	}
	if progress == 0 {
		t.Fatal("the miss logged no progress event")
	}
	if raw := rawSSE(t, ts.URL, id); !bytes.Equal(raw, eager.Bytes()) {
		t.Errorf("streamed frames differ from the eager encoding:\n%s\nvs\n%s", raw, eager.Bytes())
	}

	// A cache hit runs no search; its subscribers still replay the
	// original search's events.
	resp2, _ := postScale(t, ts, req)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	assertProgressStream(t, readSSE(t, ts.URL, id))
}

// GET /v1/decisions/{id}/trace serves the wall-clock Chrome trace of
// the search: the request/queue-wait/search lifecycle spans plus one
// span per trial.
func TestDecisionTrace(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, _ := postScale(t, ts, `{"benchmark":"veccombine"}`)
	id := resp.Header.Get("X-Decision-Id")

	tr, err := http.Get(ts.URL + "/v1/decisions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tr.StatusCode)
	}
	served, err := io.ReadAll(tr.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The record keeps the closed tracer and renders it per request: the
	// served bytes are what an eager rendering of it gives.
	closed, ok := srv.traceFor(id)
	if !ok {
		t.Fatal("no tracer stored for the decision")
	}
	var eager bytes.Buffer
	if err := closed.WriteChromeTrace(&eager); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, eager.Bytes()) {
		t.Errorf("served trace differs from an eager rendering:\n%s\n%s", served, eager.Bytes())
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(served, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	trialSpans := 0
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Phase == "X" && ev.TS < 0 {
			t.Errorf("span %q has negative timestamp", ev.Name)
		}
		if ev.Cat == "trial" || ev.Cat == "profile" {
			trialSpans++
		}
	}
	for _, want := range []string{"scale veccombine", "queue-wait", "search"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
	if trialSpans == 0 {
		t.Error("trace has no trial spans")
	}

	if r, err := http.Get(ts.URL + "/v1/decisions/ffffffffffffffff/trace"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace status %d, want 404", r.StatusCode)
		}
	}
}

// A panic below the middleware must be recovered into the deterministic
// 500 "panic" envelope, logged with the request id, and counted.
func TestPanicRecovery(t *testing.T) {
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	srv, ts := newTestServer(t, Config{Logger: logger})
	srv.testSearchStarted = func(ctx context.Context, bench string) { panic("boom: " + bench) }

	resp, body := postScale(t, ts, `{"benchmark":"veccombine"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("panic response not an error envelope: %s", body)
	}
	if e.Code != "panic" || e.Schema != api.Schema {
		t.Errorf("envelope %+v, want code panic", e)
	}
	out := logs.String()
	if !strings.Contains(out, "panic serving request") || !strings.Contains(out, "boom: veccombine") {
		t.Errorf("panic not logged:\n%s", out)
	}
	if !strings.Contains(out, resp.Header.Get("X-Request-Id")) {
		t.Errorf("panic log missing request id %s", resp.Header.Get("X-Request-Id"))
	}

	// The server keeps serving: the slot was released by the deferred
	// drain despite the panic.
	srv.testSearchStarted = nil
	resp2, _ := postScale(t, ts, `{"benchmark":"veccombine"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-panic status %d, want 200", resp2.StatusCode)
	}
}

// A client-supplied X-Request-Id is echoed verbatim when sane and
// replaced when not.
func TestRequestIDPassthrough(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func(rid string) string {
		req, err := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rid != "" {
			req.Header.Set("X-Request-Id", rid)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}
	if got := get("client-id-42"); got != "client-id-42" {
		t.Errorf("sane id not echoed: %q", got)
	}
	long := strings.Repeat("x", 65)
	if got := get(long); got == long || got == "" {
		t.Errorf("over-long id echoed or dropped: %q", got)
	}
	if got := get(""); len(got) != 16 {
		t.Errorf("generated id %q, want 16 hex chars", got)
	}
	// The transport forbids control characters in headers, so sanitize
	// is checked directly for those.
	if sanitizeRequestID("bad\x01id") != "" || sanitizeRequestID("tab\tid") != "" {
		t.Error("control characters accepted in request id")
	}
}

// /v1/healthz reports uptime and request-latency/queue-wait summaries
// once traffic has flowed.
func TestHealthzLatencySummaries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postScale(t, ts, `{"benchmark":"veccombine"}`)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		RequestLat    struct {
			Count int     `json:"count"`
			P50   float64 `json:"p50_ms"`
			P99   float64 `json:"p99_ms"`
			Max   float64 `json:"max_ms"`
		} `json:"request_latency"`
		QueueWait struct {
			Count int `json:"count"`
		} `json:"queue_wait"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.UptimeSeconds <= 0 {
		t.Errorf("status %q uptime %v", h.Status, h.UptimeSeconds)
	}
	if h.RequestLat.Count < 1 {
		t.Errorf("request_latency.count = %d, want >= 1", h.RequestLat.Count)
	}
	if h.QueueWait.Count < 1 {
		t.Errorf("queue_wait.count = %d, want >= 1", h.QueueWait.Count)
	}
	if h.RequestLat.P50 > h.RequestLat.P99 || h.RequestLat.P99 > h.RequestLat.Max {
		t.Errorf("latency quantiles not monotone: %+v", h.RequestLat)
	}
	if h.RequestLat.Max <= 0 {
		t.Errorf("max latency %v, want > 0", h.RequestLat.Max)
	}
}

// GET /metrics must serve valid Prometheus exposition and survive
// concurrent scrapes racing live search traffic (run under -race).
func TestMetricsEndpointConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	// Prime the request counter with one synchronous request so every
	// scrape below must see the family — without it the first scrape
	// races the first concurrent POST and can legitimately miss it.
	resp0, err := http.Post(ts.URL+"/v1/scale", "application/json",
		strings.NewReader(`{"benchmark":"veccombine"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp0.Body)
	resp0.Body.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"benchmark":"veccombine","toq":0.9%d}`, i)
			resp, err := http.Post(ts.URL+"/v1/scale", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("scale status %d", resp.StatusCode)
			}
		}(i)
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
			t.Errorf("metrics Content-Type = %q", resp.Header.Get("Content-Type"))
		}
		families, err := obs.LintPrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d invalid: %v", i, err)
		}
		if families["service_requests"] == 0 {
			t.Errorf("scrape %d missing service_requests", i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After traffic settles the request-latency histogram is present.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.LintPrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"http_request_seconds", "service_queue_wait_seconds", "service_searches"} {
		if families[want] == 0 {
			t.Errorf("metrics missing family %s (have %v)", want, families)
		}
	}
}

// POST /v1/scale?fingerprint=1 must report the id without running a
// search, and flip cached to true once the decision exists.
func TestFingerprintOnlyScale(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := `{"benchmark":"veccombine"}`

	id1, cached := fingerprintOnly(t, ts.URL, req)
	if cached {
		t.Error("cached=true before any search")
	}
	if n := srv.lru.Len(); n != 0 {
		t.Errorf("fingerprint-only ran a search: %d cached decisions", n)
	}

	resp, _ := postScale(t, ts, req)
	if resp.Header.Get("X-Decision-Id") != id1 {
		t.Errorf("search id %q != fingerprint id %q", resp.Header.Get("X-Decision-Id"), id1)
	}
	id2, cached := fingerprintOnly(t, ts.URL, req)
	if !cached || id2 != id1 {
		t.Errorf("after search: id %q cached %v, want %q true", id2, cached, id1)
	}
}

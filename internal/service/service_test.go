package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
	"repro/internal/wltest"
)

// testWorkloads resolves the synthetic test benchmarks the way
// polybench.ByName resolves the real ones.
func testWorkloads(name string) *prog.Workload {
	switch name {
	case "veccombine":
		return wltest.VecCombine(1 << 12)
	case "halfhostile":
		return wltest.HalfHostile(1 << 10)
	}
	return nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workload == nil {
		cfg.Workload = testWorkloads
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postScale(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/scale", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// The daemon's decision body must be byte-identical to what
// cmd/prescaler -json produces for the same workload and options: the
// same Normalize defaults, the same core search, the same canonical
// encoder.
func TestScaleMatchesCLIOutput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, got := postScale(t, ts, `{"benchmark":"veccombine"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if c := resp.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("X-Cache = %q, want miss", c)
	}
	if want := cliBody(t, scaler.Options{Retries: 2}); !bytes.Equal(got, want) {
		t.Errorf("daemon body differs from CLI encoding:\ndaemon:\n%s\ncli:\n%s", got, want)
	}
}

// cliBody is the cmd/prescaler -json path for veccombine on system1,
// verbatim: defaults via Normalize, search via core.Framework.Scale,
// canonical encoding via api.EncodeDecision.
func cliBody(t *testing.T, opts scaler.Options) []byte {
	t.Helper()
	opts, err := opts.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sys := hw.System1()
	w := wltest.VecCombine(1 << 12)
	sp, err := core.NewFramework(sys).Scale(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.EncodeDecision(&buf, api.NewDecision(sys, w, sp.Search, opts.TOQ, opts.InputSet)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A repeated request must be served from the decision cache — hit
// counter up, X-Cache: hit — with the byte-identical body, and the
// decision must stay addressable under GET /v1/decisions/{id}.
func TestScaleCacheHit(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, Config{Obs: o})
	req := `{"benchmark":"veccombine","toq":0.95}`
	resp1, body1 := postScale(t, ts, req)
	resp2, body2 := postScale(t, ts, req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if c := resp2.Header.Get("X-Cache"); c != "hit" {
		t.Errorf("second X-Cache = %q, want hit", c)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit body differs from the original")
	}
	id1, id2 := resp1.Header.Get("X-Decision-Id"), resp2.Header.Get("X-Decision-Id")
	if id1 == "" || id1 != id2 {
		t.Errorf("decision ids %q / %q, want equal and non-empty", id1, id2)
	}
	if v := o.Metrics().Counter("service_cache", obs.L("result", "hit")).Value(); v != 1 {
		t.Errorf("cache hit counter = %v, want 1", v)
	}

	resp, err := http.Get(ts.URL + "/v1/decisions/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body3, body1) {
		t.Errorf("GET /v1/decisions/%s: status %d, body equal %v", id1, resp.StatusCode, bytes.Equal(body3, body1))
	}

	// A decision-affecting option must miss: different fingerprint.
	resp3, _ := postScale(t, ts, `{"benchmark":"veccombine","toq":0.5}`)
	if c := resp3.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("different TOQ X-Cache = %q, want miss", c)
	}
	if id3 := resp3.Header.Get("X-Decision-Id"); id3 == id1 {
		t.Error("different TOQ produced the same fingerprint")
	}
}

// A client disconnect must cancel the in-flight search at a trial
// boundary and release the worker slot for the next request.
func TestCancelReleasesWorkerSlot(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: o})
	started := make(chan struct{})
	// The hook runs after the slot is acquired and before the search:
	// hold the first search until its request context actually dies, so
	// the very first trial-boundary check sees the cancellation. Later
	// searches pass straight through (the hook is installed once, before
	// any traffic, and never mutated — handlers read it concurrently).
	var once sync.Once
	canceled := make(chan struct{})
	srv.testSearchStarted = func(ctx context.Context, bench string) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(started)
			<-ctx.Done()
			close(canceled)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/scale",
		strings.NewReader(`{"benchmark":"veccombine"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}
	// The client gives up before the server notices. Sent earlier, the
	// second request would join the first search and keep it alive.
	<-canceled

	// The slot must be free again: a second request completes.
	resp, body := postScale(t, ts, `{"benchmark":"veccombine"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d: %s", resp.StatusCode, body)
	}
	if v := o.Metrics().Counter("service_searches", obs.L("result", "canceled")).Value(); v != 1 {
		t.Errorf("canceled-search counter = %v, want 1", v)
	}
	if v := o.Metrics().Counter("service_searches", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("ok-search counter = %v, want 1", v)
	}
}

// Every error class maps to its deterministic (status, code) pair.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"unknown benchmark", `{"benchmark":"NOPE"}`, http.StatusNotFound, "not_found"},
		{"unknown system", `{"benchmark":"veccombine","system":"system9"}`, http.StatusNotFound, "not_found"},
		{"bad toq", `{"benchmark":"veccombine","toq":1.5}`, http.StatusBadRequest, "bad_request"},
		{"bad input set", `{"benchmark":"veccombine","input_set":"weird"}`, http.StatusBadRequest, "bad_request"},
		{"bad fault spec", `{"benchmark":"veccombine","faults":"gremlins:1"}`, http.StatusBadRequest, "bad_request"},
		{"malformed json", `{`, http.StatusBadRequest, "bad_request"},
		{"future schema", `{"schema":"prescaler/v2","benchmark":"veccombine"}`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"benchmark":"veccombine","tooq":0.9}`, http.StatusBadRequest, "bad_request"},
		{"device lost", `{"benchmark":"veccombine","faults":"devlost:1"}`, http.StatusBadGateway, "device_lost"},
	}
	for _, c := range cases {
		resp, body := postScale(t, ts, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: non-envelope error body %s", c.name, body)
			continue
		}
		if e.Code != c.code || e.Schema != api.Schema {
			t.Errorf("%s: envelope %+v, want code %q", c.name, e, c.code)
		}
	}

	// Unknown decision id.
	resp, err := http.Get(ts.URL + "/v1/decisions/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown decision: status %d, want 404", resp.StatusCode)
	}
}

// retries comes from the request body, and every attempt of a trial
// that keeps faulting holds a worker slot, so both endpoints that take
// it reject values above the scaler's ceiling of 16 before any search.
func TestRetriesCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		path, body string
		status     int
	}{
		{"/v1/scale", `{"benchmark":"veccombine","retries":17}`, http.StatusBadRequest},
		{"/v1/sessions", `{"benchmark":"veccombine","retries":17}`, http.StatusBadRequest},
		{"/v1/scale", `{"benchmark":"veccombine","retries":16}`, http.StatusOK},
	} {
		resp, body := postJSON(t, ts, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.path, c.body, resp.StatusCode, c.status, body)
			continue
		}
		if c.status == http.StatusOK {
			continue
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Code != "bad_request" {
			t.Errorf("%s %s: envelope %s, want code bad_request", c.path, c.body, body)
		}
	}
}

// GET /v1/systems lists every preset with its inspector inventory;
// healthz and metricsz respond and reflect traffic.
func TestIntrospectionEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("inspects all system presets")
	}
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("systems: status %d", resp.StatusCode)
	}
	var systems []*api.System
	if err := json.Unmarshal(body, &systems); err != nil {
		t.Fatal(err)
	}
	if len(systems) != len(hw.Systems()) {
		t.Errorf("systems: %d entries, want %d", len(systems), len(hw.Systems()))
	}
	for _, s := range systems {
		if s.Schema != api.Schema || s.Curves == 0 || len(s.Sizes) == 0 {
			t.Errorf("system %s: incomplete inventory %+v", s.Name, s)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers < 1 {
		t.Errorf("healthz: %s", body)
	}

	resp, err = http.Get(ts.URL + "/v1/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "service_requests") {
		t.Errorf("metricsz missing request counters:\n%s", body)
	}
}

// legacyFingerprint is the decision id computed the way it was before
// the inspector database hashed itself at construction: FNV-64a over
// json.Marshal of the whole database, then the request fields.
func legacyFingerprint(t *testing.T, job *scaleJob) string {
	t.Helper()
	db, err := json.Marshal(job.fw.DB())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(db)
	fmt.Fprintf(h, "|sys=%s|w=%s|toq=%x|set=%s", job.fw.System().Name, job.w.Name, job.opts.TOQ, job.opts.InputSet)
	if job.spec != nil {
		fmt.Fprintf(h, "|faults=%s|retries=%d", job.spec.String(), job.opts.Retries)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFingerprintMatchesLegacy pins decision ids across the switch to a
// database hashed once: journals, ring routing and warm pushes all key
// on them, so every id must equal the one the per-request marshal gave.
func TestFingerprintMatchesLegacy(t *testing.T) {
	small := map[string]*prog.Workload{}
	for _, w := range polybench.SmallSuite() {
		small[w.Name] = w
	}
	srv, err := New(Config{Workload: func(name string) *prog.Workload { return small[name] }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prepare := func(req *api.ScaleRequest) *scaleJob {
		t.Helper()
		job, err := srv.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}

	// Ids served by the daemon before the change.
	for _, tc := range []struct{ body, id string }{
		{`{"benchmark":"GEMM"}`, "56118bb916e74077"},
		{`{"benchmark":"ATAX","system":"system3","toq":0.95,"input_set":"random"}`, "ec9ad52a16c2bcb4"},
	} {
		var req api.ScaleRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		if got := prepare(&req).id; got != tc.id {
			t.Errorf("%s: id %s, want %s", tc.body, got, tc.id)
		}
	}

	checked := 0
	for _, sys := range []string{"system1", "system1-x8", "system2", "system3"} {
		for name := range small {
			for _, toq := range []float64{0.8, 0.9, 0.99} {
				for _, set := range []string{"default", "image", "random"} {
					for _, faults := range []string{"", "write:0.01,launch:0.005"} {
						job := prepare(&api.ScaleRequest{
							Benchmark: name, System: sys, TOQ: toq, InputSet: set,
							Faults: faults, FaultSeed: 7,
						})
						if want := legacyFingerprint(t, job); job.id != want {
							t.Errorf("%s/%s toq=%v set=%s faults=%q: id %s, legacy %s",
								sys, name, toq, set, faults, job.id, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked != 4*14*3*3*2 {
		t.Errorf("checked %d ids, want %d", checked, 4*14*3*3*2)
	}
}

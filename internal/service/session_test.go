package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
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

func createSession(t *testing.T, ts *httptest.Server, body string) (*api.Session, *http.Response) {
	t.Helper()
	resp, b := postJSON(t, ts, "/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", resp.StatusCode, b)
	}
	var sess api.Session
	if err := json.Unmarshal(b, &sess); err != nil {
		t.Fatalf("create session: %v\n%s", err, b)
	}
	return &sess, resp
}

func evaluate(t *testing.T, ts *httptest.Server, id, body string) (*api.EvaluateResponse, []byte) {
	t.Helper()
	resp, b := postJSON(t, ts, "/v1/sessions/"+id+"/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: status %d: %s", resp.StatusCode, b)
	}
	var ev api.EvaluateResponse
	if err := json.Unmarshal(b, &ev); err != nil {
		t.Fatalf("evaluate: %v\n%s", err, b)
	}
	return &ev, b
}

// Creating a session runs the ordinary cold search: the session's
// decision lands in the decision cache under its fingerprint with bytes
// identical to a plain /v1/scale answer, and the session document is
// re-fetchable.
func TestSessionCreateColdIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bare := postScale(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)

	sess, resp := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)
	if !strings.HasPrefix(sess.ID, "sess") || len(sess.ID) != 16 {
		t.Errorf("session id %q, want sess + 12 hex digits", sess.ID)
	}
	if sess.Generation != 1 || sess.Decision == nil || sess.InputSet != "random" {
		t.Errorf("session document incomplete: %+v", sess)
	}
	id := resp.Header.Get("X-Decision-Id")
	if id == "" {
		t.Fatal("create response missing X-Decision-Id")
	}
	dResp, err := http.Get(ts.URL + "/v1/decisions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	dBody, _ := io.ReadAll(dResp.Body)
	dResp.Body.Close()
	if dResp.StatusCode != http.StatusOK || !bytes.Equal(dBody, bare) {
		t.Errorf("session's decision differs from the plain /v1/scale body")
	}

	gResp, gBody := getSession(t, ts, sess.ID)
	if gResp.StatusCode != http.StatusOK {
		t.Fatalf("get session: status %d", gResp.StatusCode)
	}
	var got api.Session
	if err := json.Unmarshal(gBody, &got); err != nil || got.ID != sess.ID || got.Generation != 1 {
		t.Errorf("get session: %s", gBody)
	}
}

func getSession(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// Unknown and deleted sessions answer with the 404 error envelope on
// every session route.
func TestSessionNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	check := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404: %s", what, resp.StatusCode, body)
			return
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Code != "not_found" || e.Schema != api.Schema {
			t.Errorf("%s: bad envelope %s", what, body)
		}
	}

	resp, b := getSession(t, ts, "sess000000000bad")
	check("get", resp, b)
	resp, b = postJSON(t, ts, "/v1/sessions/sess000000000bad/evaluate", `{}`)
	check("evaluate", resp, b)
	eResp, err := http.Get(ts.URL + "/v1/sessions/sess000000000bad/events")
	if err != nil {
		t.Fatal(err)
	}
	eBody, _ := io.ReadAll(eResp.Body)
	eResp.Body.Close()
	check("events", eResp, eBody)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/sess000000000bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	dResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dBody, _ := io.ReadAll(dResp.Body)
	dResp.Body.Close()
	check("delete", dResp, dBody)

	// Delete a real session, then every route must 404.
	sess, _ := createSession(t, ts, `{"benchmark":"veccombine"}`)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil)
	dResp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dResp.Body)
	dResp.Body.Close()
	if dResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete live session: status %d", dResp.StatusCode)
	}
	resp, b = getSession(t, ts, sess.ID)
	check("get after delete", resp, b)
}

// An idle session past its TTL is reclaimed lazily: the next touch
// answers 404 and the drop is counted with reason "expired".
func TestSessionExpiry(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{Obs: o})
	var mu sync.Mutex
	cur := time.Now()
	srv.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}

	sess, _ := createSession(t, ts, `{"benchmark":"veccombine","ttl_seconds":10}`)
	if sess.TTLSeconds != 10 {
		t.Errorf("ttl_seconds %d, want 10", sess.TTLSeconds)
	}
	resp, _ := getSession(t, ts, sess.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-expiry get: status %d", resp.StatusCode)
	}

	mu.Lock()
	cur = cur.Add(11 * time.Second)
	mu.Unlock()
	resp, body := getSession(t, ts, sess.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-expiry get: status %d: %s", resp.StatusCode, body)
	}
	if v := o.Metrics().Counter("service_session_drops", obs.L("reason", "expired")).Value(); v != 1 {
		t.Errorf("expired-drop counter = %v, want 1", v)
	}
}

// ttl_seconds can only shorten the server's session TTL: a request at
// or above the limit gets the limit, and one too large for a
// time.Duration must not overflow into an already-expired session.
func TestSessionTTLClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionTTL: time.Hour})
	for _, c := range []struct {
		ttl, want int
	}{
		{10_000_000_000, 3600},
		{864000, 3600},
		{3600, 3600},
		{60, 60},
		{0, 3600},
	} {
		body := `{"benchmark":"veccombine"}`
		if c.ttl != 0 {
			body = fmt.Sprintf(`{"benchmark":"veccombine","ttl_seconds":%d}`, c.ttl)
		}
		sess, _ := createSession(t, ts, body)
		if sess.TTLSeconds != c.want {
			t.Errorf("ttl_seconds %d: session ttl %d, want %d", c.ttl, sess.TTLSeconds, c.want)
		}
		if resp, b := getSession(t, ts, sess.ID); resp.StatusCode != http.StatusOK {
			t.Errorf("ttl_seconds %d: get status %d: %s", c.ttl, resp.StatusCode, b)
		}
	}
}

// A re-scale waiting for a worker slot holds only its own session:
// lookups of other sessions, and journal compaction's walk over the
// store, must not queue behind it.
func TestSessionRescaleDoesNotBlockOtherSessions(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: o})
	a, _ := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)
	b, _ := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random","toq":0.95}`)

	// Park a search on the only worker slot, so session A's re-scale
	// queues for it while holding A's mutex.
	started := make(chan struct{})
	block := make(chan struct{})
	srv.testSearchStarted = func(ctx context.Context, bench string) {
		if bench == "halfhostile" {
			close(started)
			<-block
		}
	}
	// request issues one call off the test goroutine, keeping its body.
	var wg sync.WaitGroup
	request := func(method, path, body string, out *[]byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if out != nil {
				*out = data
			}
		}()
	}
	request(http.MethodPost, "/v1/scale", `{"benchmark":"halfhostile"}`, nil)
	<-started
	var evaluated []byte
	request(http.MethodPost, "/v1/sessions/"+a.ID+"/evaluate", `{"input_set":"image"}`, &evaluated)
	waitFor(t, func() bool { return srv.admit.Depth() == 1 })

	// A lookup of A itself, and compaction, wait for A. Once the lookup's
	// handler has started, give both a moment to reach A's mutex: cut
	// short, the check below can only pass vacuously, never fail.
	request(http.MethodGet, "/v1/sessions/"+a.ID, "", nil)
	lookups := o.Metrics().Counter("service_requests", obs.L("endpoint", "sessions"))
	waitFor(t, func() bool { return lookups.Value() == 3 })
	wg.Add(1)
	snaps := make(chan []persistRecord, 1)
	go func() {
		defer wg.Done()
		snaps <- srv.sessionSnapshots()
	}()
	time.Sleep(50 * time.Millisecond)

	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/sessions/" + b.ID)
	if err != nil {
		close(block)
		wg.Wait()
		t.Fatalf("get of an unrelated session blocked behind a queued re-scale: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("get of an unrelated session: status %d", resp.StatusCode)
	}

	close(block)
	wg.Wait()
	var ev api.EvaluateResponse
	if err := json.Unmarshal(evaluated, &ev); err != nil || !ev.Rescaled || ev.Generation != 2 {
		t.Errorf("queued re-scale did not complete once the slot freed: %s", evaluated)
	}
	var ids []string
	for _, rec := range <-snaps {
		ids = append(ids, rec.id)
	}
	if len(ids) != 2 || ids[0] != a.ID || ids[1] != b.ID {
		t.Errorf("compaction snapshotted sessions %v, want both %s and %s", ids, a.ID, b.ID)
	}
}

// The tentpole scenario: a session scaled for one input distribution
// sees a drifted batch, detects it, and re-scales warm — new
// generation, reason "drift", strictly fewer trials than the cold
// search for the same drifted input.
func TestSessionDriftRescale(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, Config{Obs: o})
	sess, _ := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)

	// Same distribution: no drift, no re-scale.
	ev1, _ := evaluate(t, ts, sess.ID, `{}`)
	if ev1.Generation != 1 || ev1.Rescaled || ev1.RescaleReason != "" {
		t.Fatalf("in-distribution evaluate: %+v", ev1)
	}
	if !ev1.TOQMet {
		t.Errorf("in-distribution batch missed TOQ: quality %.4f < %.4f", ev1.Quality, ev1.TOQ)
	}
	for _, d := range ev1.Drift {
		if d.Drifted {
			t.Errorf("object %s drifted on in-distribution batch (shift %.4f)", d.Object, d.Shift)
		}
	}

	// Image pixels in [0,256) against a reference scaled for [0,1):
	// every input object's distribution moved by orders of magnitude.
	ev2, _ := evaluate(t, ts, sess.ID, `{"input_set":"image"}`)
	if !ev2.Rescaled || ev2.RescaleReason != "drift" || ev2.Generation != 2 {
		t.Fatalf("drifted evaluate did not re-scale: %+v", ev2)
	}
	drifted := false
	for _, d := range ev2.Drift {
		drifted = drifted || d.Drifted
	}
	if !drifted {
		t.Error("drifted evaluate reported no drifted object")
	}
	if v := o.Metrics().Counter("service_rescale", obs.L("reason", "drift")).Value(); v != 1 {
		t.Errorf("rescale counter = %v, want 1", v)
	}
	// Create and re-scale each took the one search-slot path: both
	// searches are counted and both queue waits observed.
	if v := o.Metrics().Counter("service_searches", obs.L("result", "ok")).Value(); v != 2 {
		t.Errorf("ok-search counter = %v after create + re-scale, want 2", v)
	}
	if n := o.Metrics().Histogram("service_queue_wait_seconds", obs.DefaultLatencyBuckets).Count(); n != 2 {
		t.Errorf("queue-wait observations = %d after create + re-scale, want 2", n)
	}

	// The new generation is live and warm-searched: the session document
	// advances, its decision is for the drifted set, and the warm search
	// spent strictly fewer trials than a cold search on the same input.
	_, gBody := getSession(t, ts, sess.ID)
	var got api.Session
	if err := json.Unmarshal(gBody, &got); err != nil {
		t.Fatal(err)
	}
	if got.Generation != 2 || got.InputSet != "image" {
		t.Fatalf("post-drift session: generation %d input %q", got.Generation, got.InputSet)
	}
	if got.Decision.InputSet != "image" {
		t.Errorf("generation-2 decision input_set %q, want image", got.Decision.InputSet)
	}
	if bytes.Equal(mustJSON(t, got.Decision), mustJSON(t, sess.Decision)) {
		t.Error("generation-2 decision identical to generation 1")
	}
	respCold, coldBody := postScale(t, ts, `{"benchmark":"veccombine","input_set":"image"}`)
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold image scale: status %d", respCold.StatusCode)
	}
	var cold api.Decision
	if err := json.Unmarshal(coldBody, &cold); err != nil {
		t.Fatal(err)
	}
	if got.Decision.Search.Trials >= cold.Search.Trials {
		t.Errorf("warm re-scale spent %d trials, cold search %d — warm must be strictly cheaper",
			got.Decision.Search.Trials, cold.Search.Trials)
	}

	// A follow-up batch from the new distribution is in-distribution now.
	ev3, _ := evaluate(t, ts, sess.ID, `{"input_set":"image"}`)
	if ev3.Rescaled || ev3.Generation != 2 || !ev3.TOQMet {
		t.Errorf("post-rescale evaluate: %+v", ev3)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Concurrent evaluates on one session serialize on its mutex: all
// succeed, every response observes a consistent generation, and
// identical in-distribution batches never trigger a re-scale however
// they interleave.
func TestSessionConcurrentEvaluates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sess, _ := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)

	const n = 8
	responses := make([]*api.EvaluateResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/evaluate",
				"application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent evaluate %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			var ev api.EvaluateResponse
			if err := json.Unmarshal(b, &ev); err != nil {
				t.Errorf("concurrent evaluate %d: %v", i, err)
				return
			}
			responses[i] = &ev
		}(i)
	}
	wg.Wait()
	for i, ev := range responses {
		if ev == nil {
			continue
		}
		if ev.Generation != 1 || ev.Rescaled || ev.RescaleFailed {
			t.Errorf("concurrent evaluate %d saw generation churn: %+v", i, ev)
		}
		if ev.Quality != responses[0].Quality || !ev.TOQMet {
			t.Errorf("concurrent evaluate %d quality %v, want %v", i, ev.Quality, responses[0].Quality)
		}
	}
}

// When the warm re-search cannot run (admission rejects it), the
// previous generation stays in force: the evaluate answer carries
// rescale_failed, the generation does not advance, and the next
// drifted batch triggers the re-scale again.
func TestSessionRescaleFailureKeepsGeneration(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1, Obs: o})

	sess, _ := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)

	// Park one search on the only worker slot and queue another, so the
	// admission queue is at capacity when the re-scale asks for a slot.
	started := make(chan struct{})
	block := make(chan struct{})
	srv.testSearchStarted = func(ctx context.Context, bench string) {
		if bench == "halfhostile" {
			close(started)
			<-block
		}
	}
	parkedDone := make(chan struct{})
	go func() {
		defer close(parkedDone)
		resp, err := http.Post(ts.URL+"/v1/scale", "application/json",
			strings.NewReader(`{"benchmark":"halfhostile"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		resp, err := http.Post(ts.URL+"/v1/scale", "application/json",
			strings.NewReader(`{"benchmark":"veccombine","toq":0.52}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return srv.admit.Depth() == 1 })

	ev, _ := evaluate(t, ts, sess.ID, `{"input_set":"image"}`)
	close(block)
	<-parkedDone
	<-queuedDone

	if !ev.RescaleFailed || ev.Rescaled || ev.Generation != 1 || ev.RescaleReason != "drift" {
		t.Fatalf("shed re-scale: %+v", ev)
	}
	if v := o.Metrics().Counter("service_rescale_failures").Value(); v != 1 {
		t.Errorf("rescale-failure counter = %v, want 1", v)
	}
	resp, gBody := getSession(t, ts, sess.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failure get: status %d", resp.StatusCode)
	}
	var got api.Session
	if err := json.Unmarshal(gBody, &got); err != nil || got.Generation != 1 {
		t.Fatalf("generation advanced despite failed re-scale: %s", gBody)
	}

	// Capacity is back: the same drifted batch re-triggers and succeeds.
	ev2, _ := evaluate(t, ts, sess.ID, `{"input_set":"image"}`)
	if !ev2.Rescaled || ev2.Generation != 2 {
		t.Fatalf("retry after shed did not re-scale: %+v", ev2)
	}
}

// The whole session lifecycle is deterministic at any worker count:
// identical evaluate streams produce identical generation sequences
// with byte-identical response bodies.
func TestSessionDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) [][]byte {
		_, ts := newTestServer(t, Config{Workers: workers})
		var out [][]byte
		resp, b := postJSON(t, ts, "/v1/sessions", `{"benchmark":"veccombine","input_set":"random"}`)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create (workers=%d): status %d: %s", workers, resp.StatusCode, b)
		}
		out = append(out, b)
		for _, body := range []string{`{}`, `{"input_set":"image"}`, `{"input_set":"image"}`} {
			resp, b := postJSON(t, ts, "/v1/sessions/sess000000000001/evaluate", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("evaluate (workers=%d): status %d: %s", workers, resp.StatusCode, b)
			}
			out = append(out, b)
		}
		_, b = getSession(t, ts, "sess000000000001")
		out = append(out, b)
		return out
	}
	one := run(1)
	eight := run(8)
	for i := range one {
		if !bytes.Equal(one[i], eight[i]) {
			t.Errorf("step %d differs between Workers=1 and Workers=8:\n%s\nvs\n%s", i, one[i], eight[i])
		}
	}
}

// Open sessions survive a restart: the journal snapshot rebuilds the
// session — generation, decision, drift state — and evaluates keep
// working against the restored state.
func TestSessionJournalReplay(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Server, *httptest.Server, *obs.Observer) {
		o := obs.New()
		srv, err := New(Config{Workers: 2, Obs: o, Workload: testWorkloads, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts, o
	}

	srv1, ts1, _ := mk()
	sess, _ := createSession(t, ts1, `{"benchmark":"veccombine","input_set":"random"}`)
	ev, _ := evaluate(t, ts1, sess.ID, `{"input_set":"image"}`)
	if !ev.Rescaled || ev.Generation != 2 {
		t.Fatalf("drift evaluate before restart: %+v", ev)
	}
	_, before := getSession(t, ts1, sess.ID)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, o2 := mk()
	defer srv2.Close()
	if v := o2.Metrics().Counter("service_session_restore", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("restore counter = %v, want 1", v)
	}
	resp, after := getSession(t, ts2, sess.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored session get: status %d: %s", resp.StatusCode, after)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("restored session document differs:\nbefore: %s\nafter:  %s", before, after)
	}
	ev2, _ := evaluate(t, ts2, sess.ID, `{"input_set":"image"}`)
	if ev2.Rescaled || ev2.Generation != 2 || !ev2.TOQMet {
		t.Errorf("evaluate against restored session: %+v", ev2)
	}

	// A fresh session on the restarted server must not collide with the
	// restored id: the sequence resumes past it.
	sess2, _ := createSession(t, ts2, `{"benchmark":"veccombine"}`)
	if sess2.ID == sess.ID {
		t.Errorf("restarted server reissued session id %s", sess.ID)
	}
}

package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// flightRefs returns the ref count of the single in-flight search (0
// when none).
func flightRefs(s *Server) int {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for _, rec := range s.decisions {
		if rec.done != nil && rec.el == nil {
			return rec.refs
		}
	}
	return 0
}

// N concurrent identical requests must run exactly one search and fan
// its byte-identical body out: one X-Cache miss, N-1 coalesced, and the
// search-start hook fired once.
func TestCoalesceSingleSearch(t *testing.T) {
	const n = 16
	o := obs.New()
	srv, ts := newTestServer(t, Config{Workers: 2, Obs: o})
	var searches atomic.Int32
	hold := make(chan struct{})
	releaseHold := sync.OnceFunc(func() { close(hold) })
	// Release the parked leader even on a mid-test Fatal: the httptest
	// Close cleanup waits for outstanding requests and would deadlock.
	defer releaseHold()
	srv.testSearchStarted = func(ctx context.Context, bench string) {
		if searches.Add(1) == 1 {
			<-hold // park the leader until every request has subscribed
		}
	}

	type result struct {
		status int
		cache  string
		body   []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/v1/scale",
				bytes.NewReader([]byte(`{"benchmark":"veccombine","toq":0.97}`)))
			if err != nil {
				results <- result{0, err.Error(), nil}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results <- result{0, err.Error(), nil}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("X-Cache"), body}
		}()
	}

	// Wait until all n requests joined the one search, then let the
	// leader search.
	deadline := time.Now().Add(10 * time.Second)
	for flightRefs(srv) != n {
		if time.Now().After(deadline) {
			t.Fatalf("flight refs = %d, want %d", flightRefs(srv), n)
		}
		time.Sleep(time.Millisecond)
	}
	releaseHold()
	wg.Wait()
	close(results)

	counts := map[string]int{}
	var first []byte
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		counts[r.cache]++
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("coalesced body differs from the leader's")
		}
	}
	if counts["miss"] != 1 || counts["coalesced"] != n-1 {
		t.Errorf("cache states = %v, want 1 miss / %d coalesced", counts, n-1)
	}
	if got := searches.Load(); got != 1 {
		t.Errorf("searches started = %d, want exactly 1", got)
	}
	if v := o.Metrics().Counter("service_cache", obs.L("result", "coalesced")).Value(); v != n-1 {
		t.Errorf("coalesced counter = %v, want %d", v, n-1)
	}
	if v := o.Metrics().Counter("service_searches", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("ok-search counter = %v, want 1", v)
	}

	// The decision is stored; a repeat is a plain cache hit.
	resp, body := postScale(t, ts, `{"benchmark":"veccombine","toq":0.97}`)
	if c := resp.Header.Get("X-Cache"); c != "hit" || !bytes.Equal(body, first) {
		t.Errorf("post-flight request: X-Cache %q, body equal %v", c, bytes.Equal(body, first))
	}
}

// When every request waiting on a search disconnects, the search must
// be canceled at its next trial boundary — nobody is left to read it.
func TestCoalesceCancelWhenAllSubscribersLeave(t *testing.T) {
	o := obs.New()
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: o})
	started := make(chan context.Context, 1)
	var once sync.Once
	srv.testSearchStarted = func(ctx context.Context, bench string) {
		once.Do(func() { started <- ctx })
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/scale",
		bytes.NewReader([]byte(`{"benchmark":"veccombine","toq":0.93}`)))
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
	sctx := <-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}
	select {
	case <-sctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("search context not canceled after the last request left")
	}
}

// A search every request has left can only end in a cancellation: a
// later identical request must start a fresh record instead of joining
// it, and ending the doomed search must leave its replacement in the
// table. The first request's context is canceled up front, so its
// AfterFunc leave runs at once, concurrently with join (-race).
func TestDoomedFlightNotJoined(t *testing.T) {
	srv, err := New(Config{Workload: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const id = "00000000000000aa"
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	doomed, leave, leader := srv.join(id, gone)
	defer leave()
	if !leader {
		t.Fatal("first request is not the leader")
	}
	<-doomed.ctx.Done()

	fresh, leave2, leader := srv.join(id, context.Background())
	defer leave2()
	if !leader || fresh == doomed {
		t.Fatal("a request joined a search every earlier request had left")
	}
	srv.finish(doomed, nil, nil, context.Canceled)
	srv.dmu.Lock()
	indexed := srv.decisions[id]
	srv.dmu.Unlock()
	if indexed != fresh {
		t.Fatal("ending the doomed search removed its replacement")
	}
	srv.finish(fresh, nil, nil, context.Canceled)
	if n := tableLen(srv); n != 0 {
		t.Errorf("%d records left after both searches failed", n)
	}

	// A doomed search that completes anyway still stores its body, under
	// the replacement, whose own search then ends its log.
	doomed, leave3, _ := srv.join(id, gone)
	defer leave3()
	<-doomed.ctx.Done()
	fresh, leave4, _ := srv.join(id, context.Background())
	defer leave4()
	body := []byte(`{"decision":"doomed"}`)
	srv.finish(doomed, body, nil, nil)
	if got, ok := srv.cached(id); !ok || !bytes.Equal(got, body) {
		t.Fatalf("doomed search's body not cached: %q, %v", got, ok)
	}
	if ev := lastLogEvent(doomed.log); ev.name != "done" || !bytes.Contains(ev.data, []byte(`"cached":false`)) {
		t.Errorf("doomed search's log ended with %s %s, want done cached:false", ev.name, ev.data)
	}
	if _, _, closed, _ := fresh.log.read(0); closed {
		t.Error("storing the doomed body ended the replacement's log under its running search")
	}
	srv.finish(fresh, body, nil, nil)
	if ev := lastLogEvent(fresh.log); ev.name != "done" || !bytes.Contains(ev.data, []byte(`"cached":false`)) {
		t.Errorf("replacement's log ended with %s %s, want done cached:false", ev.name, ev.data)
	}
}

// lastLogEvent returns the newest event a log holds (zero when none).
func lastLogEvent(l *eventLog) sseEvent {
	events, _, _, _ := l.read(0)
	if len(events) == 0 {
		return sseEvent{}
	}
	return events[len(events)-1]
}

// A body stored while its id's search runs — a warm push, a session
// create — leaves the log to the search, which ends it; and if the LRU
// evicts that record before the search ends, the search stores its
// body again.
func TestStoreDuringSearch(t *testing.T) {
	srv, err := New(Config{CacheSize: 1, Workload: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const id, other = "00000000000000a1", "00000000000000a2"
	body := []byte(`{"decision":"a1"}`)

	rec, leave, _ := srv.join(id, context.Background())
	defer leave()
	srv.store(id, body)
	if _, _, closed, _ := rec.log.read(0); closed {
		t.Fatal("a store mid-search ended the search's log")
	}
	srv.store(other, []byte(`{"decision":"a2"}`)) // evicts id
	if _, ok := srv.cached(id); ok {
		t.Fatal("id still cached after its eviction")
	}
	srv.finish(rec, body, []byte(`{"trace":1}`), nil)
	if got, ok := srv.cached(id); !ok || !bytes.Equal(got, body) {
		t.Errorf("evicted record's search did not store its body again: %q, %v", got, ok)
	}
	if tr, ok := srv.traceFor(id); !ok || string(tr) != `{"trace":1}` {
		t.Errorf("trace after re-store: %q, %v", tr, ok)
	}
	if ev := lastLogEvent(rec.log); ev.name != "done" || !bytes.Contains(ev.data, []byte(`"cached":false`)) {
		t.Errorf("search's log ended with %s %s, want done cached:false", ev.name, ev.data)
	}

	// A search that fails after a store landed leaves the body stored
	// and ends its log as a stored body's.
	const third = "00000000000000a3"
	rec, leave2, _ := srv.join(third, context.Background())
	defer leave2()
	srv.store(third, body)
	srv.finish(rec, nil, nil, context.Canceled)
	if _, ok := srv.cached(third); !ok {
		t.Error("failed search dropped a stored body")
	}
	if ev := lastLogEvent(rec.log); ev.name != "done" || !bytes.Contains(ev.data, []byte(`"cached":true`)) {
		t.Errorf("failed search over a stored body ended with %s %s, want done cached:true", ev.name, ev.data)
	}
}

// The decision LRU must stay consistent when many searches complete and
// evict concurrently (run under -race). Store/evict/lookup from many
// goroutines, including duplicate ids racing like coalesced
// completions do, then check the table and list agree and capacity
// holds.
func TestLRUStoreEvictRace(t *testing.T) {
	srv, err := New(Config{CacheSize: 8, Workload: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// Half the ids collide across goroutines: concurrent
				// store of the same id is the coalesced-completion race.
				id := fmt.Sprintf("%016x", i%50)
				if i%2 == 0 {
					id = fmt.Sprintf("%016x", g*1000+i)
				}
				srv.store(id, []byte(id))
				srv.cached(id)
				srv.traceFor(id)
			}
		}(g)
	}
	wg.Wait()
	srv.dmu.Lock()
	defer srv.dmu.Unlock()
	if srv.lru.Len() != len(srv.decisions) {
		t.Errorf("lru len %d != table len %d", srv.lru.Len(), len(srv.decisions))
	}
	if srv.lru.Len() > 8 {
		t.Errorf("lru len %d exceeds capacity 8", srv.lru.Len())
	}
	for el := srv.lru.Front(); el != nil; el = el.Next() {
		rec := el.Value.(*decision)
		if srv.decisions[rec.id] != rec || rec.el != el {
			t.Errorf("table record for %s does not point at its element", rec.id)
		}
	}
}

// tableLen returns the number of records in the decision table.
func tableLen(s *Server) int {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return len(s.decisions)
}

// subscribers returns the open SSE connections on id's record.
func subscribers(s *Server, id string) int {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if rec := s.decisions[id]; rec != nil {
		return rec.subs
	}
	return 0
}

// sseResult is what a background subscriber read.
type sseResult struct {
	events []sseRecord
	err    error
}

// subscribeAndWait subscribes to id on base from another goroutine and
// returns once srv counts the subscriber, so the flow under test
// cannot outrun it.
func subscribeAndWait(t *testing.T, srv *Server, base, id string) <-chan sseResult {
	t.Helper()
	out := make(chan sseResult, 1)
	before := subscribers(srv, id)
	go func() {
		events, err := streamSSE(base + "/v1/decisions/" + id + "/events")
		out <- sseResult{events, err}
	}()
	waitFor(t, func() bool { return subscribers(srv, id) > before })
	return out
}

// lastEvent waits for a background subscriber and returns its last
// event, which must be the terminal one.
func lastEvent(t *testing.T, c <-chan sseResult) sseRecord {
	t.Helper()
	r := <-c
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.events[len(r.events)-1]
}

// Subscriptions whose clients leave before anything computes their ids
// must not pile up: 4096 of them leave no record, and the next miss
// still streams its whole progress.
func TestAbandonedSubscriptionsLeaveNoRecord(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 4096; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/decisions/%016x/events", i), nil)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req.WithContext(gone))
	}
	if n := tableLen(srv); n != 0 {
		t.Fatalf("%d records left by abandoned subscriptions", n)
	}

	req := `{"benchmark":"veccombine","toq":0.94}`
	id, _ := fingerprintOnly(t, ts.URL, req)
	events := subscribeAndWait(t, srv, ts.URL, id)
	if resp, body := postScale(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	r := <-events
	if r.err != nil {
		t.Fatal(r.err)
	}
	assertProgressStream(t, r.events)
}

// A failed search removes its record at once: a subscriber attached
// during the search reads its error, and nothing stays behind.
func TestFailedSearchesLeaveNoRecord(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	lost := func(seed int) string {
		return fmt.Sprintf(`{"benchmark":"veccombine","faults":"devlost:1","fault_seed":%d}`, seed)
	}
	id, _ := fingerprintOnly(t, ts.URL, lost(0))
	events := subscribeAndWait(t, srv, ts.URL, id)
	for seed := 0; seed < 20; seed++ {
		if resp, body := postScale(t, ts, lost(seed)); resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("seed %d: status %d, want 502: %s", seed, resp.StatusCode, body)
		}
	}
	if ev := lastEvent(t, events); ev.name != "error" {
		t.Errorf("subscriber of a failing search ended with %q, want error", ev.name)
	}
	if n := tableLen(srv); n != 0 {
		t.Errorf("%d records left by failed searches", n)
	}
}

// On a fleet, the subscribe-then-POST flow must end on a node that
// proxies the request: the relayed 200 ends the local log with done
// {"cached":true}, and any other relayed status with error.
func TestClusterProxiedAnswerEndsLog(t *testing.T) {
	nodes := startCluster(t, 2)
	req := `{"benchmark":"veccombine","toq":0.94}`
	id := fingerprintFor(t, nodes[0], req)
	proxy := nodes[0]
	if proxy.srv.view.Ring().Owner(id) == proxy.addr {
		proxy = nodes[1]
	}
	events := subscribeAndWait(t, proxy.srv, proxy.url(), id)
	resp, body := postScaleURL(t, proxy.url(), req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "remote" {
		t.Fatalf("status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	ev := lastEvent(t, events)
	if ev.name != "done" || ev.data["cached"] != true || ev.data["decision_id"] != id {
		t.Errorf("proxying node's subscriber ended with %s %v, want done cached for %s", ev.name, ev.data, id)
	}
	if n := tableLen(proxy.srv); n != 0 {
		t.Errorf("%d records left on the proxying node", n)
	}

	// A subscriber that arrives after the relayed answer (a client that
	// POSTed before subscribing) waits for the next request for the id;
	// that request's relayed answer ends its log.
	events = subscribeAndWait(t, proxy.srv, proxy.url(), id)
	if n := tableLen(proxy.srv); n != 1 {
		t.Fatalf("late subscriber: %d records on the proxying node, want its pending one", n)
	}
	postScaleURL(t, proxy.url(), req)
	if ev := lastEvent(t, events); ev.name != "done" || ev.data["cached"] != true {
		t.Errorf("late subscriber ended with %s %v, want done cached", ev.name, ev.data)
	}

	// A relayed error answer (a shed, say) ends the log with error.
	const other = "00000000000000cd"
	rec := proxy.srv.subscribe(other)
	defer proxy.srv.unsubscribe(rec)
	proxy.srv.relayed(other, "peer", http.StatusTooManyRequests)
	if events, _, closed, _ := rec.log.read(0); !closed || events[len(events)-1].name != "error" {
		t.Errorf("relayed 429 left the log open or ended it with %+v", events)
	}
}

// A subscriber waiting on an id whose body is then stored without a
// local search — a warm push, a session create — reads done
// {"cached":true}.
func TestStoreEndsPendingLog(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	check := func(what string, events <-chan sseResult, id string) {
		t.Helper()
		ev := lastEvent(t, events)
		if ev.name != "done" || ev.data["cached"] != true || ev.data["decision_id"] != id {
			t.Errorf("%s: subscriber ended with %s %v, want done cached for %s", what, ev.name, ev.data, id)
		}
	}

	_, peer := newTestServer(t, Config{})
	resp, body := postScale(t, peer, `{"benchmark":"veccombine","toq":0.93}`)
	id := resp.Header.Get("X-Decision-Id")
	events := subscribeAndWait(t, srv, ts.URL, id)
	wresp, err := http.Post(ts.URL+"/v1/decisions/"+id+"/warm", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusNoContent {
		t.Fatalf("warm status %d", wresp.StatusCode)
	}
	check("warm push", events, id)

	sreq := `{"benchmark":"veccombine","input_set":"random"}`
	id, _ = fingerprintOnly(t, ts.URL, sreq)
	events = subscribeAndWait(t, srv, ts.URL, id)
	createSession(t, ts, sreq)
	check("session create", events, id)
}

// A reader far behind its log — further than the 64 events a
// per-subscriber channel used to buffer — still reads every event, the
// terminal one included, and the one SSE writer renders them all.
func TestEventLogSlowReaderReadsTerminal(t *testing.T) {
	log := newEventLog()
	events, next, closed, changed := log.read(0)
	if len(events) != 0 || next != 0 || closed {
		t.Fatalf("fresh log: %d events, next %d, closed %v", len(events), next, closed)
	}
	for i := 0; i < 100; i++ {
		log.publish(sseEvent{name: "trial", data: []byte(fmt.Sprintf(`{"trial":%d}`, i))})
	}
	log.publish(doneEvent("00000000000000ab", false))
	log.publish(sseEvent{name: "trial", data: []byte(`{"trial":100}`)})
	<-changed
	events, next, closed, _ = log.read(0)
	if len(events) != 101 || next != 101 || !closed || events[100].name != "done" {
		t.Fatalf("slow reader got %d events (closed %v), want 100 trials then done", len(events), closed)
	}

	w := httptest.NewRecorder()
	serveEvents(w, httptest.NewRequest(http.MethodGet, "/", nil), log)
	frames := strings.Split(strings.TrimSuffix(w.Body.String(), "\n\n"), "\n\n")
	if len(frames) != 101 || frames[100] != `event: done`+"\n"+`data: {"cached":false,"decision_id":"00000000000000ab"}` {
		t.Errorf("writer rendered %d frames, last %q", len(frames), frames[len(frames)-1])
	}
}

// Past maxStreamHistory a log drops its oldest events, not its newest:
// a reader that keeps up still reads every new event, and a late one
// reads the newest maxStreamHistory, terminal event included.
func TestEventLogDropsOldest(t *testing.T) {
	log := newEventLog()
	trial := func(i int) sseEvent {
		return sseEvent{name: "trial", data: []byte(fmt.Sprintf(`{"trial":%d}`, i))}
	}
	const n = maxStreamHistory + 100
	cursor := 0
	for i := 0; i < n; i++ {
		log.publish(trial(i))
		events, next, _, _ := log.read(cursor)
		if len(events) != 1 || string(events[0].data) != string(trial(i).data) {
			t.Fatalf("live reader at event %d read %d events", i, len(events))
		}
		cursor = next
	}
	log.publish(doneEvent("00000000000000ab", false))
	events, next, closed, _ := log.read(0)
	if len(events) != maxStreamHistory || next != n+1 || !closed {
		t.Fatalf("late reader: %d events, next %d, closed %v", len(events), next, closed)
	}
	if first := string(events[0].data); first != string(trial(n+1-maxStreamHistory).data) {
		t.Errorf("oldest kept event %s, want trial %d", first, n+1-maxStreamHistory)
	}
	if events[len(events)-1].name != "done" {
		t.Errorf("late reader's last event %q, want done", events[len(events)-1].name)
	}
	if events, _, _, _ := log.read(cursor); len(events) != 1 || events[0].name != "done" {
		t.Errorf("live reader's last read: %+v, want done", events)
	}
}

// A session subscriber that keeps up reads every batch's evaluate
// event, also past maxStreamHistory of them, then the re-scale's
// generation and evaluate, then done once the session is deleted.
func TestSessionLogPastHistoryBound(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, Config{Obs: o})
	sess, _ := createSession(t, ts, `{"benchmark":"veccombine","input_set":"random"}`)
	out := make(chan sseResult, 1)
	go func() {
		events, err := streamSSE(ts.URL + "/v1/sessions/" + sess.ID + "/events")
		out <- sseResult{events, err}
	}()
	subscribed := o.Metrics().Counter("service_requests", obs.L("endpoint", "session_events"))
	waitFor(t, func() bool { return subscribed.Value() == 1 })
	for i := 0; i < maxStreamHistory+8; i++ {
		evaluate(t, ts, sess.ID, `{}`)
	}
	if ev, _ := evaluate(t, ts, sess.ID, `{"input_set":"image"}`); !ev.Rescaled {
		t.Fatalf("drifted evaluate did not re-scale: %+v", ev)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.events) <= maxStreamHistory {
		t.Fatalf("live subscriber read %d events, want more than %d", len(r.events), maxStreamHistory)
	}
	tail := r.events[len(r.events)-3:]
	if tail[0].name != "generation" || tail[1].name != "evaluate" || tail[1].data["rescaled"] != true || tail[2].name != "done" {
		t.Errorf("stream ended %s %s(rescaled %v) %s, want generation, the re-scaling evaluate, done",
			tail[0].name, tail[1].name, tail[1].data["rescaled"], tail[2].name)
	}
}

package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// flightRefs returns the subscriber count of the single in-flight
// search (0 when none).
func flightRefs(s *Server) int {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	for _, f := range s.flights {
		f.mu.Lock()
		n := f.refs
		f.mu.Unlock()
		return n
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

	// Wait until all n requests joined the one flight, then let the
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

	// The flight is retired; a repeat is a plain cache hit.
	resp, body := postScale(t, ts, `{"benchmark":"veccombine","toq":0.97}`)
	if c := resp.Header.Get("X-Cache"); c != "hit" || !bytes.Equal(body, first) {
		t.Errorf("post-flight request: X-Cache %q, body equal %v", c, bytes.Equal(body, first))
	}
}

// When every subscriber of a flight disconnects, the search must be
// canceled at its next trial boundary — nobody is left to read it.
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
		t.Fatal("flight context not canceled after the last subscriber left")
	}
}

// A flight every subscriber has left can only end in a cancellation: a
// later identical request must start a fresh flight instead of joining
// it, and retiring the doomed flight must leave its replacement
// indexed. The first subscriber's context is canceled up front, so its
// AfterFunc leave runs at once, concurrently with flightFor (-race).
func TestDoomedFlightNotJoined(t *testing.T) {
	srv, err := New(Config{Workload: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const id = "00000000000000aa"
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	doomed, ref, leader := srv.flightFor(id, gone)
	defer ref.leave()
	if !leader {
		t.Fatal("first subscriber is not the leader")
	}
	<-doomed.ctx.Done()

	fresh, ref2, leader := srv.flightFor(id, context.Background())
	defer ref2.leave()
	if !leader || fresh == doomed {
		t.Fatal("a request joined a flight every subscriber had left")
	}
	srv.flightDone(doomed, nil, nil, context.Canceled)
	srv.fmu.Lock()
	indexed := srv.flights[id]
	srv.fmu.Unlock()
	if indexed != fresh {
		t.Fatal("retiring the doomed flight removed its replacement")
	}
	srv.flightDone(fresh, nil, nil, context.Canceled)
}

// The decision LRU must stay consistent when many flights complete and
// evict concurrently (run under -race). Store/evict/lookup from many
// goroutines, including duplicate ids racing like coalesced
// completions do, then check the map and list agree and capacity holds.
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
				srv.store(id, []byte(id), nil)
				srv.cached(id)
				srv.traceFor(id)
			}
		}(g)
	}
	wg.Wait()
	srv.cmu.Lock()
	defer srv.cmu.Unlock()
	if srv.lru.Len() != len(srv.byID) {
		t.Errorf("lru len %d != index len %d", srv.lru.Len(), len(srv.byID))
	}
	if srv.lru.Len() > 8 {
		t.Errorf("lru len %d exceeds capacity 8", srv.lru.Len())
	}
	for el := srv.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if srv.byID[e.id] != el {
			t.Errorf("index entry for %s does not point at its element", e.id)
		}
	}
}

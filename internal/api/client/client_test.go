package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// deadTarget returns the URL of a server that has already shut down, so
// every dial to it fails at transport level.
func deadTarget(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return srv.URL
}

// A negative Retries still makes one attempt: the answer of a live
// target comes back, and a dead target is a transport error.
func TestNegativeRetriesMakesOneAttempt(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	c := &Client{Targets: []string{srv.URL, deadTarget(t)}, Retries: -1}
	body, meta, err := c.ScaleRaw(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"ok":true}` || meta.Status != http.StatusOK || meta.Retried != 0 {
		t.Errorf("ScaleRaw = %q, %+v", body, meta)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}

	dead := &Client{Targets: []string{deadTarget(t), srv.URL}, Retries: -1}
	if _, meta, err := dead.ScaleRaw(context.Background(), []byte(`{}`)); err == nil || meta.Retried != 0 {
		t.Errorf("dead first target with Retries -1: err = %v, meta = %+v; want a transport error after one attempt", err, meta)
	}
}

// A transport failure moves the request to the next target, and Meta
// says which target answered after how many retries.
func TestRotationAfterTransportFailure(t *testing.T) {
	var got atomic.Pointer[http.Header]
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Clone()
		got.Store(&h)
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("X-Decision-Id", "d1")
		fmt.Fprint(w, `{}`)
	}))
	defer live.Close()

	c := &Client{Targets: []string{deadTarget(t), live.URL}, Retries: 1, ClientID: "c7", DeadlineMs: 250}
	_, meta, err := c.ScaleRaw(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Retried != 1 || meta.Target != live.URL || meta.Cache != "hit" || meta.DecisionID != "d1" {
		t.Errorf("meta = %+v, want one retry answered by %s with X-Cache hit, X-Decision-Id d1", meta, live.URL)
	}
	if h := *got.Load(); h.Get("X-Client-Id") != "c7" || h.Get("X-Deadline-Ms") != "250" || h.Get("Content-Type") != "application/json" {
		t.Errorf("request headers = %v", h)
	}

	c.Retries = 0
	if _, meta, err := c.ScaleRaw(context.Background(), []byte(`{}`)); err == nil || meta.Retried != 0 {
		t.Errorf("no retries left: err = %v, meta = %+v; want a transport error", err, meta)
	}
}

// Non-2xx answers become *APIError: decoded from the v1 envelope when
// the body is one, the trimmed body text under code http_error
// otherwise. Retry-After reaches Meta.
func TestAPIErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
		body       string
		want       APIError
		wantRA     int
	}{
		{"envelope", http.StatusNotFound, "",
			`{"schema":"prescaler/v1","code":"unknown_benchmark","message":"no benchmark FOO"}`,
			APIError{Status: 404, Code: "unknown_benchmark", Message: "no benchmark FOO"}, 0},
		{"shed", http.StatusTooManyRequests, "3",
			`{"schema":"prescaler/v1","code":"overloaded","message":"queue full","retry_after_seconds":3}`,
			APIError{Status: 429, Code: "overloaded", Message: "queue full", RetryAfterSeconds: 3}, 3},
		{"plain-body", http.StatusBadGateway, "",
			"upstream went away\n",
			APIError{Status: 502, Code: "http_error", Message: "upstream went away"}, 0},
		{"bad-retry-after", http.StatusServiceUnavailable, "soon",
			`not json`,
			APIError{Status: 503, Code: "http_error", Message: "not json"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			c := &Client{Targets: []string{srv.URL}}

			_, _, meta, err := c.Scale(context.Background(), nil)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("Scale error = %v, want *APIError", err)
			}
			if *apiErr != tc.want {
				t.Errorf("APIError = %+v, want %+v", *apiErr, tc.want)
			}
			if meta.Status != tc.status || meta.RetryAfter != tc.wantRA {
				t.Errorf("meta status %d retry-after %d, want %d and %d", meta.Status, meta.RetryAfter, tc.status, tc.wantRA)
			}
		})
	}
}

// SSE frames split across flushed writes, in the middle of a field
// name and before the blank line that ends a frame, arrive whole.
func TestEventsSplitFrames(t *testing.T) {
	chunks := []string{
		"event: tri", "al\ndata: {\"tri", "al\":1}\n", "\n",
		"event: trial\ndata: {\"trial\":2}\n\nevent: do", "ne\ndata: {}\n", "\n",
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/decisions/d1/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		for _, c := range chunks {
			fmt.Fprint(w, c)
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()

	type event struct{ name, data string }
	var got []event
	c := &Client{Targets: []string{srv.URL}}
	opened := func() { got = append(got, event{"opened", ""}) }
	err := c.Events(context.Background(), "d1", opened, func(name string, data []byte) error {
		got = append(got, event{name, string(data)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []event{{"opened", ""}, {"trial", `{"trial":1}`}, {"trial", `{"trial":2}`}, {"done", `{}`}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events = %q, want %q", got, want)
	}
}

// FuzzReadEvents feeds the SSE frame reader arbitrary bytes, which must
// never panic, and a frame in the format serveEvents writes (an event
// line, a data line and a blank line, with LF or CRLF line endings)
// followed by a terminal frame, which must come back as exactly those
// two events.
func FuzzReadEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, name, data string, crlf bool) {
		stop := errors.New("stop")
		calls := 0
		err := readEvents(bytes.NewReader(stream), func(string, []byte) error {
			calls++
			return stop
		})
		if calls > 1 || (calls == 1) != (err == stop) {
			t.Fatalf("fn called %d times, then readEvents returned %v", calls, err)
		}

		if strings.ContainsAny(name+data, "\r\n") {
			return
		}
		eol := "\n"
		if crlf {
			eol = "\r\n"
		}
		frames := fmt.Sprintf("event: %s%sdata: %s%s%sevent: done%sdata: {}%s%s", name, eol, data, eol, eol, eol, eol, eol)
		type event struct{ name, data string }
		var got []event
		if err := readEvents(strings.NewReader(frames), func(name string, data []byte) error {
			got = append(got, event{name, string(data)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []event{{name, data}, {"done", "{}"}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("events = %q, want %q", got, want)
		}
	})
}

// A frame the stream cuts off before its blank line is dropped, as the
// SSE spec asks, and CRLF line endings read like LF.
func TestReadEventsFraming(t *testing.T) {
	for _, c := range []struct{ stream, want string }{
		{"event: trial\ndata: 1\n\nevent: done\ndata: {}\n", "trial=1;"},
		{"event: trial\r\ndata: 1\r\n\r\nevent: done\r\ndata: {}\r\n\r\n", "trial=1;done={};"},
		{"data: x\n\n: comment\n\nevent: e\n\n", "=x;e=;"},
	} {
		var got strings.Builder
		if err := readEvents(strings.NewReader(c.stream), func(name string, data []byte) error {
			fmt.Fprintf(&got, "%s=%s;", name, data)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("readEvents(%q) = %q, want %q", c.stream, got.String(), c.want)
		}
	}
}

package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/wltest"
)

// newDaemon serves an in-process decision service over the synthetic
// test workload and returns a client aimed at it.
func newDaemon(t *testing.T) (*client.Client, string) {
	t.Helper()
	srv, err := service.New(service.Config{Workload: func(name string) *prog.Workload {
		if name == "veccombine" {
			return wltest.VecCombine(1 << 12)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &client.Client{Targets: []string{ts.URL}}, ts.URL
}

// wantStatus fails unless err is an *APIError with the given status.
func wantStatus(t *testing.T, what string, err error, status int) {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != status {
		t.Errorf("%s: err = %v, want an API error with status %d", what, err, status)
	}
}

// GetDecision re-fetches the byte-identical body Scale returned.
func TestGetDecision(t *testing.T) {
	c, _ := newDaemon(t)
	ctx := context.Background()
	d, body, meta, err := c.Scale(ctx, &api.ScaleRequest{Benchmark: "veccombine"})
	if err != nil {
		t.Fatal(err)
	}
	got, gotBody, err := c.GetDecision(ctx, meta.DecisionID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBody, body) || !reflect.DeepEqual(got, d) {
		t.Errorf("GetDecision differs from the Scale answer:\n%s\nvs\n%s", gotBody, body)
	}
	_, _, err = c.GetDecision(ctx, "ffffffffffffffff")
	wantStatus(t, "unknown decision", err, http.StatusNotFound)
}

// A session's whole life through the client: create, a drifted
// evaluate that re-scales, get, close — and its event stream, which
// ends with done once the session is closed.
func TestSessionLifecycle(t *testing.T) {
	c, _ := newDaemon(t)
	ctx := context.Background()
	_, bare, _, err := c.Scale(ctx, &api.ScaleRequest{Benchmark: "veccombine", InputSet: "random"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(ctx, &api.SessionRequest{Benchmark: "veccombine", InputSet: "random"})
	if err != nil {
		t.Fatal(err)
	}
	var want api.Decision
	if err := json.Unmarshal(bare, &want); err != nil {
		t.Fatal(err)
	}
	if sess.Generation != 1 || !reflect.DeepEqual(sess.Decision, &want) {
		t.Errorf("created session %+v, want generation 1 with the /v1/scale decision", sess)
	}

	first := make(chan struct{})
	type result struct {
		names []string
		err   error
	}
	streamed := make(chan result, 1)
	go func() {
		var names []string
		err := c.SessionEvents(ctx, sess.ID, func(event string, data []byte) error {
			if len(names) == 0 {
				close(first)
			}
			names = append(names, event)
			return nil
		})
		streamed <- result{names, err}
	}()
	select {
	case <-first:
	case r := <-streamed:
		t.Fatalf("session events ended before the first event: %v", r.err)
	}

	ev, err := c.Evaluate(ctx, sess.ID, &api.EvaluateRequest{InputSet: "image"})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Rescaled || ev.Generation != 2 || ev.RescaleReason != "drift" {
		t.Errorf("drifted evaluate: %+v", ev)
	}
	got, err := c.GetSession(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 2 || got.InputSet != "image" {
		t.Errorf("session after re-scale: generation %d input %q", got.Generation, got.InputSet)
	}
	if err := c.CloseSession(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	r := <-streamed
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := []string{"generation", "generation", "evaluate", "done"}; !reflect.DeepEqual(r.names, want) {
		t.Errorf("session events %v, want %v", r.names, want)
	}

	_, err = c.GetSession(ctx, sess.ID)
	wantStatus(t, "closed session", err, http.StatusNotFound)
	wantStatus(t, "second close", c.CloseSession(ctx, sess.ID), http.StatusNotFound)
}

// Canceling the context of an open event stream ends Events with the
// context's error.
func TestEventsCanceledMidStream(t *testing.T) {
	c, _ := newDaemon(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opened := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		// Nothing computes this id, so its stream stays open.
		errc <- c.Events(ctx, "00000000000000ee", func() { close(opened) },
			func(string, []byte) error { return nil })
	}()
	select {
	case <-opened:
	case err := <-errc:
		t.Fatalf("Events returned before cancel: %v", err)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("Events after cancel: err = %v, want context.Canceled", err)
	}
}

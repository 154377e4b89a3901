package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/obs"
)

// Replica warming: after a node computes a decision it pushes the
// encoded body to the fingerprint's other replicas (POST
// /v1/decisions/{id}/warm), so a failover request routed to a replica
// finds the decision already cached — failover without recompute. The
// push is asynchronous and best-effort: a lost warm costs one repeated
// search after a failover, never correctness.
//
// The receiver does not trust the sender's id blindly: it decodes the
// body's identifying fields (benchmark, system, TOQ, input set),
// recomputes the fingerprint through the same prepare path a scale
// request takes, and stores only on a match. Past that check the write
// is blind — by the determinism invariant a given fingerprint has
// exactly one valid body, so there is nothing else to reconcile.

// warmBodyLimit bounds a warm request body; decision bodies are a few
// KiB, so anything near the limit is garbage.
const warmBodyLimit = 8 << 20

// defaultWarmTimeout bounds one outbound warm push.
const defaultWarmTimeout = 5 * time.Second

// handleWarm is POST /v1/decisions/{id}/warm.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	m := s.obs.Metrics()
	m.Counter("service_requests", obs.L("endpoint", "warm")).Inc()
	id := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, warmBodyLimit+1))
	if err != nil || len(body) == 0 || len(body) > warmBodyLimit {
		m.Counter("service_warm", obs.L("result", "bad_request")).Inc()
		s.writeError(w, fmt.Errorf("%w: unreadable warm body", api.ErrBadRequest))
		return
	}
	var d struct {
		Benchmark string  `json:"benchmark"`
		System    string  `json:"system"`
		TOQ       float64 `json:"toq"`
		InputSet  string  `json:"input_set"`
	}
	if err := json.Unmarshal(body, &d); err != nil {
		m.Counter("service_warm", obs.L("result", "bad_request")).Inc()
		s.writeError(w, fmt.Errorf("%w: %v", api.ErrBadRequest, err))
		return
	}
	job, err := s.prepare(&api.ScaleRequest{
		Benchmark: d.Benchmark, System: d.System, TOQ: d.TOQ, InputSet: d.InputSet,
	})
	if err != nil {
		m.Counter("service_warm", obs.L("result", "bad_request")).Inc()
		s.writeError(w, err)
		return
	}
	if job.id != id {
		m.Counter("service_warm", obs.L("result", "mismatch")).Inc()
		s.writeError(w, fmt.Errorf("%w: warm body fingerprints to %s, not %s",
			api.ErrBadRequest, job.id, id))
		return
	}
	s.store(id, body)
	m.Counter("service_warm", obs.L("result", "stored")).Inc()
	w.WriteHeader(http.StatusNoContent)
}

// warmReplicas pushes a freshly computed decision to the fingerprint's
// other replicas. Runs on its own goroutine; failures are counted and
// logged, never surfaced to the client whose request triggered the
// compute. A push asks the replica's dial gate like a proxied request
// does, and reports back to it: warming a peer the gate refuses would
// just burn the timeout.
func (s *Server) warmReplicas(id string, body []byte) {
	m := s.obs.Metrics()
	owners := s.view.Ring().OwnerN(id, s.replication)
	for _, owner := range owners {
		if owner == s.self {
			continue
		}
		h := s.peers[owner]
		ok, trial := h.allow()
		if !ok {
			m.Counter("service_warm", obs.L("result", "skipped")).Inc()
			continue
		}
		m.Counter("service_warm", obs.L("result", "sent")).Inc()
		err := s.warmOne(owner, id, body)
		var answered *client.APIError
		if err == nil || errors.As(err, &answered) {
			h.report(dialAnswered, trial)
		} else {
			h.report(dialFailed, trial)
		}
		if err != nil {
			m.Counter("service_warm", obs.L("result", "send_error")).Inc()
			if s.logger != nil {
				s.logger.Warn("replica warm failed", "peer", owner, "decision_id", id, "err", err.Error())
			}
			continue
		}
		m.Counter("service_warm", obs.L("result", "ok")).Inc()
	}
	if s.testWarmed != nil {
		s.testWarmed(id)
	}
}

// warmOne issues one warm push through the typed client; the short
// per-push timeout lives in s.warmClient.
func (s *Server) warmOne(owner, id string, body []byte) error {
	cl := &client.Client{Targets: []string{owner}, HTTPClient: s.warmClient}
	return cl.Warm(context.Background(), id, body)
}

package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Cluster request headers. Forwarded marks a proxied request so
// ownership routing never loops (a forwarded request is always answered
// locally, even when the receiving node's ring disagrees about
// ownership — the bodies are byte-identical either way). ClientID keys
// the fair queue; DeadlineMs carries the client's latency budget for
// deadline-aware shedding; CacheOrigin reports the owner node's own
// X-Cache state on a proxied response; ClusterRoute tells the client
// which replica slot answered ("primary", "replica-<i>", or "fallback"
// when every replica was unreachable and the receiving node computed
// locally) so load tests can count failovers.
const (
	headerForwarded    = "X-Prescaler-Forwarded"
	headerClientID     = "X-Client-Id"
	headerDeadline     = "X-Deadline-Ms"
	headerCacheOrigin  = "X-Cache-Origin"
	headerClusterRoute = "X-Cluster-Route"
)

// proxyTimeout is the outer safety bound on one proxied attempt at the
// HTTP-client level. The effective bound is the much shorter
// per-attempt context timeout below; this only catches pathological
// response-body stalls past the headers.
const proxyTimeout = 2 * time.Minute

// proxyAttemptTimeout bounds one proxy attempt end to end. A dead peer
// fails at connect within milliseconds; this bound is for the worse
// case of a hung peer, and is short enough that walking the whole
// replica list and falling back to local compute still beats the old
// flat 2-minute wait by an order of magnitude.
const proxyAttemptTimeout = 15 * time.Second

// routeLabel names the replica slot that answered.
func routeLabel(i int) string {
	if i == 0 {
		return "primary"
	}
	return fmt.Sprintf("replica-%d", i)
}

// proxyScale forwards a scale request along the fingerprint's replica
// list — primary first — and relays the first answer. owners is the
// ring-ordered replica set; entries equal to self and entries whose
// dial gate refuses are skipped, and each attempt runs under a
// short per-attempt timeout, so a dead primary costs milliseconds
// before the next replica (which was warmed when the decision was
// computed) answers. It reports whether the response has been written:
// false means every replica was unreachable and the caller should fall
// back to computing locally — the fallback is correct, not merely
// available, because the body is a pure function of the fingerprint.
func (s *Server) proxyScale(w http.ResponseWriter, r *http.Request, req *api.ScaleRequest, id string, owners []string) bool {
	m := s.obs.Metrics()
	var body strings.Builder
	if err := api.Encode(&body, req); err != nil {
		// An unencodable request should be impossible (it just decoded),
		// but silently computing locally would hide the bug: count and log.
		m.Counter("service_proxy", obs.L("result", "encode_error")).Inc()
		if s.logger != nil {
			s.logger.Warn("proxy request encode failed, computing locally",
				"decision_id", id, "err", err.Error())
		}
		return false
	}
	for i, owner := range owners {
		if owner == s.self {
			continue
		}
		h := s.peers[owner]
		ok, trial := h.allow()
		if !ok {
			m.Counter("service_proxy", obs.L("result", "breaker_open")).Inc()
			continue
		}
		out, dial := s.proxyAttempt(w, r, body.String(), id, owner, i)
		h.report(dial, trial)
		switch out {
		case proxyOK:
			return true
		case proxyClientGone:
			// The client vanished mid-proxy; nothing left to answer.
			s.writeError(w, ctxCause(r.Context()))
			return true
		}
		// proxyFailed: try the next replica.
	}
	return false
}

// proxyAttempt outcome.
type proxyOutcome int

const (
	proxyOK proxyOutcome = iota
	proxyFailed
	proxyClientGone
)

// proxyAttempt issues one proxied scale request to one replica and, on
// success, relays its answer. It also returns what the attempt learned
// about the replica for its dial gate: any HTTP answer, a 5xx included,
// means the replica is alive; only a transport error or the attempt
// timeout counts as a failure; and our own client disconnecting says
// nothing about the replica.
func (s *Server) proxyAttempt(w http.ResponseWriter, r *http.Request, body, id, owner string, slot int) (proxyOutcome, dialResult) {
	m := s.obs.Metrics()
	ctx, cancel := context.WithTimeout(r.Context(), proxyAttemptTimeout)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+"/v1/scale", strings.NewReader(body))
	if err != nil {
		m.Counter("service_proxy", obs.L("result", "fallback")).Inc()
		return proxyFailed, dialAbandoned
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(headerForwarded, s.self)
	for _, h := range []string{"X-Request-Id", headerClientID, headerDeadline} {
		if v := r.Header.Get(h); v != "" {
			preq.Header.Set(h, v)
		}
	}
	resp, err := s.proxy.Do(preq)
	if err != nil {
		if r.Context().Err() != nil {
			return proxyClientGone, dialAbandoned
		}
		m.Counter("service_proxy", obs.L("result", "fallback")).Inc()
		if s.logger != nil {
			s.logger.Warn("proxy to replica failed",
				"owner", owner, "slot", slot, "decision_id", id, "err", err.Error())
		}
		return proxyFailed, dialFailed
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// A live replica's 5xx (say, an injected device loss) is still an
		// answer; fall back past it without holding it against the peer.
		io.Copy(io.Discard, resp.Body)
		m.Counter("service_proxy", obs.L("result", "fallback")).Inc()
		if s.logger != nil {
			s.logger.Warn("replica answered 5xx",
				"owner", owner, "slot", slot, "decision_id", id, "status", resp.StatusCode)
		}
		return proxyFailed, dialAnswered
	}
	// Local subscribers to the id read the relayed answer's end.
	defer s.relayed(id, owner, resp.StatusCode)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	if did := resp.Header.Get("X-Decision-Id"); did != "" {
		h.Set("X-Decision-Id", did)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		h.Set("Retry-After", ra)
	}
	if resp.StatusCode == http.StatusOK {
		// The body came from a replica: our cache state is "remote", the
		// replica's own state (hit / miss / coalesced) rides along so load
		// tests can still count cluster-wide search work, and the replica
		// slot that answered rides in X-Cluster-Route so they can count
		// failovers.
		if oc := resp.Header.Get("X-Cache"); oc != "" {
			h.Set(headerCacheOrigin, oc)
		}
		h.Set("X-Cache", "remote")
		h.Set(headerClusterRoute, routeLabel(slot))
		m.Counter("service_cache", obs.L("result", "remote")).Inc()
		m.Counter("service_proxy", obs.L("result", "ok")).Inc()
	} else {
		m.Counter("service_proxy", obs.L("result", "relay_error")).Inc()
	}
	if resp.StatusCode == http.StatusOK && wantMeta(r) {
		// The peer was asked for the bare body (the proxy URL carries no
		// query); wrap it here so the envelope reports this node's view —
		// cache "remote", the origin's state in cache_origin.
		relayed, err := io.ReadAll(io.LimitReader(resp.Body, warmBodyLimit))
		if err == nil {
			s.writeDecision(w, r, h.Get("X-Decision-Id"), h.Get("X-Cache"), relayed)
			return proxyOK, dialAnswered
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return proxyOK, dialAnswered
}

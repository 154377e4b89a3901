package service

import (
	"bytes"
	"encoding/json"
	"net/http"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/scaler"
)

// reqTelemetry bundles the telemetry side channels of one cache-miss
// search: the wall-clock trace served from GET /v1/decisions/{id}/trace
// and the progress events of the decision's log, served from
// GET /v1/decisions/{id}/events.
// All of it observes the search without influencing it — decision
// bodies stay byte-identical to the CLI's (pinned by
// TestTelemetryByteIdentity). A nil *reqTelemetry, which session
// searches pass, is fully inert; every method is nil-safe.
type reqTelemetry struct {
	id     string      // request id from the middleware, "" outside it
	wt     *obs.Tracer // wall clock
	log    *eventLog   // the decision record's event log
	req    *obs.Span
	search *obs.Span
	last   float64 // wall time the previous trial span ended at
}

// newReqTelemetry opens the request span of one cache-miss search that
// publishes its progress to log.
func newReqTelemetry(rid string, job *scaleJob, log *eventLog) *reqTelemetry {
	rt := &reqTelemetry{id: rid, wt: obs.NewWallTracer(), log: log}
	rt.req = rt.wt.Start("scale "+job.w.Name, "request",
		obs.A("request_id", rid), obs.A("decision_id", job.id))
	return rt
}

// now reads the wall-trace clock (0 for a nil receiver).
func (rt *reqTelemetry) now() float64 {
	if rt == nil {
		return 0
	}
	return rt.wt.Now()
}

// queueWaited records the span spent waiting for a worker slot;
// start is a wall-tracer timestamp taken before the wait.
func (rt *reqTelemetry) queueWaited(start float64) {
	if rt == nil {
		return
	}
	rt.wt.Emit("queue-wait", "request", obs.WallRowRequest, start, rt.wt.Now()-start)
}

// beginSearch opens the search span and arms the trial-span clock.
func (rt *reqTelemetry) beginSearch() {
	if rt == nil {
		return
	}
	rt.search = rt.wt.Start("search", "request")
	rt.last = rt.wt.Now()
}

// onProgress is the scaler's Progress hook: each milestone becomes an
// event in the decision's log, and each executed trial becomes a
// wall-clock span covering the time since the previous milestone (the
// hook runs on the search's sequential decision loop, so the spans tile
// the search without gaps).
func (rt *reqTelemetry) onProgress(ev scaler.ProgressEvent) {
	now := rt.wt.Now()
	switch ev.Kind {
	case "profile", "trial":
		name := ev.Label
		if name == "" {
			name = ev.Kind
		}
		rt.wt.Emit(name, ev.Kind, obs.WallRowTrials, rt.last, now-rt.last,
			obs.A("trial", ev.Trial),
			obs.A("quality", ev.Quality),
			obs.A("verdict", ev.Verdict),
			obs.A("memoized", ev.Memoized),
		)
	}
	rt.last = now
	if data, err := json.Marshal(ev); err == nil {
		rt.log.publish(sseEvent{name: ev.Kind, data: data})
	}
}

// closeTrace ends the open spans and returns the wall tracer for the
// decision record, which renders it only when the trace is asked for.
// Returns nil for a nil receiver.
func (rt *reqTelemetry) closeTrace() *obs.Tracer {
	if rt == nil {
		return nil
	}
	rt.wt.End(rt.search)
	rt.wt.End(rt.req)
	return rt.wt
}

// handleMetrics is GET /metrics: the shared obs registry in Prometheus
// text exposition format. /v1/metricsz keeps serving the same registry
// as CSV for the pre-existing tooling.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.Metrics().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTrace is GET /v1/decisions/{id}/trace: the wall-clock Chrome
// trace recorded while the decision was computed. Decisions stored
// without one (replayed, warmed by a peer, or computed for a session)
// answer 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "trace")).Inc()
	id := r.PathValue("id")
	tr, ok := s.traceFor(id)
	var trace bytes.Buffer
	if !ok || tr.WriteChromeTrace(&trace) != nil {
		s.writeError(w, &notFoundError{what: "trace", name: id})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Decision-Id", id)
	w.Write(trace.Bytes())
}

// handleEvents is GET /v1/decisions/{id}/events: live decision progress
// as server-sent events. The stream replays the decision's log from its
// first event, so subscribing after (or during) the search still yields
// every trial event, then the terminal "done"/"error" event closes the
// response. Subscribing before the POST is the supported flow: compute
// the id with POST /v1/scale?fingerprint=1, subscribe, then POST for
// real.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "events")).Inc()
	rec := s.subscribe(r.PathValue("id"))
	defer s.unsubscribe(rec)
	serveEvents(w, r, rec.log)
}

// latencySummary condenses a latency histogram for /v1/healthz and the
// drain artifact: observation count plus p50/p99/max in milliseconds.
func latencySummary(h *obs.Histogram) map[string]any {
	_, cum := h.Buckets()
	count := 0
	if len(cum) > 0 {
		count = cum[len(cum)-1]
	}
	return map[string]any{
		"count":  count,
		"p50_ms": h.Quantile(0.5) * 1e3,
		"p99_ms": h.Quantile(0.99) * 1e3,
		"max_ms": h.Quantile(1) * 1e3,
	}
}

// isFingerprintOnly reports whether POST /v1/scale was invoked with
// ?fingerprint=1: validate and fingerprint the request but do not run
// the search. SSE clients use it to learn the decision id to subscribe
// to before submitting the real request. A query parameter (not a body
// field) keeps the strict v1 request schema untouched.
func isFingerprintOnly(r *http.Request) bool {
	v := r.URL.Query().Get("fingerprint")
	return v == "1" || v == "true"
}

// fingerprintResponse answers a fingerprint-only scale request.
func (s *Server) fingerprintResponse(w http.ResponseWriter, id string) {
	_, hit := s.cached(id)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Decision-Id", id)
	api.Encode(w, map[string]any{
		"schema":      api.Schema,
		"decision_id": id,
		"cached":      hit,
	})
}

package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// ridKey is the context key the request-id middleware stores under.
type ridKey struct{}

// RequestIDFrom returns the request id threaded through ctx by the
// service middleware ("" when the request did not pass through it). The
// id is what X-Request-Id echoes, what every structured log line
// carries, and what runScaled notes in the decision journal — the one
// string that joins a log line, a journal note, and a client report to
// the same request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// ridCounter disambiguates ids if the random source ever fails.
var ridCounter atomic.Uint64

// newRequestID returns a fresh 16-hex-char request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%016x", ridCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied X-Request-Id if it is
// printable ASCII of sane length, so callers can stitch their own
// traces; anything else is replaced.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}

// statusWriter records the status code and byte count of a response,
// and forwards Flush so SSE streaming keeps working through the
// middleware stack.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// telemetry wraps the API mux with the service middleware stack,
// outermost first:
//
//  1. request-id: generate (or accept) an id, store it in the request
//     context, echo it as X-Request-Id;
//  2. panic recovery: log the stack under the request id and answer
//     with the deterministic 500 "panic" error envelope instead of
//     killing the connection (searches are already panic-isolated by
//     fault.Guard — this net catches everything else in the HTTP
//     layer);
//  3. access log + latency: one structured line per request via
//     log/slog, and a wall-clock observation into the
//     http_request_seconds histogram that feeds /metrics and the
//     healthz quantiles.
//
// None of it touches response bodies: decision bodies stay
// byte-identical to the CLI's encoding (TestTelemetryByteIdentity pins
// this).
func (s *Server) telemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, id))

		defer func() {
			dur := time.Since(start)
			s.latency.Observe(dur.Seconds())
			if p := recover(); p != nil {
				if s.logger != nil {
					s.logger.Error("panic serving request",
						"request_id", id,
						"method", r.Method,
						"path", r.URL.Path,
						"panic", fmt.Sprint(p),
						"stack", string(debug.Stack()),
					)
				}
				s.obs.Metrics().Counter("service_panics").Inc()
				if !sw.wrote {
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					api.Encode(sw, &api.Error{
						Schema: api.Schema, Code: "panic",
						Message: fmt.Sprintf("internal panic serving %s %s", r.Method, r.URL.Path),
					})
				}
			}
			if s.logger != nil {
				attrs := []any{
					"request_id", id,
					"method", r.Method,
					"path", r.URL.Path,
					"status", sw.status,
					"bytes", sw.bytes,
					"dur_ms", float64(dur.Microseconds()) / 1e3,
					"remote", r.RemoteAddr,
				}
				if did := sw.Header().Get("X-Decision-Id"); did != "" {
					attrs = append(attrs, "decision_id", did)
				}
				if c := sw.Header().Get("X-Cache"); c != "" {
					attrs = append(attrs, "cache", c)
				}
				s.logger.Log(r.Context(), levelFor(sw.status), "request", attrs...)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// levelFor maps a response status onto a log level: 5xx are errors,
// 4xx warnings, everything else info.
func levelFor(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}

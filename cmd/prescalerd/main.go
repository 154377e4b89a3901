// Command prescalerd serves PreScaler precision-scaling decisions over
// a versioned HTTP/JSON API (see internal/service and internal/api).
// It keeps the System Inspector databases resident, runs searches on a
// bounded worker pool, and memoizes completed decisions, so repeat
// traffic costs a cache lookup instead of a full search.
//
// Usage:
//
//	prescalerd -addr 127.0.0.1:8080 -workers 4
//	curl -s -X POST localhost:8080/v1/scale -d '{"benchmark":"GEMM"}'
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/metrics
//	curl -N localhost:8080/v1/decisions/<id>/events
//
// Sessions bind a long-lived decision to a workload and re-scale it
// warm when the input distribution drifts or the achieved quality
// falls below TOQ (DESIGN.md §19). Sessions expire after an idle
// -session-ttl, are capped at -max-sessions (LRU), and persist their
// generations to the -persist-dir journal:
//
//	curl -s -X POST localhost:8080/v1/sessions \
//	    -d '{"benchmark":"ATAX","toq":0.9,"input_set":"random"}'
//	curl -s -X POST localhost:8080/v1/sessions/<id>/evaluate \
//	    -d '{"input_set":"image"}'
//
// A fleet shards its decision cache by consistent-hashing the decision
// fingerprint across nodes (-peers): non-owner nodes proxy /v1/scale to
// the owner and fall back to local compute when it is down, so any node
// answers any request with byte-identical bodies. Admission control
// (-max-queue plus deadline-aware shedding on X-Deadline-Ms) answers
// 429 + Retry-After instead of queueing unboundedly, and N identical
// concurrent requests coalesce onto a single search:
//
//	prescalerd -addr 127.0.0.1:8080 -peers 127.0.0.1:8081 &
//	prescalerd -addr 127.0.0.1:8081 -peers 127.0.0.1:8080 &
//
// The fleet is resilient to node death: every node keeps one health
// record per peer. Active probes (-probe-interval) decide whether the
// peer is up, and dead peers leave the effective ring; the record's
// dial gate stops proxy attempts to a down node after a few fast
// transport failures (any HTTP answer, a 5xx included, counts as
// alive), and with -replication N each decision is
// owned by N ring successors — the primary computes and pushes the body
// to the other replicas, so when it dies, requests fail over to a
// replica that already has the answer cached. -persist-dir adds a
// crash-safe decision journal: a node killed outright replays its
// decisions at startup and serves its hot set as cache hits.
//
// Every request gets a structured log line (slog; -log-format/-log-level)
// carrying an X-Request-Id that is also echoed to the client.
// -debug-addr opens a second listener serving net/http/pprof — never
// the main port, so profiling endpoints cannot leak into production
// exposure by default.
//
// SIGINT/SIGTERM drains gracefully: the listener closes immediately,
// in-flight searches get -drain to finish, and whatever remains is
// canceled at its next trial boundary. With -health-artifact the final
// health summary (the /v1/healthz document, including latency
// quantiles) is written to the given file after the drain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent searches; 0 selects GOMAXPROCS")
	cacheSize := flag.Int("cache-size", 0, "decision LRU capacity in entries; 0 selects 128")
	maxQueue := flag.Int("max-queue", 0, "admission queue capacity; requests beyond it are shed with 429; 0 selects 4x workers")
	peers := flag.String("peers", "", "comma-separated peer addresses forming a cluster (this node is added automatically); empty runs standalone")
	self := flag.String("self", "", "this node's advertised address in the cluster; defaults to -addr")
	replication := flag.Int("replication", 2, "ring owners per decision fingerprint in a cluster: the primary computes and warms the others, requests fail over through the list; 1 disables replication (pure sharding)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer health-probe interval; a dead peer leaves the effective ring within about one interval")
	persistDir := flag.String("persist-dir", "", "directory for the crash-safe decision journal; decisions and open sessions are replayed on restart; empty disables persistence")
	sessionTTL := flag.Duration("session-ttl", 0, "idle expiry for sessions (POST /v1/sessions); 0 selects 1h")
	maxSessions := flag.Int("max-sessions", 0, "session store capacity; creating beyond it evicts the least recently used session; 0 selects 64")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight searches before they are canceled")
	logFormat := flag.String("log-format", "text", "request log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	debugAddr := flag.String("debug-addr", "", "optional second listener serving net/http/pprof (e.g. 127.0.0.1:6060); empty disables")
	healthArtifact := flag.String("health-artifact", "", "file to write the final health summary JSON to on shutdown; empty disables")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := service.Config{
		Workers:     *workers,
		CacheSize:   *cacheSize,
		MaxQueue:    *maxQueue,
		Logger:      logger,
		PersistDir:  *persistDir,
		SessionTTL:  *sessionTTL,
		MaxSessions: *maxSessions,
	}
	if *peers != "" {
		cfg.Self = *self
		if cfg.Self == "" {
			cfg.Self = *addr
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" && p != cfg.Self {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
		cfg.Replication = *replication
		cfg.ProbeInterval = *probeInterval
	}
	srv, err := service.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	// baseCtx parents every request context. It stays alive through the
	// graceful drain so in-flight searches can finish, and is canceled
	// only when the drain budget runs out — at which point every search
	// aborts at its next trial boundary.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Addr:        *addr,
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr, logger)
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if len(cfg.Peers) > 0 {
		logger.Info("serving v1 API", "addr", *addr, "workers", srv.Workers(),
			"cluster_self", cfg.Self, "cluster_peers", strings.Join(cfg.Peers, ","))
	} else {
		logger.Info("serving v1 API", "addr", *addr, "workers", srv.Workers())
	}

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-sigCtx.Done():
	}

	logger.Info("shutting down", "drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// Drain budget exhausted: cancel the base context so remaining
		// searches abort at their next trial boundary, then close.
		logger.Warn("drain expired, canceling in-flight searches", "err", err.Error())
		cancelBase()
		if err := hs.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("%v", err)
		}
	}
	if *healthArtifact != "" {
		if err := writeHealthArtifact(*healthArtifact, srv); err != nil {
			fatalf("health artifact: %v", err)
		}
		logger.Info("wrote health artifact", "path", *healthArtifact)
	}
	// Stop the peer probes and drain the decision journal (final compaction
	// into the snapshot) after the last request has been answered.
	if err := srv.Close(); err != nil {
		fatalf("close: %v", err)
	}
	logger.Info("bye")
}

// newLogger builds the process logger from the -log-format/-log-level
// flags. Logs go to stderr; stdout stays free for tooling.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// serveDebug runs the pprof listener. It is deliberately a separate
// server on a separate address: the main API mux never mounts pprof, so
// exposing the service port never exposes the profiler.
func serveDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("serving pprof", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener failed", "addr", addr, "err", err.Error())
	}
}

// writeHealthArtifact renders the final health summary — the same
// document /v1/healthz serves, latency quantiles included — so a run's
// service-side latency profile survives the process.
func writeHealthArtifact(path string, srv *service.Server) error {
	b, err := json.MarshalIndent(srv.Health(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prescalerd: "+format+"\n", args...)
	os.Exit(1)
}

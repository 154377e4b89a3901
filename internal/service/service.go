// Package service implements the PreScaler decision service: the HTTP
// layer of cmd/prescalerd. It turns the one-shot offline pipeline
// (System Inspector → Application Profiler → Decision Maker) into a
// resident daemon that amortizes inspection across requests, memoizes
// completed decisions, and cancels in-flight searches when the client
// goes away.
//
// Endpoints (all JSON, schema "prescaler/v1", see internal/api):
//
//	POST /v1/scale                  submit a workload, get a Decision
//	POST /v1/scale?fingerprint=1    validate + fingerprint, don't search
//	GET  /v1/decisions/{id}         re-fetch a completed Decision
//	GET  /v1/decisions/{id}/trace   wall-clock Chrome trace of the search
//	GET  /v1/decisions/{id}/events  live decision progress over SSE
//	POST /v1/sessions               create a session (cold search, gen 1)
//	GET  /v1/sessions/{id}          session document + current decision
//	POST /v1/sessions/{id}/evaluate execute a batch; report drift; may re-scale
//	DELETE /v1/sessions/{id}        close a session
//	GET  /v1/sessions/{id}/events   session lifecycle over SSE
//	GET  /v1/systems                system presets + inspector DB inventory
//	GET  /v1/healthz                liveness, pool occupancy, latency quantiles
//	GET  /v1/metricsz               the obs metrics registry as CSV
//	GET  /metrics                   the same registry, Prometheus exposition
//
// The route table (routes.go) also derives the negative surface: wrong
// verbs answer 405 + Allow and unknown paths 404, both in the standard
// error envelope, and ?meta=1 on the decision-returning routes wraps
// the body in an envelope carrying the response-header metadata.
// Sessions (session.go) are long-lived decisions that re-scale
// themselves: each evaluate folds the batch into per-object running
// statistics, and a normalized shift past the session's drift
// threshold — or an achieved quality below TOQ — triggers a
// warm-started re-search seeded from the previous generation's config
// and error attribution (see DESIGN.md §19).
//
// Telemetry is a strict side channel. Decision bodies are a pure
// function of (inspector DB, workload, options) — request ids travel in
// the X-Request-Id header and structured logs, cache status in X-Cache,
// progress over SSE, latency in /metrics — so the bodies stay
// byte-identical to cmd/prescaler -json output.
//
// Requests run on a bounded worker pool behind an admission
// controller: a bounded per-client fair queue (round-robin dispatch, so
// one flooding client cannot starve the rest), deadline-aware load
// shedding (429 + Retry-After when the queue is full or the declared
// X-Deadline-Ms cannot be met given the observed p99 search time), and
// single-flight coalescing — N concurrent requests that fingerprint to
// the same decision run exactly one search and fan its body out to all
// subscribers (X-Cache: coalesced). Each search runs on a clone of a
// per-system base Framework (the same isolation pattern as the
// parallel experiment runner) and shares one EvalCache per
// (system, benchmark) pair, so repeat traffic for the same pair reuses
// op results across requests. Completed decisions land in an LRU cache
// keyed by an FNV-64a fingerprint of everything that determines the
// result — inspector database, workload identity, and the
// decision-affecting options — so a repeated request is O(lookup) and
// returns the byte-identical body (the fingerprint deliberately
// excludes Workers and the eval cache, which change only wall-clock
// time, never the decision).
//
// In a fleet (Config.Self + Config.Peers), the decision cache is
// sharded across nodes by a consistent-hash ring over the same
// fingerprint (internal/cluster): a non-owner node proxies /v1/scale
// to the owner (X-Cache: remote) and computes locally only when the
// owner is unreachable. Because bodies are pure functions of the
// fingerprint, any node answers any request with byte-identical bytes —
// sharding changes where work happens and caches live, never what the
// client sees.
package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/ocl"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// Config parameterizes a Server. The zero value is a working default.
type Config struct {
	// Workers bounds the number of concurrent searches; requests beyond
	// it queue until a slot frees (or their client disconnects). 0
	// selects GOMAXPROCS via scaler.Options.Normalize.
	Workers int
	// MaxQueue bounds the admission queue: requests beyond Workers wait
	// here, and requests beyond MaxQueue are shed immediately with 429 +
	// Retry-After. 0 selects 4x the resolved worker count.
	MaxQueue int
	// Self is this node's advertised address ("host:port") in a
	// cluster; Peers is the rest of the membership. When Peers is
	// non-empty, the decision cache is sharded across the fleet by a
	// consistent-hash ring over the fingerprint: non-owner nodes proxy
	// /v1/scale to the owner and fall back to local compute when it is
	// unreachable. Empty Peers disables clustering.
	Self  string
	Peers []string
	// Replication is the number of ring owners per fingerprint. 1 (the
	// default) is pure sharding; above 1, the primary owner computes and
	// asynchronously warms the other replicas' caches, and requests
	// fail over through the replica list when the primary is down.
	// Ignored outside a cluster.
	Replication int
	// ProbeInterval paces the active peer health probes in a cluster; 0
	// selects 2s. Probe verdicts feed the liveness overlay of the
	// membership view (dead peers leave the effective ring within
	// roughly one interval) and each peer's dial gate. A long interval
	// keeps membership static.
	ProbeInterval time.Duration
	// PersistDir, when non-empty, enables the crash-safe decision
	// journal: completed decisions are appended (checksummed, fsync'd
	// off the hot path) under this directory and replayed into the LRU
	// at startup, so a restarted node serves its hot set as cache hits
	// instead of re-searching.
	PersistDir string
	// CacheSize is the decision LRU capacity in entries; 0 selects 128.
	CacheSize int
	// Obs receives the service metrics (request counters, cache
	// hit/miss, pool occupancy) and is what /v1/metricsz renders. Nil
	// allocates a private observer so the endpoint always works.
	Obs *obs.Observer
	// Workload resolves a benchmark name; nil selects polybench.ByName.
	// Tests inject synthetic workloads here. The server resolves each
	// workload once and shares it across requests and sessions.
	Workload func(name string) *prog.Workload
	// Logger receives structured request logs (one line per request) and
	// panic reports. Nil disables logging; everything else still works.
	Logger *slog.Logger
	// SessionTTL is the idle expiry for sessions (POST /v1/sessions):
	// a session untouched for this long is reclaimed lazily. Individual
	// sessions may shorten it via ttl_seconds. 0 selects 1h.
	SessionTTL time.Duration
	// MaxSessions bounds the session store; creating past it evicts the
	// least recently used session. 0 selects 64.
	MaxSessions int
}

// defaultCacheSize is the decision LRU capacity when Config leaves it 0.
const defaultCacheSize = 128

// Server is the decision service. Create with New, serve via Handler.
type Server struct {
	obs      *obs.Observer
	handler  http.Handler // route table wrapped in the telemetry middleware
	admit    *fairQueue
	workload func(name string) *prog.Workload // memoized (see onceWorkloads)

	logger        *slog.Logger
	start         time.Time
	latency       *obs.Histogram // http_request_seconds, fed by middleware
	queueWait     *obs.Histogram // service_queue_wait_seconds, slot waits
	searchSeconds *obs.Histogram // service_search_seconds, drives deadline shedding

	view        *cluster.View          // nil outside a cluster
	self        string                 // this node's ring identity
	replication int                    // ring owners per fingerprint
	proxy       *http.Client           // issues proxied scale requests
	warmClient  *http.Client           // pushes decisions to replicas
	peers       map[string]*peerHealth // every seed member but self
	stopProbes  func()                 // joins the probe loops; nil outside a cluster
	epochGauge  *obs.Gauge             // service_cluster_epoch
	journal     *journal               // nil without PersistDir

	mu     sync.Mutex
	bases  map[string]*core.Framework // per system preset, inspected once
	caches map[string]*prog.EvalCache // per (system, benchmark) pair

	// The decision table (decisions.go): one record per decision id.
	dmu       sync.Mutex
	decisions map[string]*decision
	lru       *list.List // stored records, front = most recent
	maxSize   int
	hits      atomic.Int64
	misses    atomic.Int64

	// Session store (see session.go). Lock order is smu before a
	// session's own mu, never the reverse.
	smu         sync.Mutex
	sessions    map[string]*session
	sessSeq     uint64
	sessTTL     time.Duration
	maxSessions int
	sessGauge   *obs.Gauge
	now         func() time.Time // injectable clock for session-TTL tests

	// testSearchStarted, when set, is called after a search's slot is
	// acquired and before the search runs — a deterministic point for
	// tests to cancel the request context.
	testSearchStarted func(ctx context.Context, bench string)
	// testWarmed, when set, is called after warmReplicas finishes
	// pushing a decision — a deterministic point for tests to assert
	// replica cache state.
	testWarmed func(id string)
}

// New builds a Server. The worker pool and caches start empty; system
// inspection happens lazily on first use of each preset.
func New(cfg Config) (*Server, error) {
	opts, err := scaler.Options{Workers: cfg.Workers}.Normalize()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	if size < 0 {
		return nil, fmt.Errorf("service: negative CacheSize %d", cfg.CacheSize)
	}
	wl := cfg.Workload
	if wl == nil {
		wl = polybench.ByName
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = 4 * opts.Workers
	}
	if maxQueue < 0 {
		return nil, fmt.Errorf("service: negative MaxQueue %d", cfg.MaxQueue)
	}
	sessTTL := cfg.SessionTTL
	if sessTTL == 0 {
		sessTTL = defaultSessionTTL
	}
	if sessTTL < 0 {
		return nil, fmt.Errorf("service: negative SessionTTL %v", cfg.SessionTTL)
	}
	maxSessions := cfg.MaxSessions
	if maxSessions == 0 {
		maxSessions = defaultMaxSessions
	}
	if maxSessions < 0 {
		return nil, fmt.Errorf("service: negative MaxSessions %d", cfg.MaxSessions)
	}
	s := &Server{
		obs:           o,
		admit:         newFairQueue(opts.Workers, maxQueue, o.Metrics()),
		workload:      onceWorkloads(wl),
		logger:        cfg.Logger,
		start:         time.Now(),
		latency:       o.Metrics().Histogram("http_request_seconds", obs.DefaultLatencyBuckets),
		queueWait:     o.Metrics().Histogram("service_queue_wait_seconds", obs.DefaultLatencyBuckets),
		searchSeconds: o.Metrics().Histogram("service_search_seconds", obs.DefaultLatencyBuckets),
		bases:         map[string]*core.Framework{},
		caches:        map[string]*prog.EvalCache{},
		decisions:     map[string]*decision{},
		lru:           list.New(),
		maxSize:       size,
		sessions:      map[string]*session{},
		sessTTL:       sessTTL,
		maxSessions:   maxSessions,
		sessGauge:     o.Metrics().Gauge("service_sessions"),
		now:           time.Now,
	}
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, fmt.Errorf("service: Peers set without Self")
		}
		view, err := cluster.NewView(append([]string{cfg.Self}, cfg.Peers...), 0)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.view, s.self = view, cfg.Self
		s.replication = cfg.Replication
		if s.replication == 0 {
			s.replication = 1
		}
		if s.replication < 0 {
			return nil, fmt.Errorf("service: negative Replication %d", cfg.Replication)
		}
		s.proxy = &http.Client{Timeout: proxyTimeout}
		s.warmClient = &http.Client{Timeout: defaultWarmTimeout}
		s.epochGauge = o.Metrics().Gauge("service_cluster_epoch")
		s.epochGauge.Set(float64(view.Epoch()))
		s.peers = map[string]*peerHealth{}
		for _, peer := range cfg.Peers {
			if peer != cfg.Self {
				s.peers[peer] = newPeerHealth(peer, o.Metrics(), s.onPeerChange)
			}
		}
		interval := cfg.ProbeInterval
		if interval <= 0 {
			interval = defaultProbeInterval
		}
		s.stopProbes = startProbes(s.peers, interval, httpProbe(interval))
	}
	if cfg.PersistDir != "" {
		j, records, err := openJournal(cfg.PersistDir, defaultMaxWAL,
			s.persistSnapshot, o.Metrics(), cfg.Logger)
		if err != nil {
			if s.stopProbes != nil {
				s.stopProbes()
			}
			return nil, err
		}
		// Replay before the journal is wired into store(), so replayed
		// entries are not re-journaled. Decisions replay oldest first: if
		// the cache is smaller than the journal, the newest survive.
		// Session snapshots (ids prefixed "sess") restore last-write-wins
		// — each re-scale journals a full snapshot under the same id.
		sessRecs := map[string]persistRecord{}
		var sessOrder []string
		for _, rec := range records {
			if strings.HasPrefix(rec.id, sessionIDPrefix) {
				if _, ok := sessRecs[rec.id]; !ok {
					sessOrder = append(sessOrder, rec.id)
				}
				sessRecs[rec.id] = rec
				continue
			}
			s.store(rec.id, rec.body)
		}
		for _, id := range sessOrder {
			s.restoreSession(sessRecs[id])
		}
		s.journal = j
	}
	s.handler = s.telemetry(s.buildMux())
	return s, nil
}

// Handler returns the HTTP handler serving the v1 API, wrapped in the
// request-id / access-log / panic-recovery middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Close releases the server's background machinery: the peer probes
// stop, and the decision journal drains its queue and compacts a final
// snapshot. Call after the HTTP server has shut down.
func (s *Server) Close() error {
	if s.stopProbes != nil {
		s.stopProbes()
	}
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// onPeerChange hears a peer's verdict flip (its dial gate has already
// moved with it) and folds it into the membership view, rebuilding the
// effective ring and advancing the epoch.
func (s *Server) onPeerChange(peer string, up bool) {
	if s.view.SetAlive(peer, up) {
		s.epochGauge.Set(float64(s.view.Epoch()))
	}
	if s.logger != nil {
		s.logger.Warn("peer liveness changed", "peer", peer, "up", up,
			"epoch", s.view.Epoch(), "live", strings.Join(s.view.Live(), ","))
	}
}

// routeFor labels a locally answered response with this node's replica
// slot for the fingerprint ("primary", "replica-<i>", or "fallback" for
// a node outside the replica set serving a body it computed during an
// earlier fallback), so load generators can count failover traffic.
func (s *Server) routeFor(id string) string {
	for i, o := range s.view.Ring().OwnerN(id, s.replication) {
		if o == s.self {
			return routeLabel(i)
		}
	}
	return "fallback"
}

// persistSnapshot captures the decision cache for journal compaction,
// oldest first so replay rebuilds the same LRU order, followed by one
// snapshot per open session.
func (s *Server) persistSnapshot() []persistRecord {
	s.dmu.Lock()
	recs := make([]persistRecord, 0, s.lru.Len())
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		rec := el.Value.(*decision)
		recs = append(recs, persistRecord{id: rec.id, body: rec.body})
	}
	s.dmu.Unlock()
	return append(recs, s.sessionSnapshots()...)
}

// Workers returns the resolved worker-pool capacity.
func (s *Server) Workers() int { return s.admit.workers }

// p99Search returns the observed p99 search duration in seconds (0
// before the first completed search), the pace the admission controller
// uses to estimate queue drain time.
func (s *Server) p99Search() float64 {
	if s.searchSeconds.Count() == 0 {
		return 0
	}
	return s.searchSeconds.Quantile(0.99)
}

// framework returns the base Framework for a system preset, inspecting
// it on first use. The base is never used to run searches directly —
// callers clone it so concurrent requests cannot alias one hardware
// model (the parallel-runner audit contract).
func (s *Server) framework(name string) (*core.Framework, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fw, ok := s.bases[name]; ok {
		return fw, nil
	}
	sys := hw.ByName(name)
	if sys == nil {
		return nil, &notFoundError{what: "system", name: name}
	}
	fw := core.NewFramework(sys)
	s.bases[name] = fw
	return fw, nil
}

// evalCache returns the shared per-(system, benchmark) eval cache.
// EvalCache binds to one (system, workload) pair, so the key must pin
// both; sharing across requests is what makes repeat traffic for the
// same pair cheap even on a decision-cache miss (different TOQ, say).
func (s *Server) evalCache(sys, bench string) *prog.EvalCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sys + "\x00" + bench
	c, ok := s.caches[key]
	if !ok {
		c = prog.NewEvalCache()
		s.caches[key] = c
	}
	return c
}

// notFoundError marks an unknown benchmark or system preset.
type notFoundError struct{ what, name string }

func (e *notFoundError) Error() string { return fmt.Sprintf("unknown %s %q", e.what, e.name) }

// scaleJob is a validated POST /v1/scale request, ready to fingerprint
// and run.
type scaleJob struct {
	fw   *core.Framework
	w    *prog.Workload
	opts scaler.Options
	spec *fault.Spec
	id   string
}

// onceWorkloads resolves each workload once per server: every request
// and session of one benchmark shares one workload, its compiled
// programs and their tape caches, and a cache hit compiles nothing.
// Only workloads that resolve are kept, keyed by their own name, so
// unknown or differently-cased names cannot grow the memo: such a name
// resolves again and gets the kept workload.
func onceWorkloads(resolve func(name string) *prog.Workload) func(name string) *prog.Workload {
	var mu sync.Mutex
	memo := map[string]*prog.Workload{}
	return func(name string) *prog.Workload {
		mu.Lock()
		w := memo[name]
		mu.Unlock()
		if w != nil {
			return w
		}
		if w = resolve(name); w == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if kept := memo[w.Name]; kept != nil {
			return kept
		}
		memo[w.Name] = w
		return w
	}
}

// prepare validates a wire request against the registries and option
// rules and computes the decision fingerprint.
func (s *Server) prepare(req *api.ScaleRequest) (*scaleJob, error) {
	w := s.workload(req.Benchmark)
	if w == nil {
		return nil, &notFoundError{what: "benchmark", name: req.Benchmark}
	}
	sysName := req.System
	if sysName == "" {
		sysName = "system1"
	}
	fw, err := s.framework(sysName)
	if err != nil {
		return nil, err
	}
	spec, err := fault.ParseSeeded(req.Faults, req.FaultSeed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", scaler.ErrBadOptions, err)
	}
	set := prog.InputDefault
	if req.InputSet != "" {
		if set, err = prog.ParseInputSet(req.InputSet); err != nil {
			return nil, fmt.Errorf("%w: %v", scaler.ErrBadOptions, err)
		}
	}
	retries := scaler.DefaultOptions().Retries
	if req.Retries != nil {
		retries = *req.Retries
	}
	opts, err := scaler.Options{
		TOQ:      req.TOQ,
		InputSet: set,
		Retries:  retries,
		// prog.RunWithCache bypasses the cache under fault injection,
		// where replayed op results would mask the injected faults.
		EvalCache: s.evalCache(sysName, w.Name),
	}.Normalize()
	if err != nil {
		return nil, err
	}
	return &scaleJob{fw: fw, w: w, opts: opts, spec: spec, id: fingerprint(fw, w, opts, spec)}, nil
}

// fingerprint hashes everything that determines the decision: the
// inspector database (timing curves drive every plan choice), the
// system and workload identity, and the decision-affecting options.
// The database's canonical bytes were hashed once when it was built;
// fw.DB().Hash() resumes from that state. Workers and the eval cache
// are deliberately excluded — the search outcome and all artifacts are
// byte-identical for any value of either (the determinism invariant) —
// as are Retries when no faults are injected, since retry logic never
// fires on a clean runtime.
func fingerprint(fw *core.Framework, w *prog.Workload, opts scaler.Options, spec *fault.Spec) string {
	h := fw.DB().Hash()
	fmt.Fprintf(h, "|sys=%s|w=%s|toq=%x|set=%s", fw.System().Name, w.Name, opts.TOQ, opts.InputSet)
	if spec != nil {
		fmt.Fprintf(h, "|faults=%s|retries=%d", spec.String(), opts.Retries)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// handleScale is POST /v1/scale: fingerprint, serve from cache, proxy
// to the fingerprint's owner node, coalesce onto an identical in-flight
// search, or become the leader that runs the one search under admission
// control. Whichever path answers, the body is the same bytes — a pure
// function of the fingerprint.
func (s *Server) handleScale(w http.ResponseWriter, r *http.Request) {
	m := s.obs.Metrics()
	m.Counter("service_requests", obs.L("endpoint", "scale")).Inc()
	req, err := api.DecodeScaleRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	job, err := s.prepare(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if isFingerprintOnly(r) {
		s.fingerprintResponse(w, job.id)
		return
	}
	if body, ok := s.cached(job.id); ok {
		s.hits.Add(1)
		if s.view != nil && r.Header.Get(headerForwarded) == "" {
			w.Header().Set(headerClusterRoute, s.routeFor(job.id))
		}
		m.Counter("service_cache", obs.L("result", "hit")).Inc()
		s.writeDecision(w, r, job.id, "hit", body)
		return
	}

	// Ring ownership: requests route to the fingerprint's replica set on
	// the *live* ring (the membership view with probe-down peers
	// excluded), primary first, so the fleet's decision cache shards
	// instead of duplicating and searches concentrate on one node. The
	// first live owner computes; other replicas and non-owners proxy to
	// it, failing over through the replica list — warmed at compute time
	// — when it dies between probe verdicts. A request that was already
	// forwarded once is always answered locally (no proxy loops), as is
	// any request when every replica is unreachable ("fallback") — local
	// compute produces the byte-identical body.
	if s.view != nil && r.Header.Get(headerForwarded) == "" {
		owners := s.view.Ring().OwnerN(job.id, s.replication)
		selfSlot := -1
		for i, o := range owners {
			if o == s.self {
				selfSlot = i
				break
			}
		}
		switch {
		case selfSlot == 0:
			w.Header().Set(headerClusterRoute, routeLabel(0))
		case selfSlot > 0:
			// A replica answers its own cache (checked above) but routes
			// misses to the owners ahead of it; it computes only when all
			// of them are unreachable.
			if s.proxyScale(w, r, req, job.id, owners[:selfSlot]) {
				return
			}
			w.Header().Set(headerClusterRoute, routeLabel(selfSlot))
		default:
			if s.proxyScale(w, r, req, job.id, owners) {
				return
			}
			w.Header().Set(headerClusterRoute, "fallback")
		}
	}

	ctx := r.Context()
	rec, leave, leader := s.join(job.id, ctx)
	defer leave()
	if !leader {
		// Single-flight coalescing: an identical search is already
		// running; wait for its result instead of taking a slot.
		m.Counter("service_cache", obs.L("result", "coalesced")).Inc()
		s.await(w, r, rec)
		return
	}
	m.Counter("service_cache", obs.L("result", "miss")).Inc()
	// Abandon guard: if this handler unwinds without publishing an
	// outcome (a panic outside fault.Guard), end the search so waiting
	// requests get an error instead of hanging. Normal completion wins.
	defer s.finish(rec, nil, nil, errFlightAbandoned)

	rt := newReqTelemetry(RequestIDFrom(ctx), job, rec.log)

	// Admission control. A request that cannot meet its declared
	// deadline — or that finds the queue full — is shed before it costs
	// anything; a client that disconnects while queued never occupies a
	// slot. The search runs under the record's context, which outlives
	// this request as long as coalesced requests remain.
	if se := s.admit.deadlineShed(deadlineMs(r), s.p99Search); se != nil {
		s.shed(w, m, rec, se)
		return
	}
	_, body, err := s.search(rec.ctx, clientID(r), job, nil, rt)
	if err != nil {
		var se *shedError
		if errors.As(err, &se) {
			s.shed(w, m, rec, se)
			return
		}
		s.finish(rec, nil, nil, err)
		s.writeError(w, err)
		return
	}
	s.misses.Add(1)
	s.finish(rec, body, rt.closeTrace(), nil)
	// Push the fresh decision to the fingerprint's other replicas so a
	// failover request finds it cached instead of re-searching.
	// Asynchronous and best-effort; the client never waits on it. A
	// faulted request is not pushed: its fingerprint covers the fault
	// spec, which the body does not carry, so every replica would
	// reject it.
	if s.view != nil && s.replication > 1 && job.spec == nil {
		go s.warmReplicas(job.id, body)
	}
	s.writeDecision(w, r, job.id, "miss", body)
}

// shed rejects a leader request (and with it the whole search: queued
// coalesced requests receive the same 429, having cost nothing).
func (s *Server) shed(w http.ResponseWriter, m *obs.Registry, rec *decision, se *shedError) {
	m.Counter("service_shed", obs.L("reason", se.reason)).Inc()
	s.finish(rec, nil, nil, se)
	s.writeError(w, se)
}

// await blocks a coalesced request until the search's leader publishes
// the result (fanned out verbatim) or the request's own client
// disconnects.
func (s *Server) await(w http.ResponseWriter, r *http.Request, rec *decision) {
	select {
	case <-rec.done:
		if rec.err != nil {
			s.writeError(w, rec.err)
			return
		}
		s.writeDecision(w, r, rec.id, "coalesced", rec.body)
	case <-r.Context().Done():
		s.writeError(w, ctxCause(r.Context()))
	}
}

// clientID keys the fair queue: an explicit X-Client-Id when the
// client sent a sane one, else the remote host, so unidentified
// traffic from one address shares one bucket.
func clientID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get(headerClientID)); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// deadlineMs reads the client's declared latency budget (X-Deadline-Ms);
// 0 means none. Negative or malformed values are ignored rather than
// rejected — the header is advisory.
func deadlineMs(r *http.Request) int {
	v := r.Header.Get(headerDeadline)
	if v == "" {
		return 0
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms < 0 {
		return 0
	}
	return ms
}

// search runs one decision search in a worker slot. It is the one
// path of the scale leader, session create and session re-scale: it
// acquires a slot in clientKey's fair-queue lane, observes the queue
// wait, runs the search, releases the slot, and records
// service_search_seconds and service_searches{result}. A shed or a
// cancellation while queued returns before any of that is recorded.
func (s *Server) search(ctx context.Context, clientKey string, job *scaleJob, seed *scaler.Seed, rt *reqTelemetry) (*core.ScaledProgram, []byte, error) {
	qWall := rt.now()
	qStart := time.Now()
	if err := s.admit.Acquire(ctx, clientKey, s.p99Search); err != nil {
		return nil, nil, err
	}
	defer s.admit.Release()
	s.queueWait.Observe(time.Since(qStart).Seconds())
	rt.queueWaited(qWall)
	if s.testSearchStarted != nil {
		s.testSearchStarted(ctx, job.w.Name)
	}
	start := time.Now()
	sp, body, err := s.runScaled(ctx, job, rt, seed)
	s.searchSeconds.Observe(time.Since(start).Seconds())
	s.obs.Metrics().Counter("service_searches", obs.L("result", resultLabel(err))).Inc()
	return sp, body, err
}

// runScaled executes the decision search for a prepared job on a clone
// of the base framework and renders the canonical decision body. The
// body is a pure function of the search result — no ids, timestamps,
// or cache state — which keeps it byte-identical to cmd/prescaler
// -json for the same workload and options. The scaled program comes
// back too: the session layer executes batches under its config. A
// non-nil seed warm-starts the search from a previous generation; the
// cold path (nil seed) is bit-for-bit the pre-session search.
func (s *Server) runScaled(ctx context.Context, job *scaleJob, rt *reqTelemetry, seed *scaler.Seed) (*core.ScaledProgram, []byte, error) {
	fw := job.fw.Clone()
	sys := fw.System()
	sys.Faults = job.spec
	opts := job.opts
	opts.Seed = seed
	var reqObs *obs.Observer
	if rt != nil {
		// The per-request journal shares the process-wide metrics
		// registry: /metrics aggregates across requests while the
		// explain journal stays request-scoped. The request id lands in
		// the journal, so an explain report, an access-log line, and a
		// client's X-Request-Id all join up. No virtual-clock tracer is
		// attached: nothing serves one, and the runtime hook feeds the
		// registry without it.
		j := &obs.Journal{}
		if rt.id != "" {
			j.Note("request %s", rt.id)
		}
		reqObs = obs.Compose(nil, s.obs.Metrics(), j)
		opts.Obs = reqObs
		opts.Progress = rt.onProgress
		rt.beginSearch()
	}
	var sp *core.ScaledProgram
	err := fault.Guard(func() error {
		var e error
		sp, e = fw.Scale(ctx, job.w, opts)
		return e
	})
	if err != nil {
		return nil, nil, err
	}
	if s.logger != nil && reqObs != nil && s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.Debug("decision explain", "request_id", rt.id, "explain", reqObs.Explain())
	}
	d := api.NewDecision(sys, job.w, sp.Search, opts.TOQ, opts.InputSet)
	var buf strings.Builder
	if err := api.EncodeDecision(&buf, d); err != nil {
		return nil, nil, err
	}
	return sp, []byte(buf.String()), nil
}

// handleDecision is GET /v1/decisions/{id}.
func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "decisions")).Inc()
	id := r.PathValue("id")
	body, ok := s.cached(id)
	if !ok {
		s.writeError(w, &notFoundError{what: "decision", name: id})
		return
	}
	s.writeDecision(w, r, id, "hit", body)
}

// handleSystems is GET /v1/systems: every preset with its inspector
// database inventory (inspecting lazily, so the first call pays the
// one-time inspection cost for presets not yet used by a search).
func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "systems")).Inc()
	var names []string
	for _, sys := range hw.Systems() {
		names = append(names, sys.Name)
	}
	sort.Strings(names)
	out := make([]*api.System, 0, len(names))
	for _, name := range names {
		fw, err := s.framework(name)
		if err != nil {
			s.writeError(w, err)
			return
		}
		out = append(out, api.NewSystem(fw.System(), fw.DB().NumCurves(), fw.DB().Sizes()))
	}
	w.Header().Set("Content-Type", "application/json")
	api.Encode(w, out)
}

// handleHealthz is GET /v1/healthz: liveness plus pool and cache
// occupancy and the request-latency/queue-wait quantiles, cheap enough
// for tight probe loops.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	api.Encode(w, s.Health())
}

// Health returns the healthz document: liveness, pool and cache
// occupancy, uptime, and p50/p99/max summaries of request latency and
// queue wait. cmd/prescalerd writes the same document as a JSON
// artifact when it drains on SIGTERM, so a scrape and the shutdown
// artifact are directly comparable.
func (s *Server) Health() map[string]any {
	s.dmu.Lock()
	cached := s.lru.Len()
	s.dmu.Unlock()
	// Per-(system, benchmark) eval-cache entry counts, keyed
	// "system/benchmark", so load tests can verify cache behavior
	// without scraping Prometheus.
	evalCaches := map[string]int{}
	s.mu.Lock()
	for key, c := range s.caches {
		evalCaches[strings.ReplaceAll(key, "\x00", "/")] = c.Entries()
	}
	s.mu.Unlock()
	h := map[string]any{
		"schema":             api.Schema,
		"status":             "ok",
		"workers":            s.admit.workers,
		"busy":               s.admit.Busy(),
		"queue_depth":        s.admit.Depth(),
		"queue_capacity":     s.admit.maxQ,
		"decisions":          cached,
		"decisions_capacity": s.maxSize,
		"cache_hits":         s.hits.Load(),
		"cache_miss":         s.misses.Load(),
		"eval_caches":        evalCaches,
		"uptime_seconds":     time.Since(s.start).Seconds(),
		"request_latency":    latencySummary(s.latency),
		"queue_wait":         latencySummary(s.queueWait),
		"search_time":        latencySummary(s.searchSeconds),
	}
	if s.view != nil {
		peers := map[string]any{}
		for peer, ph := range s.peers {
			peers[peer] = ph.entry()
		}
		h["cluster"] = map[string]any{
			"self":        s.self,
			"nodes":       s.view.Seed(),
			"live":        s.view.Live(),
			"epoch":       s.view.Epoch(),
			"replication": s.replication,
			"peers":       peers,
		}
	}
	if s.journal != nil {
		h["persist_dir"] = s.journal.dir
	}
	return h
}

// handleMetricsz is GET /v1/metricsz: the obs registry as CSV — the
// same rendering cmd/prescaler -metrics writes, so existing tooling
// parses both.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	if err := s.obs.Metrics().WriteCSV(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeDecision serves a canonical decision body. The id and cache
// status travel as headers, never in the body, which must stay a pure
// function of the search result. Behind ?meta=1 the same metadata is
// additionally promoted into an api.Envelope wrapper for clients that
// cannot read headers; the headers stay set either way, and the bare
// body (no meta) remains the byte-stable surface.
func (s *Server) writeDecision(w http.ResponseWriter, r *http.Request, id, cache string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Decision-Id", id)
	h.Set("X-Cache", cache)
	if wantMeta(r) {
		api.Encode(w, &api.Envelope{
			Schema: api.Schema,
			Meta: &api.Meta{
				DecisionID:   id,
				Cache:        cache,
				ClusterRoute: h.Get(headerClusterRoute),
				CacheOrigin:  h.Get(headerCacheOrigin),
			},
			Decision: json.RawMessage(body),
		})
		return
	}
	w.Write(body)
}

// wantMeta reports whether the request asked for the ?meta=1 envelope.
func wantMeta(r *http.Request) bool {
	if r == nil {
		return false
	}
	v := r.URL.Query().Get("meta")
	return v == "1" || v == "true"
}

// ctxCause extracts the most specific cancellation error.
func ctxCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// resultLabel classifies a search outcome for the metrics counter.
func resultLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case ocl.IsFault(err):
		return "fault"
	default:
		return "error"
	}
}

// statusClientClosedRequest is nginx's nonstandard 499: the client went
// away before the response was ready. Nothing receives the body, but
// the code keeps access logs and tests honest about why the search
// ended.
const statusClientClosedRequest = 499

// writeError maps an error onto the deterministic (status, code) pair
// of the v1 error envelope, classifying through the exported sentinels
// (scaler.ErrBadOptions, ocl.ErrDeviceLost, ...) however deeply the
// error is wrapped.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	retryAfter := 0
	var nf *notFoundError
	var pe *fault.PanicError
	var se *shedError
	switch {
	case errors.As(err, &se):
		status, code = http.StatusTooManyRequests, "overloaded"
		retryAfter = se.retryAfter
	case errors.As(err, &nf):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, scaler.ErrBadOptions), errors.Is(err, api.ErrBadRequest):
		status, code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status, code = statusClientClosedRequest, "canceled"
	case errors.Is(err, scaler.ErrUnsupported):
		status, code = http.StatusUnprocessableEntity, "unsupported"
	case errors.Is(err, ocl.ErrDeviceLost):
		status, code = http.StatusBadGateway, "device_lost"
	case errors.Is(err, ocl.ErrAllocFailed):
		status, code = http.StatusBadGateway, "alloc_failed"
	case errors.Is(err, ocl.ErrLaunchFailed):
		status, code = http.StatusBadGateway, "launch_failed"
	case errors.Is(err, ocl.ErrTransferFailed):
		status, code = http.StatusBadGateway, "transfer_failed"
	case errors.As(err, &pe):
		status, code = http.StatusInternalServerError, "panic"
	}
	s.obs.Metrics().Counter("service_errors", obs.L("code", code)).Inc()
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	api.Encode(w, &api.Error{
		Schema: api.Schema, Code: code, Message: err.Error(),
		RetryAfterSeconds: retryAfter,
	})
}

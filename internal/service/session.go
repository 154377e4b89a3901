package service

// Sessions: the long-lived half of the v1 API. A session binds a
// (system, benchmark, TOQ) triple to a decision that adapts online.
// POST /v1/sessions runs the ordinary cold search (the same bytes
// /v1/scale would produce land in the decision cache); each
// POST /v1/sessions/{id}/evaluate then executes one input batch under
// the current decision and feeds a drift detector — running
// range/variance statistics per bound input object, compared against
// the statistics the current generation was scaled for. A normalized
// shift beyond the session's threshold, or an observed TOQ violation,
// triggers a warm-started re-search (scaler.Seed): seeded from the
// previous generation's per-object configs, re-validating only objects
// whose error contribution moved, and emitting a new decision
// generation with a diff explaining what changed and why.
//
// Drift is checked before TOQ so the reported reason is stable: a batch
// whose distribution moved usually breaks TOQ too, and "drift" is the
// actionable signal. Evaluates on one session serialize on the
// session's own mutex; different sessions proceed in parallel, with
// re-searches running under the same admission controller as /v1/scale.
// The session store's lock (smu) is never held while a session's mutex
// is taken, so a re-scale queued for a worker slot stalls only its own
// session.
//
// Sessions persist: every generation change appends a full snapshot
// (identified by the "sess"-prefixed id, disjoint from the 16-hex-char
// decision fingerprints) to the PR-9 decision journal, and restart
// restores unexpired sessions last-write-wins.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/scaler"
)

const (
	// sessionIDPrefix distinguishes session journal records from decision
	// fingerprints. Ids are sessionIDPrefix + 12 hex digits = 16 bytes,
	// satisfying the journal's fixed-width id format; fingerprints are
	// pure hex and can never start with 's'.
	sessionIDPrefix       = "sess"
	defaultSessionTTL     = time.Hour
	defaultMaxSessions    = 64
	defaultDriftThreshold = 0.25
)

// session is one live session. Its mutex serializes evaluates and
// guards every mutable field but lastUsed, which is atomic so that
// lookups and eviction under the server's smu never wait for an
// evaluate; ttl is fixed at creation.
type session struct {
	mu sync.Mutex

	id        string
	bench     string // workload-resolver name, for snapshots
	sysName   string // system preset name, for snapshots
	w         *prog.Workload
	baseFw    *core.Framework // shared per-system base; searches clone it
	runSys    *hw.System      // private clone batches execute on
	spec      *fault.Spec
	faults    string // original wire spec, for snapshots
	faultSeed uint64
	retries   int
	toq       float64
	threshold float64
	ttl       time.Duration
	cache     *prog.EvalCache // the server's per-(system, benchmark) cache
	log       *eventLog       // lifecycle events, served by GET .../events

	set        prog.InputSet
	generation int
	reason     string // "initial", "drift", or "toq"
	trials     int    // trial count of the search behind this generation
	cfg        *prog.Config
	body       []byte // current generation's canonical decision body

	objErr   map[string]float64            // per-object error contribution the seed carries
	refStats map[string]*prog.RunningStats // input stats the generation was scaled for
	curStats map[string]*prog.RunningStats // accumulated stats of evaluated batches
	refs     map[prog.InputSet]*prog.Result

	lastUsed atomic.Int64 // unix nanoseconds of creation or the last evaluate
}

// touch records a use of the session at t.
func (sess *session) touch(t time.Time) { sess.lastUsed.Store(t.UnixNano()) }

// lastUse returns the time of the session's last use.
func (sess *session) lastUse() time.Time { return time.Unix(0, sess.lastUsed.Load()) }

// sessionTTL is the idle expiry of a session that asked for ttlSeconds
// (0 or less: none) on a server whose limit is limit. A request may only
// shorten the limit; comparing in seconds before converting keeps huge
// requests from overflowing time.Duration.
func sessionTTL(ttlSeconds int, limit time.Duration) time.Duration {
	if ttlSeconds <= 0 || float64(ttlSeconds) >= limit.Seconds() {
		return limit
	}
	return time.Duration(ttlSeconds) * time.Second
}

// handleSessionCreate is POST /v1/sessions: validate like /v1/scale,
// run the cold search (stored under its fingerprint, so the decision
// bytes are identical to a plain scale request), and bind the session
// state around it.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	m := s.obs.Metrics()
	m.Counter("service_requests", obs.L("endpoint", "sessions")).Inc()
	req, err := api.DecodeSessionRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	job, err := s.prepare(&api.ScaleRequest{
		Schema: api.Schema, Benchmark: req.Benchmark, System: req.System,
		TOQ: req.TOQ, InputSet: req.InputSet,
		Faults: req.Faults, FaultSeed: req.FaultSeed, Retries: req.Retries,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	sp, body, err := s.search(r.Context(), clientID(r), job, nil, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.store(job.id, body)

	sess, err := s.newSession(req, job, sp, body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.insertSession(sess)
	// Past insertSession the session is reachable by other requests:
	// snapshot and render under its mutex.
	sess.mu.Lock()
	s.journalSessionLocked(sess)
	gen, _ := json.Marshal(sess.generationDocLocked(nil))
	doc := sess.documentLocked()
	sess.mu.Unlock()
	if gen != nil {
		sess.log.publish(sseEvent{name: "generation", data: gen})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Decision-Id", job.id)
	w.WriteHeader(http.StatusCreated)
	api.Encode(w, doc)
}

// newSession builds the session state around a completed cold search.
func (s *Server) newSession(req *api.SessionRequest, job *scaleJob, sp *core.ScaledProgram, body []byte) (*session, error) {
	threshold := req.DriftThreshold
	if threshold == 0 {
		threshold = defaultDriftThreshold
	}
	sysName := req.System
	if sysName == "" {
		sysName = "system1"
	}
	runSys := job.fw.System().Clone()
	runSys.Faults = job.spec
	sess := &session{
		id:        s.nextSessionID(),
		bench:     req.Benchmark,
		sysName:   sysName,
		w:         job.w,
		baseFw:    job.fw,
		runSys:    runSys,
		spec:      job.spec,
		faults:    req.Faults,
		faultSeed: req.FaultSeed,
		retries:   job.opts.Retries,
		toq:       job.opts.TOQ,
		threshold: threshold,
		ttl:       sessionTTL(req.TTLSeconds, s.sessTTL),
		cache:     job.opts.EvalCache,
		log:       newEventLog(),

		set:        job.opts.InputSet,
		generation: 1,
		reason:     "initial",
		trials:     sp.Search.Trials,
		cfg:        sp.Config,
		body:       body,

		curStats: map[string]*prog.RunningStats{},
		refs:     map[prog.InputSet]*prog.Result{},
	}
	sess.touch(s.now())
	ref, err := sess.reference(sess.set)
	if err != nil {
		return nil, err
	}
	sess.objErr = prog.ObjectErrors(sess.w, ref.Ops, ref, sp.Search.Final)
	sess.refStats = inputStats(sess.w, sess.set)
	return sess, nil
}

// handleSessionGet is GET /v1/sessions/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "sessions")).Inc()
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		s.writeError(w, &notFoundError{what: "session", name: r.PathValue("id")})
		return
	}
	sess.mu.Lock()
	doc := sess.documentLocked()
	sess.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	api.Encode(w, doc)
}

// handleSessionDelete is DELETE /v1/sessions/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "sessions")).Inc()
	id := r.PathValue("id")
	s.smu.Lock()
	_, ok := s.sessions[id]
	if ok {
		s.dropSessionLocked(id, "deleted")
	}
	s.smu.Unlock()
	if !ok {
		s.writeError(w, &notFoundError{what: "session", name: id})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionEvaluate is POST /v1/sessions/{id}/evaluate: execute one
// input batch under the session's current decision, report achieved
// quality and drift, and — when drift or a TOQ violation demands it —
// re-scale warm and advance the generation.
func (s *Server) handleSessionEvaluate(w http.ResponseWriter, r *http.Request) {
	m := s.obs.Metrics()
	m.Counter("service_requests", obs.L("endpoint", "evaluate")).Inc()
	id := r.PathValue("id")
	sess := s.session(id)
	if sess == nil {
		s.writeError(w, &notFoundError{what: "session", name: id})
		return
	}
	req, err := api.DecodeEvaluateRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	set := sess.set
	if req.InputSet != "" {
		if set, err = prog.ParseInputSet(req.InputSet); err != nil {
			s.writeError(w, fmt.Errorf("%w: %v", api.ErrBadRequest, err))
			return
		}
	}
	resp, err := s.evaluateLocked(r.Context(), sess, set)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess.touch(s.now())
	if data, merr := json.Marshal(resp); merr == nil {
		sess.log.publish(sseEvent{name: "evaluate", data: data})
	}
	w.Header().Set("Content-Type", "application/json")
	api.Encode(w, resp)
}

// evaluateLocked runs one batch under the current generation. Caller
// holds sess.mu.
func (s *Server) evaluateLocked(ctx context.Context, sess *session, set prog.InputSet) (*api.EvaluateResponse, error) {
	m := s.obs.Metrics()
	// Fold the batch into the running statistics and keep the batch's own
	// stats: a re-scale rebases the reference onto the batch it was
	// triggered by.
	batch := map[string]*prog.RunningStats{}
	for name, data := range sess.w.MakeInputs(set) {
		st := &prog.RunningStats{}
		st.ObserveSlice(data)
		batch[name] = st
		cur := sess.curStats[name]
		if cur == nil {
			cur = &prog.RunningStats{}
			sess.curStats[name] = cur
		}
		cur.ObserveSlice(data)
	}
	ref, err := sess.reference(set)
	if err != nil {
		return nil, err
	}
	res, err := sess.runOnce(set, sess.cfg)
	if err != nil {
		return nil, err
	}
	quality := prog.Quality(ref, res)

	names := make([]string, 0, len(sess.curStats))
	for name := range sess.curStats {
		names = append(names, name)
	}
	sort.Strings(names)
	var drift []api.ObjectDrift
	drifted := false
	for _, name := range names {
		shift := prog.NormalizedShift(sess.refStats[name], sess.curStats[name])
		d := shift > sess.threshold
		drifted = drifted || d
		drift = append(drift, api.ObjectDrift{Object: name, Shift: shift, Drifted: d})
	}

	resp := &api.EvaluateResponse{
		Schema:     api.Schema,
		Session:    sess.id,
		Generation: sess.generation,
		InputSet:   set.String(),
		Quality:    quality,
		TOQ:        sess.toq,
		TOQMet:     quality >= sess.toq,
		SimMs:      res.Total,
		Drift:      drift,
	}
	reason := ""
	switch {
	case drifted:
		reason = "drift"
	case quality < sess.toq:
		reason = "toq"
	}
	if reason == "" {
		return resp, nil
	}
	resp.RescaleReason = reason
	if err := s.rescaleLocked(ctx, sess, set, reason, batch, ref); err != nil {
		// The previous generation stays in force; the client learns the
		// re-scale was attempted and failed and can retry with the next
		// batch (drift persists, so the trigger fires again).
		m.Counter("service_rescale_failures").Inc()
		if s.logger != nil {
			s.logger.Warn("session re-scale failed",
				"session", sess.id, "reason", reason, "err", err.Error())
		}
		resp.RescaleFailed = true
		return resp, nil
	}
	resp.Rescaled = true
	resp.Generation = sess.generation
	return resp, nil
}

// rescaleLocked runs the warm-started re-search and advances the
// generation. Caller holds sess.mu; the previous generation stays
// untouched unless the search succeeds.
func (s *Server) rescaleLocked(ctx context.Context, sess *session, set prog.InputSet, reason string, batch map[string]*prog.RunningStats, ref *prog.Result) error {
	m := s.obs.Metrics()
	m.Counter("service_rescale", obs.L("reason", reason)).Inc()
	opts, err := scaler.Options{
		TOQ: sess.toq, InputSet: set, Retries: sess.retries, EvalCache: sess.cache,
	}.Normalize()
	if err != nil {
		return err
	}
	job := &scaleJob{fw: sess.baseFw, w: sess.w, opts: opts, spec: sess.spec}
	seed := &scaler.Seed{Config: sess.cfg, ObjErr: sess.objErr}
	sp, body, err := s.search(ctx, "session/"+sess.id, job, seed, nil)
	if err != nil {
		return err
	}
	diff := generationDiff(sess.w, sess.cfg, sp.Config, sp.Search.Warm)
	sess.generation++
	sess.reason = reason
	sess.set = set
	sess.cfg = sp.Config
	sess.body = body
	sess.trials = sp.Search.Trials
	sess.objErr = prog.ObjectErrors(sess.w, ref.Ops, ref, sp.Search.Final)
	sess.refStats = batch
	sess.curStats = map[string]*prog.RunningStats{}
	if data, merr := json.Marshal(sess.generationDocLocked(diff)); merr == nil {
		sess.log.publish(sseEvent{name: "generation", data: data})
	}
	s.journalSessionLocked(sess)
	return nil
}

// generationDiff explains a generation transition: one line per object,
// labeled by what the warm search did with it.
func generationDiff(w *prog.Workload, old, cur *prog.Config, warm *scaler.WarmReport) []api.GenerationChange {
	why := map[string]string{}
	if warm != nil {
		for _, o := range warm.Kept {
			why[o] = "kept"
		}
		for _, o := range warm.Moved {
			why[o] = "moved"
		}
		for _, o := range warm.Repaired {
			why[o] = "repaired"
		}
	}
	diff := make([]api.GenerationChange, 0, len(w.Objects))
	for _, obj := range w.Objects {
		from := old.Objects[obj.Name].Target
		to := cur.Objects[obj.Name].Target
		wy := why[obj.Name]
		if wy == "" {
			if from == to {
				wy = "kept"
			} else {
				wy = "moved"
			}
		}
		diff = append(diff, api.GenerationChange{
			Object: obj.Name, From: from.String(), To: to.String(), Why: wy,
		})
	}
	return diff
}

// handleSessionEvents is GET /v1/sessions/{id}/events: the session's
// lifecycle over SSE — "generation" (one per decision generation,
// including the initial one), "evaluate" (one per batch), and a
// terminal "done" when the session is deleted, evicted, or expired.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Counter("service_requests", obs.L("endpoint", "session_events")).Inc()
	id := r.PathValue("id")
	sess := s.session(id)
	if sess == nil {
		s.writeError(w, &notFoundError{what: "session", name: id})
		return
	}
	serveEvents(w, r, sess.log)
}

// session looks up a live session, lazily reclaiming it when its idle
// TTL has passed.
func (s *Server) session(id string) *session {
	s.smu.Lock()
	defer s.smu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil
	}
	if s.now().Sub(sess.lastUse()) > sess.ttl {
		s.dropSessionLocked(id, "expired")
		return nil
	}
	return sess
}

// insertSession registers a new session, evicting the least recently
// used beyond capacity.
func (s *Server) insertSession(sess *session) {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.sessions[sess.id] = sess
	for len(s.sessions) > s.maxSessions {
		victim := ""
		var oldest int64
		for id, other := range s.sessions {
			if id == sess.id {
				continue
			}
			if lu := other.lastUsed.Load(); victim == "" || lu < oldest {
				victim, oldest = id, lu
			}
		}
		if victim == "" {
			break
		}
		s.dropSessionLocked(victim, "evicted")
	}
	s.sessGauge.Set(float64(len(s.sessions)))
}

// dropSessionLocked removes a session (caller holds smu), ending its
// event log so subscribers see a terminal "done" with the reason.
func (s *Server) dropSessionLocked(id, why string) {
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.obs.Metrics().Counter("service_session_drops", obs.L("reason", why)).Inc()
	s.sessGauge.Set(float64(len(s.sessions)))
	if data, err := json.Marshal(map[string]any{"session": id, "reason": why}); err == nil {
		sess.log.publish(sseEvent{name: "done", data: data})
	}
}

// nextSessionID mints the next session id: the prefix plus 12 hex
// digits of a process-local counter, 16 bytes total to satisfy the
// journal's fixed-width id format.
func (s *Server) nextSessionID() string {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.sessSeq++
	return fmt.Sprintf("%s%012x", sessionIDPrefix, s.sessSeq)
}

// runOnce executes the workload once on the session's private runtime
// under the given config (nil = full precision), fault-guarded like
// every other runtime entry point.
func (sess *session) runOnce(set prog.InputSet, cfg *prog.Config) (*prog.Result, error) {
	var res *prog.Result
	err := fault.Guard(func() error {
		r, e := prog.RunWithCache(sess.runSys, sess.w, set, cfg, sess.cache)
		if e != nil {
			return e
		}
		res = r
		return nil
	})
	return res, err
}

// reference returns (memoizing per input set) the full-precision run
// that quality and error attribution compare against.
func (sess *session) reference(set prog.InputSet) (*prog.Result, error) {
	if ref, ok := sess.refs[set]; ok {
		return ref, nil
	}
	ref, err := sess.runOnce(set, nil)
	if err != nil {
		return nil, err
	}
	sess.refs[set] = ref
	return ref, nil
}

// inputStats computes the running statistics of one generated batch,
// keyed by input object.
func inputStats(w *prog.Workload, set prog.InputSet) map[string]*prog.RunningStats {
	out := map[string]*prog.RunningStats{}
	for name, data := range w.MakeInputs(set) {
		st := &prog.RunningStats{}
		st.ObserveSlice(data)
		out[name] = st
	}
	return out
}

// documentLocked renders the api.Session document. Caller holds sess.mu
// (or is the session's only holder).
func (sess *session) documentLocked() *api.Session {
	var d api.Decision
	json.Unmarshal(sess.body, &d)
	return &api.Session{
		Schema:         api.Schema,
		ID:             sess.id,
		Benchmark:      sess.bench,
		System:         sess.sysName,
		TOQ:            sess.toq,
		InputSet:       sess.set.String(),
		Generation:     sess.generation,
		TTLSeconds:     int(sess.ttl / time.Second),
		DriftThreshold: sess.threshold,
		Decision:       &d,
	}
}

// generationDocLocked renders the api.Generation document for the
// current generation. Caller holds sess.mu (or is the only holder).
func (sess *session) generationDocLocked(diff []api.GenerationChange) *api.Generation {
	var d api.Decision
	json.Unmarshal(sess.body, &d)
	return &api.Generation{
		Schema:     api.Schema,
		Session:    sess.id,
		Generation: sess.generation,
		Reason:     sess.reason,
		InputSet:   sess.set.String(),
		Warm:       sess.reason != "initial",
		Trials:     sess.trials,
		Diff:       diff,
		Decision:   &d,
	}
}

// sessionSnapshot is the journal record of one session: everything
// needed to rebuild it after a restart. The decision body rides along
// verbatim; the config is stored as integer precision codes (the wire
// strings are for humans, the codes are what precision.Type holds).
type sessionSnapshot struct {
	ID             string                        `json:"id"`
	Benchmark      string                        `json:"benchmark"`
	System         string                        `json:"system"`
	TOQ            float64                       `json:"toq"`
	InputSet       string                        `json:"input_set"`
	Faults         string                        `json:"faults,omitempty"`
	FaultSeed      uint64                        `json:"fault_seed,omitempty"`
	Retries        int                           `json:"retries"`
	TTLSeconds     int                           `json:"ttl_seconds"`
	DriftThreshold float64                       `json:"drift_threshold"`
	Generation     int                           `json:"generation"`
	Reason         string                        `json:"reason"`
	Trials         int                           `json:"trials"`
	LastUsedUnix   int64                         `json:"last_used_unix"`
	Objects        map[string]snapObject         `json:"objects"`
	ObjErr         map[string]float64            `json:"obj_err,omitempty"`
	RefStats       map[string]*prog.RunningStats `json:"ref_stats,omitempty"`
	CurStats       map[string]*prog.RunningStats `json:"cur_stats,omitempty"`
	Body           json.RawMessage               `json:"body"`
}

type snapObject struct {
	Target   int        `json:"target"`
	InKernel bool       `json:"in_kernel,omitempty"`
	Plans    []snapPlan `json:"plans,omitempty"`
}

type snapPlan struct {
	Host    int `json:"host"`
	Threads int `json:"threads,omitempty"`
	Mid     int `json:"mid"`
}

// snapshotLocked captures the session for the journal. Caller holds
// sess.mu (or is the only holder).
func (sess *session) snapshotLocked() *sessionSnapshot {
	objs := map[string]snapObject{}
	for name, oc := range sess.cfg.Objects {
		so := snapObject{Target: int(oc.Target), InKernel: oc.InKernel}
		for _, p := range oc.Plans {
			so.Plans = append(so.Plans, snapPlan{Host: int(p.Host), Threads: p.Threads, Mid: int(p.Mid)})
		}
		objs[name] = so
	}
	return &sessionSnapshot{
		ID:             sess.id,
		Benchmark:      sess.bench,
		System:         sess.sysName,
		TOQ:            sess.toq,
		InputSet:       sess.set.String(),
		Faults:         sess.faults,
		FaultSeed:      sess.faultSeed,
		Retries:        sess.retries,
		TTLSeconds:     int(sess.ttl / time.Second),
		DriftThreshold: sess.threshold,
		Generation:     sess.generation,
		Reason:         sess.reason,
		Trials:         sess.trials,
		LastUsedUnix:   sess.lastUse().Unix(),
		Objects:        objs,
		ObjErr:         sess.objErr,
		RefStats:       sess.refStats,
		CurStats:       sess.curStats,
		Body:           json.RawMessage(sess.body),
	}
}

// journalSessionLocked appends the session's snapshot to the decision
// journal. Caller holds sess.mu (or is the only holder).
func (s *Server) journalSessionLocked(sess *session) {
	if s.journal == nil {
		return
	}
	data, err := json.Marshal(sess.snapshotLocked())
	if err != nil {
		return
	}
	s.journal.append(sess.id, data)
}

// sessionSnapshots captures every open session for journal compaction.
// The store is copied under smu and each session snapshotted after
// releasing it, so a session busy in a re-scale delays compaction but
// no other session. A session inserted after the copy journals its own
// record after insertion, so the truncated WAL loses nothing.
func (s *Server) sessionSnapshots() []persistRecord {
	s.smu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.smu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	recs := make([]persistRecord, 0, len(sessions))
	for _, sess := range sessions {
		sess.mu.Lock()
		data, err := json.Marshal(sess.snapshotLocked())
		sess.mu.Unlock()
		if err == nil {
			recs = append(recs, persistRecord{id: sess.id, body: data})
		}
	}
	return recs
}

// restoreSession rebuilds one session from its journal snapshot.
// Invalid or expired snapshots are skipped — restore is best-effort,
// like the rest of the journal.
func (s *Server) restoreSession(rec persistRecord) {
	skipped := func(why string) {
		s.obs.Metrics().Counter("service_session_restore", obs.L("result", why)).Inc()
		if s.logger != nil {
			s.logger.Warn("session restore skipped", "id", rec.id, "why", why)
		}
	}
	var snap sessionSnapshot
	if err := json.Unmarshal(rec.body, &snap); err != nil || snap.ID != rec.id {
		skipped("corrupt")
		return
	}
	ttl := sessionTTL(snap.TTLSeconds, s.sessTTL)
	lastUsed := time.Unix(snap.LastUsedUnix, 0)
	if s.now().Sub(lastUsed) > ttl {
		skipped("expired")
		return
	}
	w := s.workload(snap.Benchmark)
	if w == nil {
		skipped("unknown_benchmark")
		return
	}
	set, err := prog.ParseInputSet(snap.InputSet)
	if err != nil {
		skipped("bad_input_set")
		return
	}
	fw, err := s.framework(snap.System)
	if err != nil {
		skipped("unknown_system")
		return
	}
	spec, err := fault.ParseSeeded(snap.Faults, snap.FaultSeed)
	if err != nil {
		skipped("bad_faults")
		return
	}
	cfg := &prog.Config{Objects: map[string]prog.ObjectConfig{}}
	for name, so := range snap.Objects {
		oc := prog.ObjectConfig{Target: precision.Type(so.Target), InKernel: so.InKernel}
		if !oc.Target.Valid() {
			skipped("bad_config")
			return
		}
		for _, p := range so.Plans {
			oc.Plans = append(oc.Plans, convert.Plan{
				Host: convert.Method(p.Host), Threads: p.Threads, Mid: precision.Type(p.Mid),
			})
		}
		cfg.Objects[name] = oc
	}
	runSys := fw.System().Clone()
	runSys.Faults = spec
	sess := &session{
		id:        snap.ID,
		bench:     snap.Benchmark,
		sysName:   snap.System,
		w:         w,
		baseFw:    fw,
		runSys:    runSys,
		spec:      spec,
		faults:    snap.Faults,
		faultSeed: snap.FaultSeed,
		retries:   snap.Retries,
		toq:       snap.TOQ,
		threshold: snap.DriftThreshold,
		ttl:       ttl,
		cache:     s.evalCache(snap.System, w.Name),
		log:       newEventLog(),

		set:        set,
		generation: snap.Generation,
		reason:     snap.Reason,
		trials:     snap.Trials,
		cfg:        cfg,
		body:       []byte(snap.Body),

		objErr:   snap.ObjErr,
		refStats: snap.RefStats,
		curStats: snap.CurStats,
		refs:     map[prog.InputSet]*prog.Result{},
	}
	sess.touch(lastUsed)
	if sess.threshold == 0 {
		sess.threshold = defaultDriftThreshold
	}
	if sess.refStats == nil {
		sess.refStats = map[string]*prog.RunningStats{}
	}
	if sess.curStats == nil {
		sess.curStats = map[string]*prog.RunningStats{}
	}
	if seq, err := strconv.ParseUint(snap.ID[len(sessionIDPrefix):], 16, 64); err == nil && seq > s.sessSeq {
		s.sessSeq = seq
	}
	s.insertSession(sess)
	s.obs.Metrics().Counter("service_session_restore", obs.L("result", "ok")).Inc()
}

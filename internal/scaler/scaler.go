// Package scaler implements PreScaler's Decision Maker: the decision-tree
// search that determines, for every memory object of a profiled program,
// the target precision and per-transfer-event conversion method that
// minimize whole-program execution time subject to a target output
// quality (TOQ).
//
// The search follows Section 4.4 of the paper:
//
//  1. A pre-full-precision pass tries the uniform configurations (all
//     objects double/single/half, best direct conversion methods from the
//     inspector database) and uses the fastest TOQ-passing one as the
//     initial configuration, reducing the risk of a local minimum.
//  2. Objects are visited in descending order of effective execution time
//     (profiled transfer time + time of kernels binding the object).
//  3. For each object, the normal search (Algorithm 1, lines 1-13) tries
//     the available target types in descending precision with the best
//     direct conversion plan per event predicted from the inspector
//     database (Algorithm 2 restricted to intermediates in {original,
//     target}); search stops at the first TOQ failure.
//  4. The wildcard test (lines 14-32) then considers transient
//     conversions through any accepted intermediate type plus the failed
//     type, using expected transfer times from the database instead of
//     execution; an actual validation run is only spent when the failed
//     type appears as an intermediate.
//
// Trial counting and the Equation 1-3 search-space sizes are tracked so
// the Figure 10(b) experiment can be regenerated.
package scaler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/convert"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/inspect"
	"repro/internal/obs"
	"repro/internal/ocl"
	"repro/internal/precision"
	"repro/internal/profile"
	"repro/internal/prog"
)

// Options tunes a search.
type Options struct {
	// TOQ is the target output quality in [0, 1]; the paper's default is
	// 0.90.
	TOQ float64
	// InputSet selects the input data distribution.
	InputSet prog.InputSet
	// DisableWildcard turns off the wildcard test (Algorithm 1 lines
	// 14-32), leaving only the normal direct-conversion search. Used by
	// the ablation experiments.
	DisableWildcard bool
	// DisableFullPrecisionPass turns off the pre-full-precision initial
	// type setting (Section 4.4.1), starting the decision tree from the
	// original precision instead. Used by the ablation experiments.
	DisableFullPrecisionPass bool
	// Obs attaches an observer: every pipeline stage and trial becomes a
	// span, trial/TOQ/prediction metrics are recorded, and the decision
	// journal is filled for the explain report. Nil (the default) makes
	// every instrumentation point a no-op; the search's decisions are
	// identical either way.
	Obs *obs.Observer
	// Workers bounds the number of goroutines used to execute independent
	// candidate trials speculatively (the uniform configurations of the
	// pre-full-precision pass, the per-object normal-search candidates,
	// and the wildcard predicted-plan scoring). 0 or 1 runs everything
	// sequentially. The search itself stays sequential: speculative
	// results are consumed by the unchanged decision loop in fixed
	// precision order and their observability side effects are replayed at
	// the point the sequential schedule would have produced them, so trial
	// counts, the chosen configuration, and every trace/metrics/journal
	// artifact are bit-identical for any Workers value (see DESIGN.md,
	// "Determinism under parallelism").
	Workers int
	// Retries bounds how many times a trial whose execution failed with a
	// transient runtime fault (see internal/fault) is re-attempted before
	// the candidate is abandoned. Each retry runs under a fresh fault salt
	// after a deterministic backoff accounted on the virtual clock. With
	// fault injection off the runtime never fails transiently, so the
	// value is inert. A candidate that exhausts its retries (or hits a
	// non-transient fault) is treated exactly like a TOQ failure: the
	// search degrades around it instead of aborting. Normalize rejects
	// values above maxRetries.
	Retries int
	// EvalCache, when non-nil, shares op-level results across every trial
	// of the search (and across speculative workers): program ops whose
	// inputs match a previously recorded execution are spliced from the
	// cache with bit-identical outputs, events, and timing, so a trial
	// that differs from a prior one in a single object re-executes only
	// the ops that object reaches. Results and all observability
	// artifacts are byte-identical with or without a cache (see
	// DESIGN.md, "Incremental trial evaluation"); only wall-clock time
	// changes. The cache binds to one (system, workload) pair on first
	// use — pass a fresh prog.NewEvalCache() per search, or leave it nil
	// and let Normalize allocate one.
	EvalCache *prog.EvalCache
	// Seed, when non-nil, warm-starts the search from a previous
	// decision on the same workload: the pre-full-precision pass and the
	// full per-object descent are replaced by a single seed trial plus a
	// re-search of only the objects whose error contribution moved (or a
	// TOQ-repair climb when the seed no longer passes). A nil Seed — the
	// default — leaves the search byte-identical to the cold pipeline.
	// See internal/scaler/warm.go.
	Seed *Seed
	// Progress, when non-nil, receives a ProgressEvent at every search
	// milestone: search start, the profiling run, every candidate trial
	// (with its quality vs TOQ), each object's decision, and the final
	// result. Events are emitted from the sequential decision loop only,
	// in deterministic order at any Workers value, and the hook has no
	// effect on the search outcome — it is a side channel, like Obs. The
	// hook must not block: the decision service fans events out to SSE
	// subscribers from it, and cmd/prescaler -progress prints them.
	Progress func(ProgressEvent)
}

// DefaultOptions returns the paper's evaluation settings.
func DefaultOptions() Options {
	return Options{TOQ: 0.90, InputSet: prog.InputDefault, Retries: 2}
}

// retryBackoff is the simulated delay in seconds before a trial's first
// retry; successive retries double it.
const retryBackoff = 1e-3

// maxRetries bounds Options.Retries. Every attempt of a trial that keeps
// failing holds the caller's worker, and the doubled backoff overflows
// its shift past 63 attempts, so a request for more is rejected.
const maxRetries = 16

// ErrProfiling marks a search that failed during application profiling.
// Profiling failure is fatal — without a profile and quality reference
// there is no known-safe configuration to degrade to — so this is the
// one place runtime faults escape Search without a fallback. The
// underlying *ocl.Error (and its class sentinel, e.g. ocl.ErrDeviceLost)
// stays reachable through the chain.
var ErrProfiling = errors.New("scaler: profiling failed for")

// ErrUnsupported marks a search that cannot run at all on the target
// system because the device executes no precision at or below the
// workload's original type.
var ErrUnsupported = errors.New("scaler: unsupported workload")

// TrialError reports that a candidate configuration could not be
// executed because of runtime faults: every bounded retry failed, or a
// non-transient fault (device lost, allocation failure) made retrying
// pointless. Callers inside the search treat it as a TOQ failure for
// that candidate; it escapes Search only if even the baseline
// configuration cannot run.
type TrialError struct {
	// Label names the trial, matching its trace span.
	Label string
	// Attempts is the number of executions tried.
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("scaler: trial %q failed after %d attempt(s): %v", e.Label, e.Attempts, e.Err)
}

func (e *TrialError) Unwrap() error { return e.Err }

// IsTrialFailure reports whether err marks a candidate that could not
// be executed (retries exhausted or a non-transient fault), which the
// search layers treat as a failed — not fatal — trial.
func IsTrialFailure(err error) bool {
	var te *TrialError
	return errors.As(err, &te)
}

// isPanicError reports whether err wraps a recovered panic.
func isPanicError(err error) bool {
	var pe *fault.PanicError
	return errors.As(err, &pe)
}

// faultOp extracts a short label for the failed operation, for metrics.
func faultOp(err error) string {
	var oe *ocl.Error
	if errors.As(err, &oe) {
		return oe.Op
	}
	if isPanicError(err) {
		return "panic"
	}
	return "other"
}

// trialRecord memoizes one executed configuration.
type trialRecord struct {
	res     *prog.Result
	quality float64
}

// specTrial is one speculatively executed configuration: the run result
// plus the buffers the run created, which together are enough to replay
// the run's observability side effects during the deterministic merge.
type specTrial struct {
	res  *prog.Result
	bufs []*ocl.Buffer
}

// bufRecorder captures created buffers during a speculative run so the
// merge can replay BufferCreated callbacks into the real observer.
type bufRecorder struct{ bufs []*ocl.Buffer }

func (r *bufRecorder) BufferCreated(b *ocl.Buffer) { r.bufs = append(r.bufs, b) }
func (r *bufRecorder) EventRecorded(ocl.Event)     {}

// Scaler runs the decision-maker search for one workload on one system.
type Scaler struct {
	sys  *hw.System
	db   *inspect.DB
	w    *prog.Workload
	opts Options

	// ctx is the Search call's context, polled at every trial boundary
	// (the points where the virtual clock advances) so an in-flight
	// search aborts within one trial of cancellation.
	ctx context.Context

	info     *profile.AppInfo
	ref      *prog.Result
	refNames []string

	trials int
	keys   *configKeyer
	memo   map[string]*trialRecord
	spec   map[string]*specTrial
	warm   *WarmReport
}

// New creates a scaler. The inspector database must belong to sys.
func New(sys *hw.System, db *inspect.DB, w *prog.Workload, opts Options) *Scaler {
	if opts.TOQ == 0 {
		opts.TOQ = 0.90
	}
	return &Scaler{sys: sys, db: db, w: w, opts: opts, keys: newConfigKeyer(w),
		memo: map[string]*trialRecord{}, spec: map[string]*specTrial{}}
}

// speculate executes the not-yet-memoized configurations among cfgs
// concurrently, caching each run for the sequential decision loop to
// consume via runTrial. Each worker iteration runs on its own cloned
// system so no hardware-model state is shared; the observer sees nothing
// here — side effects are replayed at merge time. Runs the sequential
// schedule would never reach are simply discarded, and speculative
// errors are dropped: the failing configuration re-executes lazily (and
// fails identically) only if the sequential path actually asks for it.
func (s *Scaler) speculate(cfgs []*prog.Config) {
	if s.opts.Workers <= 1 {
		return
	}
	// A canceled search must not fan out new work; the sequential loop
	// will notice the cancellation at its next trial boundary.
	if s.checkCtx() != nil {
		return
	}
	var todo []*prog.Config
	var keys []string
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		key := s.keys.key(cfg)
		if seen[key] {
			continue
		}
		if _, ok := s.memo[key]; ok {
			continue
		}
		if _, ok := s.spec[key]; ok {
			continue
		}
		seen[key] = true
		todo = append(todo, cfg)
		keys = append(keys, key)
	}
	if len(todo) < 2 {
		return
	}
	results := make([]*specTrial, len(todo))
	run := func(i int) {
		rec := &bufRecorder{}
		// Workers share the mutex-guarded EvalCache: a speculative run
		// both consumes and seeds op entries. Discarded runs may leave
		// entries behind — they are interchangeable with what a live run
		// would record, so results stay schedule-independent (only the
		// hit/miss split varies). A panicking worker is isolated the same
		// way a failing one is: its run is dropped and re-executes (and
		// fails identically, now surfaced) on the sequential path.
		var res *prog.Result
		err := fault.Guard(func() error {
			r, e := prog.RunWithCache(s.sys.Clone(), s.w, s.opts.InputSet, todo[i], s.opts.EvalCache, rec)
			res = r
			return e
		})
		if err != nil {
			return
		}
		results[i] = &specTrial{res: res, bufs: rec.bufs}
	}
	// Each worker writes only its own runs' slots.
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(s.opts.Workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				run(i)
			}
		}()
	}
	for i := range todo {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, st := range results {
		if st != nil {
			s.spec[keys[i]] = st
		}
	}
}

// Result reports the outcome of a search.
type Result struct {
	// Config is the chosen scaling configuration.
	Config *prog.Config
	// Final is the measured execution of Config.
	Final *prog.Result
	// Quality is Final's output quality against the double reference.
	Quality float64
	// BaselineTime is the unscaled program time.
	BaselineTime float64
	// Speedup is BaselineTime / Final.Total.
	Speedup float64
	// Trials is the number of actual program executions performed,
	// including the profiling run.
	Trials int
	// SearchSpace is the Equation 1 size of the full configuration space.
	SearchSpace float64
	// TreeSpace is the Equation 2 size after the decision-tree reduction.
	TreeSpace float64
	// PredictedSpace is the Equation 3 bound after inspector-based method
	// prediction.
	PredictedSpace float64
	// Info is the application profile the search used.
	Info *profile.AppInfo
	// Warm describes the warm-start outcome when Options.Seed was set;
	// nil for cold searches.
	Warm *WarmReport
}

// availableTypes returns the precisions the device supports, in
// descending precision order starting from the original.
func (s *Scaler) availableTypes() []precision.Type {
	var out []precision.Type
	for _, t := range precision.Descending {
		if t > s.w.Original {
			continue
		}
		if s.sys.GPU.Supports(t) {
			out = append(out, t)
		}
	}
	return out
}

// configKeyer builds canonical memoization keys for one workload's
// configurations. The sorted object-name list is computed once per
// search, and keys use a compact binary encoding (precision/method
// bytes, little-endian thread counts) instead of formatted text. key
// writes no shared state, so concurrent scoring loops may call it.
type configKeyer struct {
	names []string
}

func newConfigKeyer(w *prog.Workload) *configKeyer {
	names := make([]string, 0, len(w.Objects))
	for _, o := range w.Objects {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	return &configKeyer{names: names}
}

func (k *configKeyer) key(c *prog.Config) string {
	n := 0
	for _, name := range k.names {
		n += len(name) + 5 + 4*len(c.Objects[name].Plans)
	}
	b := make([]byte, 0, n)
	for _, name := range k.names {
		oc := c.Objects[name]
		b = append(b, name...)
		ik := byte(0)
		if oc.InKernel {
			ik = 1
		}
		b = append(b, 0, byte(oc.Target), ik, byte(len(oc.Plans)))
		for _, p := range oc.Plans {
			b = append(b, byte(p.Host), byte(p.Mid), byte(p.Threads), byte(p.Threads>>8))
		}
		b = append(b, ';')
	}
	return string(b)
}

// configKey builds a canonical memoization key for a configuration: the
// one-shot form of configKeyer, kept for tests and external callers.
func configKey(w *prog.Workload, c *prog.Config) string {
	return newConfigKeyer(w).key(c)
}

// checkCtx reports whether the search's context has been canceled,
// wrapping the cause so callers can match it with errors.Is
// (context.Canceled / context.DeadlineExceeded). It is the single
// cancellation point of the search: every trial boundary funnels
// through it.
func (s *Scaler) checkCtx() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		if cause := context.Cause(s.ctx); cause != nil {
			err = cause
		}
		return fmt.Errorf("scaler: search %s canceled after %d trial(s): %w", s.w.Name, s.trials, err)
	}
	return nil
}

// runTrial executes cfg (memoized) and returns its record plus whether
// it was served from the memo. New executions increment the trial
// counter. The label names the trial's span in the trace. The search
// context is checked first, so a canceled search aborts at the next
// trial boundary without touching the runtime.
func (s *Scaler) runTrial(cfg *prog.Config, label string) (*trialRecord, bool, error) {
	if err := s.checkCtx(); err != nil {
		return nil, false, err
	}
	o := s.opts.Obs
	tr := o.Tracer()
	key := s.keys.key(cfg)
	if rec, ok := s.memo[key]; ok {
		o.Metrics().Counter("trials_memoized").Inc()
		// Span attributes (the config summary string in particular) are
		// only computed when a tracer is actually attached.
		if tr != nil {
			sp := tr.Start("trial "+label, "trial", obs.A("config", summarizeConfig(s.w, cfg)))
			sp.SetAttr("memoized", true)
			tr.End(sp)
		}
		s.progress(ProgressEvent{
			Kind: "trial", Label: label, Trial: s.trials, Quality: rec.quality,
			SimMs: rec.res.Total * 1e3, Memoized: true, Verdict: s.trialVerdict(rec.quality),
		})
		return rec, true, nil
	}
	var sp *obs.Span
	if tr != nil {
		sp = tr.Start("trial "+label, "trial", obs.A("config", summarizeConfig(s.w, cfg)))
	}
	var res *prog.Result
	if st, ok := s.spec[key]; ok {
		// Consume a speculative run: replay its runtime callbacks through a
		// hook created now, i.e. at the exact virtual-clock position a live
		// run would have used, so traces and metrics come out identical.
		// BufferCreated emits only order-independent counters, so replaying
		// all buffers before the ordered event stream is equivalent to the
		// original interleaving.
		delete(s.spec, key)
		if h := o.RunHook(); h != nil {
			for _, b := range st.bufs {
				h.BufferCreated(b)
			}
			for _, e := range st.res.Events {
				h.EventRecorded(e)
			}
		}
		res = st.res
	} else {
		err := s.retryFaults(label, func() error {
			r, e := prog.RunWithCache(s.sys, s.w, s.opts.InputSet, cfg, s.opts.EvalCache, o.RunHook())
			if e != nil {
				return e
			}
			res = r
			return nil
		})
		if err != nil {
			if sp != nil {
				sp.SetAttr("error", err.Error())
				tr.End(sp)
			}
			s.progress(ProgressEvent{Kind: "trial", Label: label, Trial: s.trials, Verdict: "exec-fail"})
			return nil, false, err
		}
	}
	s.trials++
	rec := &trialRecord{res: res, quality: s.quality(res)}
	s.memo[key] = rec
	o.Advance(res.Total)
	if sp != nil {
		sp.SetAttr("total_ms", res.Total*1e3)
		sp.SetAttr("quality", rec.quality)
		tr.End(sp)
	}
	m := o.Metrics()
	m.Counter("trials_executed").Inc()
	if rec.quality >= s.opts.TOQ {
		m.Counter("toq_outcome", obs.L("result", "pass")).Inc()
	} else {
		m.Counter("toq_outcome", obs.L("result", "fail")).Inc()
	}
	s.progress(ProgressEvent{
		Kind: "trial", Label: label, Trial: s.trials, Quality: rec.quality,
		SimMs: rec.res.Total * 1e3, Verdict: s.trialVerdict(rec.quality),
	})
	return rec, false, nil
}

// retryFaults executes fn — one simulated program run, panic-isolated —
// with bounded retries. A transient injected fault or a recovered panic
// is retried under a fresh per-attempt fault salt (base+attempt, so the
// deterministic decision stream is re-drawn instead of repeating) after
// a deterministic exponential backoff accounted on the observer's
// virtual clock. A non-transient fault (device lost, allocation
// failure) or retry exhaustion returns a *TrialError, which callers
// treat as a TOQ failure for the candidate; any non-fault error is a
// programming error and is returned as-is to abort the search.
func (s *Scaler) retryFaults(label string, fn func() error) error {
	o := s.opts.Obs
	baseSalt := s.sys.FaultSalt
	defer func() { s.sys.FaultSalt = baseSalt }()
	for attempt := 0; ; attempt++ {
		if err := s.checkCtx(); err != nil {
			return err
		}
		s.sys.FaultSalt = baseSalt + uint64(attempt)
		err := fault.Guard(fn)
		if err == nil {
			return nil
		}
		if !ocl.IsFault(err) {
			return err
		}
		m := o.Metrics()
		m.Counter("trial_faults", obs.L("op", faultOp(err))).Inc()
		retryable := ocl.IsTransient(err) || isPanicError(err)
		if !retryable || attempt >= s.opts.Retries {
			m.Counter("trials_failed").Inc()
			if j := o.Journal(); j != nil {
				j.Note("trial %s abandoned after %d attempt(s): %v", label, attempt+1, err)
			}
			return &TrialError{Label: label, Attempts: attempt + 1, Err: err}
		}
		d := retryBackoff * float64(uint64(1)<<uint(attempt))
		if tr := o.Tracer(); tr != nil {
			tr.Emit("retry "+label, "fault", obs.RowPipeline, tr.Now(), d,
				obs.A("attempt", attempt+1), obs.A("error", err.Error()))
		}
		o.Advance(d)
		m.Counter("trial_retries").Inc()
		if j := o.Journal(); j != nil {
			j.Note("trial %s: transient fault (%v); retry %d/%d after %.2gms backoff",
				label, err, attempt+1, s.opts.Retries, d*1e3)
		}
	}
}

// quality evaluates res against the reference, reusing the sorted output
// name list across the search's trials (runTrial is sequential, so the
// lazy initialization is unsynchronized by design). The EvalCache
// memoizes the score, so a warm search scores only outputs its cache has
// not scored against this reference.
func (s *Scaler) quality(res *prog.Result) float64 {
	if s.refNames == nil {
		s.refNames = prog.SortedOutputNames(s.ref)
	}
	return s.opts.EvalCache.Quality(s.refNames, s.ref, res)
}

// summarizeConfig renders a compact object:type summary for span
// attributes, in declaration order.
func summarizeConfig(w *prog.Workload, c *prog.Config) string {
	var b strings.Builder
	for i, o := range w.Objects {
		if i > 0 {
			b.WriteByte(' ')
		}
		oc := c.Objects[o.Name]
		t := oc.Target
		if !t.Valid() {
			t = w.Original
		}
		fmt.Fprintf(&b, "%s:%s", o.Name, t)
		if oc.InKernel {
			b.WriteString("(ik)")
		}
	}
	return b.String()
}

// describePlans renders the per-event conversion classes of plans for
// journal notes, e.g. "ev0:host ev1:transient(via half)".
func describePlans(plans []convert.Plan, hostType, storage precision.Type) string {
	var b strings.Builder
	for i, p := range plans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "ev%d:%s", i, p.Class(hostType, storage))
		if p.Mid != hostType && p.Mid != storage {
			fmt.Fprintf(&b, "(via %s)", p.Mid)
		}
	}
	return b.String()
}

// bestDirectPlans fills plans for every transfer event of object obj at
// target type using only direct intermediates {original, target}
// (Algorithm 2 with the transient path disabled, as in the normal
// search).
func (s *Scaler) bestDirectPlans(obj *profile.ObjectInfo, target precision.Type) []convert.Plan {
	return s.bestPlans(obj, target, []precision.Type{s.w.Original, target})
}

// bestPlans fills plans for every transfer event of obj at target using
// the inspector database over the given intermediate candidates
// (Algorithm 2).
func (s *Scaler) bestPlans(obj *profile.ObjectInfo, target precision.Type, mids []precision.Type) []convert.Plan {
	plans := make([]convert.Plan, len(obj.Transfers))
	for i, ev := range obj.Transfers {
		p, _ := s.db.BestPlan(ev.Dir, ev.Elems, s.w.Original, target, mids)
		plans[i] = p
	}
	return plans
}

// expectedObjTransfer sums the database-predicted time of obj's transfer
// events under the given plans (getExpectedTransferTime in Algorithm 1).
func (s *Scaler) expectedObjTransfer(obj *profile.ObjectInfo, target precision.Type, plans []convert.Plan) float64 {
	var sum float64
	for i, ev := range obj.Transfers {
		sum += s.db.Estimate(ev.Dir, ev.Elems, s.w.Original, target, plans[i])
	}
	return sum
}

// measuredObjTransfer sums the measured durations of obj's transfer ops
// in a result.
func measuredObjTransfer(res *prog.Result, obj string) float64 {
	var sum float64
	for _, op := range res.Ops {
		if (op.Kind == prog.OpWrite || op.Kind == prog.OpRead) && op.Object == obj {
			sum += op.Duration
		}
	}
	return sum
}

// Search runs the full decision-maker pipeline and returns the chosen
// configuration with its measurements. The context is checked at every
// trial boundary (profiling, each candidate trial, each retry backoff):
// canceling it aborts the search within one trial and returns an error
// matching errors.Is(err, context.Canceled) — or the context's cause —
// so servers can cancel in-flight searches on client disconnect. A nil
// context behaves like context.Background().
func (s *Scaler) Search(ctx context.Context) (*Result, error) {
	s.ctx = ctx
	if err := s.checkCtx(); err != nil {
		return nil, err
	}
	o := s.opts.Obs
	tr := o.Tracer()
	j := o.Journal()
	root := tr.Start("search "+s.w.Name, "pipeline",
		obs.A("system", s.sys.Name), obs.A("toq", s.opts.TOQ))
	if j != nil {
		j.Workload, j.System, j.TOQ = s.w.Name, s.sys.Name, s.opts.TOQ
	}
	s.progress(ProgressEvent{Kind: "start"})

	// Application profiling (also the baseline trial and quality
	// reference). The profiling run is retried like any trial, but its
	// failure is fatal: without a profile and a quality reference there is
	// no known-safe configuration to degrade to.
	spProf := tr.Start("profile", "pipeline")
	var (
		info *profile.AppInfo
		ref  *prog.Result
	)
	err := s.retryFaults("profile", func() error {
		i, r, e := profile.Profile(s.sys, s.w, s.opts.InputSet, s.opts.EvalCache, o.RunHook())
		if e != nil {
			return e
		}
		info, ref = i, r
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrProfiling, s.w.Name, err)
	}
	o.Advance(ref.Total)
	tr.End(spProf)
	s.info, s.ref = info, ref
	s.trials = 1
	o.Metrics().Counter("trials_executed").Inc()
	s.memo[s.keys.key(prog.Baseline(s.w))] = &trialRecord{res: ref, quality: 1}
	s.progress(ProgressEvent{
		Kind: "profile", Trial: 1, Quality: 1, SimMs: ref.Total * 1e3, Verdict: "pass",
	})
	if j != nil {
		j.BaselineTotal = ref.Total
		for i := range info.Objects {
			j.VisitOrder = append(j.VisitOrder, info.Objects[i].Name)
		}
	}

	types := s.availableTypes()
	if len(types) == 0 {
		return nil, fmt.Errorf("%w: device supports no precision at or below %v", ErrUnsupported, s.w.Original)
	}

	// Pre-full-precision scaling: pick the fastest TOQ-passing uniform
	// configuration as the starting point. A warm-started search (a
	// session re-scaling after input drift) replaces the pass and the
	// full descent with the seeded pipeline in warm.go.
	current := prog.Baseline(s.w)
	if s.opts.Seed != nil && s.opts.Seed.Config != nil {
		spWarm := tr.Start("warm-start", "pipeline")
		current, err = s.warmSearch(types)
		tr.End(spWarm)
		if err != nil {
			return nil, err
		}
	} else {
		if !s.opts.DisableFullPrecisionPass {
			spPass := tr.Start("pre-fp-pass", "pipeline")
			current, err = s.fullPrecisionPass(types)
			tr.End(spPass)
			if err != nil {
				return nil, err
			}
		}

		// Decision-tree search over objects in descending effective time.
		for i := range s.info.Objects {
			obj := &s.info.Objects[i]
			spObj := tr.Start("object "+obj.Name, "pipeline",
				obs.A("effective_ms", obj.EffectiveTime*1e3))
			chosen, err := s.searchObject(current, obj, types)
			tr.End(spObj)
			if err != nil {
				return nil, err
			}
			current = chosen
			target := current.Objects[obj.Name].Target
			if !target.Valid() {
				target = s.w.Original
			}
			s.progress(ProgressEvent{
				Kind: "object", Object: obj.Name, Target: target.String(),
				Trial: s.trials, Verdict: "chosen",
			})
		}
	}

	// Final measurement (memoized when the last accepted configuration
	// was already executed). Two degradation ladders share the fallback
	// chain: a final config that misses TOQ (an unvalidated wildcard
	// slipped through — rare) and a final config that cannot execute at
	// all (fault injection). Either way the search falls back to the best
	// known-safe configuration instead of aborting: first transient
	// conversions are stripped, and if even that cannot run, the baseline
	// configuration — whose profiling run is memoized and therefore
	// always available — is returned.
	spFinal := tr.Start("validation", "pipeline")
	final, _, err := s.runTrial(current, "final")
	if err != nil {
		if !IsTrialFailure(err) {
			return nil, err
		}
		if j != nil {
			j.FallbackUsed = true
			j.Note("final configuration failed to execute (%v): falling back to best-known-safe config", err)
		}
		o.Metrics().Counter("final_fallbacks").Inc()
		current, final, err = s.fallbackSafe(current)
		if err != nil {
			return nil, err
		}
	}
	if final.quality < s.opts.TOQ {
		if j != nil {
			j.FallbackUsed = true
			j.Note("final configuration missed TOQ (%.4f < %.2f): stripping transient conversions and revalidating",
				final.quality, s.opts.TOQ)
		}
		o.Metrics().Counter("final_fallbacks").Inc()
		current, final, err = s.fallbackSafe(current)
		if err != nil {
			return nil, err
		}
	}
	tr.End(spFinal)

	res := &Result{
		Config:       current,
		Final:        final.res,
		Quality:      final.quality,
		BaselineTime: ref.Total,
		Trials:       s.trials,
		Info:         info,
		Warm:         s.warm,
	}
	if final.res.Total > 0 {
		res.Speedup = ref.Total / final.res.Total
	}
	res.SearchSpace, res.TreeSpace, res.PredictedSpace = s.SearchSpace()
	tr.End(root)
	s.recordOutcome(res, j)
	s.progress(ProgressEvent{
		Kind: "final", Trial: res.Trials, Quality: res.Quality,
		SimMs: res.Final.Total * 1e3, Verdict: s.trialVerdict(res.Quality),
		Speedup: res.Speedup,
	})
	return res, nil
}

// fallbackSafe degrades toward the best-known-safe configuration: first
// cfg with its transient conversions stripped, and — if that cannot
// execute either — the baseline configuration, whose record is memoized
// from the profiling run and therefore always served without touching
// the (possibly failing) runtime.
func (s *Scaler) fallbackSafe(cfg *prog.Config) (*prog.Config, *trialRecord, error) {
	o := s.opts.Obs
	cur := s.stripTransients(cfg)
	final, _, err := s.runTrial(cur, "fallback")
	if err == nil {
		return cur, final, nil
	}
	if !IsTrialFailure(err) {
		return nil, nil, err
	}
	if j := o.Journal(); j != nil {
		j.Note("fallback configuration failed to execute (%v): reverting to the baseline configuration", err)
	}
	o.Metrics().Counter("final_fallbacks").Inc()
	cur = prog.Baseline(s.w)
	final, _, err = s.runTrial(cur, "fallback-baseline")
	if err != nil {
		return nil, nil, err
	}
	return cur, final, nil
}

// recordOutcome fills the journal summary and the final-configuration
// metrics (trial bounds, chosen precisions, conversion classes).
func (s *Scaler) recordOutcome(res *Result, j *obs.Journal) {
	m := s.opts.Obs.Metrics()
	if j != nil {
		j.FinalTotal = res.Final.Total
		j.FinalQuality = res.Quality
		j.Speedup = res.Speedup
		j.Trials = res.Trials
		j.SearchSpace, j.TreeSpace, j.PredictedSpace = res.SearchSpace, res.TreeSpace, res.PredictedSpace
		for _, o := range j.Objects {
			oc := res.Config.Objects[o.Name]
			storage := oc.Target
			if oc.InKernel {
				storage = s.w.Original
			}
			o.Chosen = oc.Target.String()
			o.ChosenPlans = describePlans(oc.Plans, s.w.Original, storage)
		}
	}
	if m == nil {
		return
	}
	m.Gauge("search_space", obs.L("eq", "entire")).Set(res.SearchSpace)
	m.Gauge("search_space", obs.L("eq", "tree")).Set(res.TreeSpace)
	m.Gauge("search_space", obs.L("eq", "predicted")).Set(res.PredictedSpace)
	m.Gauge("search_trials").Set(float64(res.Trials))
	m.Gauge("search_speedup").Set(res.Speedup)
	m.Gauge("search_quality").Set(res.Quality)
	for _, spec := range s.w.Objects {
		oc := res.Config.Objects[spec.Name]
		t := oc.Target
		if !t.Valid() {
			t = s.w.Original
		}
		m.Counter("object_precision", obs.L("type", t.String())).Inc()
		storage := t
		if oc.InKernel {
			storage = s.w.Original
		}
		for _, p := range oc.Plans {
			m.Counter("conversion_method", obs.L("class", p.Class(s.w.Original, storage))).Inc()
		}
	}
}

// fullPrecisionPass implements Section 4.4.1: evaluate uniform
// configurations and return the fastest one that meets the TOQ.
func (s *Scaler) fullPrecisionPass(types []precision.Type) (*prog.Config, error) {
	j := s.opts.Obs.Journal()
	var pass *obs.PassNote
	if j != nil {
		pass = &obs.PassNote{}
		j.PreFP = pass
	}
	// Build every uniform candidate up front and execute the unknown ones
	// speculatively in parallel; the decision loop below is unchanged and
	// consumes the results in fixed (descending precision) order, so the
	// early break on the first TOQ failure still bounds the trial count —
	// speculative runs past the break point are discarded unconsumed.
	cfgs := make([]*prog.Config, len(types))
	for i, t := range types {
		cfgs[i] = s.uniformConfig(t)
	}
	s.speculate(cfgs)
	var best *prog.Config
	var bestT precision.Type
	var bestTime float64
	for i, t := range types {
		cfg := cfgs[i]
		rec, cached, err := s.runTrial(cfg, "uniform "+t.String())
		if err != nil {
			if !IsTrialFailure(err) {
				return nil, err
			}
			// A candidate that cannot execute is treated as a TOQ failure:
			// assume monotonicity and stop the pass here.
			if pass != nil {
				pass.Attempts = append(pass.Attempts, obs.TrialNote{
					Target: "all-" + t.String(), Verdict: "exec-fail",
				})
			}
			break
		}
		note := obs.TrialNote{
			Target: "all-" + t.String(), Total: rec.res.Total,
			Quality: rec.quality, Cached: cached,
		}
		if rec.quality < s.opts.TOQ {
			// Assume monotonicity: lower precisions will not recover.
			if pass != nil {
				note.Verdict = "toq-fail"
				pass.Attempts = append(pass.Attempts, note)
			}
			break
		}
		if best == nil || rec.res.Total < bestTime {
			best, bestT, bestTime = cfg, t, rec.res.Total
			note.Verdict = "best-so-far"
		} else {
			note.Verdict = "slower"
		}
		if pass != nil {
			pass.Attempts = append(pass.Attempts, note)
		}
	}
	if best == nil {
		best = prog.Baseline(s.w)
		bestT = s.w.Original
	}
	if pass != nil {
		pass.Chosen = bestT.String()
	}
	return best, nil
}

// uniformConfig builds the all-objects-at-t configuration with best
// direct conversion plans.
func (s *Scaler) uniformConfig(t precision.Type) *prog.Config {
	cfg := prog.NewConfig(s.w, t)
	for i := range s.info.Objects {
		obj := &s.info.Objects[i]
		cfg.Objects[obj.Name] = prog.ObjectConfig{
			Target: t,
			Plans:  s.bestDirectPlans(obj, t),
		}
	}
	return cfg
}

// searchObject runs Algorithm 1 for one memory object against the
// current configuration and returns the configuration with the object's
// decision applied.
func (s *Scaler) searchObject(current *prog.Config, obj *profile.ObjectInfo, types []precision.Type) (*prog.Config, error) {
	o := s.opts.Obs
	note := o.Journal().Object(obj.Name)
	if note != nil {
		spec := s.w.Object(obj.Name)
		note.Kind = spec.Kind.String()
		note.Elems = spec.Len
		note.EffectiveTime = obj.EffectiveTime
		note.TransferEvents = len(obj.Transfers)
		note.StopReason = "exhausted candidate types"
	}

	// Normal search (lines 1-13).
	var (
		normalBest     *prog.Config
		normalBestTime = math.Inf(1)
		kernelTime     = map[precision.Type]float64{}
		accepted       []precision.Type
		failed         precision.Type
	)
	// The incumbent (object unchanged) is always a valid fallback.
	if rec, ok := s.memo[s.keys.key(current)]; ok {
		normalBest, normalBestTime = current, rec.res.Total
		kernelTime[current.Objects[obj.Name].Target] = rec.res.KernelTime
	}

	// All candidate targets for one object differ only in that object's
	// entry, so their trials are data-independent: execute the unknown
	// ones speculatively in parallel, then let the unchanged sequential
	// loop (with its early break at the first TOQ failure) consume them in
	// descending precision order.
	cands := make([]*prog.Config, len(types))
	for i, target := range types {
		cfg := current.Clone()
		cfg.Objects[obj.Name] = prog.ObjectConfig{
			Target: target,
			Plans:  s.bestDirectPlans(obj, target),
		}
		cands[i] = cfg
	}
	s.speculate(cands)
	for i, target := range types {
		cfg := cands[i]
		plans := cfg.Objects[obj.Name].Plans
		rec, cached, err := s.runTrial(cfg, obj.Name+" "+target.String())
		if err != nil {
			if !IsTrialFailure(err) {
				return nil, err
			}
			// Treat an unexecutable candidate as a TOQ failure: stop the
			// descent here and let the wildcard/fallback logic proceed from
			// what has been accepted so far.
			failed = target
			note.AddAttempt(obs.TrialNote{Target: target.String(), Verdict: "exec-fail"})
			if note != nil {
				note.StopReason = "exec-fail at " + target.String()
			}
			break
		}
		kernelTime[target] = rec.res.KernelTime
		tn := obs.TrialNote{
			Target:            target.String(),
			Plans:             describePlans(plans, s.w.Original, target),
			PredictedTransfer: s.expectedObjTransfer(obj, target, plans),
			MeasuredTransfer:  measuredObjTransfer(rec.res, obj.Name),
			Total:             rec.res.Total,
			Quality:           rec.quality,
			Cached:            cached,
		}
		if !cached && tn.MeasuredTransfer > 0 {
			// Inspector-database prediction accuracy: relative error of the
			// predicted vs measured per-object transfer time.
			relErr := math.Abs(tn.PredictedTransfer-tn.MeasuredTransfer) / tn.MeasuredTransfer
			o.Metrics().Histogram("transfer_prediction_error_rel", nil).Observe(relErr)
		}
		if rec.quality < s.opts.TOQ {
			failed = target
			tn.Verdict = "toq-fail"
			note.AddAttempt(tn)
			if note != nil {
				note.StopReason = "toq-fail at " + target.String()
			}
			break
		}
		accepted = append(accepted, target)
		if rec.res.Total < normalBestTime {
			normalBest, normalBestTime = cfg, rec.res.Total
			tn.Verdict = "best-so-far"
		} else {
			tn.Verdict = "slower"
		}
		note.AddAttempt(tn)
	}
	if normalBest == nil {
		// Nothing passed (can only happen when even the original-precision
		// trial misses TOQ, which the reference run precludes): keep the
		// incumbent.
		if note != nil {
			note.StopReason = "no candidate passed TOQ; incumbent kept"
		}
		return current, nil
	}

	if s.opts.DisableWildcard {
		return normalBest, nil
	}

	// Wildcard test (lines 14-32): allow transient intermediates drawn
	// from the accepted set plus the failed type.
	spWild := o.Tracer().Start("wildcard "+obj.Name, "pipeline")
	defer o.Tracer().End(spWild)
	mids := append([]precision.Type(nil), accepted...)
	if failed.Valid() {
		mids = append(mids, failed)
	}
	var wild *obs.WildcardNote
	if note != nil {
		wild = &obs.WildcardNote{}
		for _, m := range mids {
			wild.Mids = append(wild.Mids, m.String())
		}
		note.Wildcard = wild
	}
	var (
		wildBest     *prog.Config
		wildBestTime = math.Inf(1)
		wildUsesFail bool
		wildNote     obs.TrialNote
	)
	// Score the accepted targets in accepted order and keep the first
	// strict minimum. Each score is a few inspector-database queries and a
	// memo read; the candidate config is cloned only when it improves.
	for _, target := range accepted {
		// Expected time: the normal-search measurement for this target
		// with the object's transfer time replaced by the database
		// prediction for the wildcard plans.
		normalCfg := current.Clone()
		normalCfg.Objects[obj.Name] = prog.ObjectConfig{Target: target, Plans: s.bestDirectPlans(obj, target)}
		normalRec, ok := s.memo[s.keys.key(normalCfg)]
		if !ok {
			continue
		}
		plans := s.bestPlans(obj, target, mids)
		predicted := s.expectedObjTransfer(obj, target, plans)
		expected := normalRec.res.Total - measuredObjTransfer(normalRec.res, obj.Name) + predicted
		if expected < wildBestTime {
			wildBest, wildBestTime = current.Clone(), expected
			wildBest.Objects[obj.Name] = prog.ObjectConfig{Target: target, Plans: plans}
			wildUsesFail = failed.Valid() && plansUseMid(plans, failed, s.w.Original, target)
			wildNote = obs.TrialNote{
				Target:            target.String(),
				Plans:             describePlans(plans, s.w.Original, target),
				PredictedTransfer: predicted,
				Total:             expected,
				Predicted:         true,
				Verdict:           "predicted",
			}
		}
	}

	if wildBest != nil && wildBestTime < normalBestTime {
		if wildUsesFail {
			// The failed type appears as a transient intermediate: a real
			// accuracy check is required (lines 24-28).
			rec, cached, err := s.runTrial(wildBest, obj.Name+" wildcard")
			if err != nil {
				if !IsTrialFailure(err) {
					return nil, err
				}
				// The validation run could not execute: reject the wildcard
				// and keep the validated normal-search result.
				if wild != nil {
					wildNote.Verdict = "rejected"
					wild.UsedFailedType = true
					wild.Best = &wildNote
					wild.Reason = "validation trial failed to execute; normal-search result kept"
				}
				return normalBest, nil
			}
			if wild != nil {
				wildNote.Predicted = false
				wildNote.Total = rec.res.Total
				wildNote.Quality = rec.quality
				wildNote.Cached = cached
				wildNote.MeasuredTransfer = measuredObjTransfer(rec.res, obj.Name)
				wild.UsedFailedType = true
				wild.Validated = true
				wild.Best = &wildNote
			}
			if rec.quality < s.opts.TOQ {
				if wild != nil {
					wildNote.Verdict = "rejected"
					wild.Reason = fmt.Sprintf("validation failed TOQ (%.4f); normal-search result kept", rec.quality)
				}
				return normalBest, nil
			}
			if wild != nil {
				wildNote.Verdict = "validated"
				wild.Accepted = true
				wild.Reason = "validated transient plan accepted"
			}
			if note != nil {
				note.StopReason += "; wildcard win (validated)"
			}
			return wildBest, nil
		}
		if wild != nil {
			wildNote.Verdict = "accepted"
			wild.Best = &wildNote
			wild.Accepted = true
			wild.Reason = "predicted faster than normal search; no failed-type intermediate, accepted without validation"
		}
		if note != nil {
			note.StopReason += "; wildcard win (predicted)"
		}
		return wildBest, nil
	}
	if wild != nil {
		if wildBest == nil {
			wild.Reason = "no candidate"
		} else {
			wild.Best = &wildNote
			wild.Reason = fmt.Sprintf("predicted %.6f ms not faster than normal %.6f ms", wildBestTime*1e3, normalBestTime*1e3)
		}
	}
	return normalBest, nil
}

// plansUseMid reports whether any plan routes through mid as a transient
// intermediate (mid differs from both endpoints).
func plansUseMid(plans []convert.Plan, mid, hostType, devType precision.Type) bool {
	for _, p := range plans {
		if p.Mid == mid && mid != hostType && mid != devType {
			return true
		}
	}
	return false
}

// stripTransients replaces every transient plan with the best direct one,
// used as the fallback when an unvalidated wildcard fails the final
// quality check.
func (s *Scaler) stripTransients(cfg *prog.Config) *prog.Config {
	out := cfg.Clone()
	for i := range s.info.Objects {
		obj := &s.info.Objects[i]
		oc := out.Objects[obj.Name]
		target := oc.Target
		replace := false
		for _, p := range oc.Plans {
			if p.Mid != s.w.Original && p.Mid != target {
				replace = true
				break
			}
		}
		if replace {
			oc.Plans = s.bestDirectPlans(obj, target)
			out.Objects[obj.Name] = oc
		}
	}
	return out
}

// SearchSpace returns the Equation 1-3 sizes for the profiled
// application: the entire configuration space, the decision-tree-reduced
// space, and the inspector-predicted space. Following the paper's Figure
// 10(b) note, four conversion methods (loop, multithread, pipelined,
// device-side) and the precision changes below the original are counted.
func (s *Scaler) SearchSpace() (entire, tree, predicted float64) {
	if s.info == nil {
		return 0, 0, 0
	}
	convTypes := float64(len(s.w.Original.Below()))
	const convMethods = 4.0
	entire = 1
	for i := range s.info.Objects {
		events := float64(len(s.info.Objects[i].Transfers))
		term := 1 + convTypes*math.Pow(convMethods, events)
		entire *= term
		tree += term
	}
	predicted = float64(len(s.info.Objects)) * (1 + convTypes)
	return entire, tree, predicted
}

// Trials returns the number of actual executions performed so far.
func (s *Scaler) Trials() int { return s.trials }

// Info returns the application profile (available after Search).
func (s *Scaler) Info() *profile.AppInfo { return s.info }

// Reference returns the baseline result (available after Search).
func (s *Scaler) Reference() *prog.Result { return s.ref }

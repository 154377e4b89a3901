// Package exper regenerates every table and figure of the paper's
// evaluation (Section 3 motivation data and Section 5 results): each
// experiment produces a Table that can be pretty-printed or written as
// CSV, mirroring the artifact's CSV logs. A Runner caches the expensive
// four-technique comparisons so that figures sharing measurements (9, 10,
// 11, 12) do not repeat runs.
package exper

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ocl"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// WriteCSV writes the table as CSV with a leading header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Runner executes experiments over a benchmark suite, caching frameworks
// and measurements. A Runner's exported methods are not goroutine-safe;
// parallelism comes from measure, the one place a measurement task runs:
// it runs the tasks a table needs across Jobs workers and merges them into
// the cache in deterministic task order before the table is built, so
// every rendered table and CSV is byte-identical at any Jobs (see
// DESIGN.md, "Determinism under parallelism").
type Runner struct {
	Suite []*prog.Workload
	// Ctx, when non-nil, is threaded into every framework call so a
	// driver can cancel a whole experiment run (for example on SIGINT);
	// cancellation aborts the in-flight searches within one trial
	// boundary and starts no further task. Nil behaves like
	// context.Background().
	Ctx  context.Context
	fws  map[string]*core.Framework
	done map[string]result
	// Jobs bounds the number of concurrent measurement workers; 0 or 1
	// runs one worker.
	Jobs int
	// Log receives progress lines; nil disables logging. Line order (but
	// not content) varies with Jobs.
	Log   io.Writer
	logMu sync.Mutex
	// Each measurement task gets a fresh prog.EvalCache shared by its
	// trials (a cache binds one system/workload pair, so it cannot
	// outlive the task). noEvalCache, set only by this package's tests,
	// runs every task without one: the reference the cached artifacts
	// must match byte for byte.
	noEvalCache bool
	evalStats   prog.EvalStats
	statsMu     sync.Mutex
	// Faults, when non-nil, injects deterministic runtime faults into
	// every measurement task: each task's system model is cloned with the
	// spec attached before its framework is built. Nil (the default)
	// leaves execution byte-identical to a build without fault support.
	Faults *fault.Spec
	// Retries bounds task-level re-execution after an injected fault or a
	// recovered worker panic escapes the scaler's own retry/fallback
	// ladder (and after faults in the baseline techniques, which have no
	// ladder of their own). Each task attempt gets a distinct fault-salt
	// high word, so retried attempts see fresh fault decisions while
	// attempt 0 stays identical across -j values. Inert when Faults is
	// nil. NewRunner defaults it to 2.
	Retries int
	// Checkpoint, when non-nil, persists each completed measurement task
	// and restores it on a later run instead of re-executing (see
	// Checkpoint).
	Checkpoint *Checkpoint
	// tasksRun / tasksRestored count measurement tasks executed vs served
	// from the checkpoint. Both are mutated only on measure's sequential
	// filter and merge, like the result cache.
	tasksRun      int
	tasksRestored int
}

// ctx returns the runner's base context for framework calls.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// NewRunner creates a runner over the given suite.
func NewRunner(suite []*prog.Workload) *Runner {
	return &Runner{
		Suite:   suite,
		fws:     map[string]*core.Framework{},
		done:    map[string]result{},
		Retries: 2,
	}
}

// TasksRun returns how many measurement tasks were actually executed.
func (r *Runner) TasksRun() int { return r.tasksRun }

// TasksRestored returns how many measurement tasks were served from the
// checkpoint directory instead of executing.
func (r *Runner) TasksRestored() int { return r.tasksRestored }

func (r *Runner) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format+"\n", args...)
}

// cacheFor returns a fresh per-task evaluation cache, or nil for the
// cache-off reference runs.
func (r *Runner) cacheFor() *prog.EvalCache {
	if r.noEvalCache {
		return nil
	}
	return prog.NewEvalCache()
}

// addStats folds one task cache's counters into the runner totals. The
// sums commute, so the totals are independent of worker scheduling.
func (r *Runner) addStats(cache *prog.EvalCache) {
	if cache == nil {
		return
	}
	s := cache.Stats()
	r.statsMu.Lock()
	r.evalStats = r.evalStats.Add(s)
	r.statsMu.Unlock()
}

// EvalStats returns the accumulated incremental-evaluation counters
// across every measurement task run so far.
func (r *Runner) EvalStats() prog.EvalStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.evalStats
}

// fwKey keys the framework cache; jittered variants of a system get
// their own entry. The jitter seed is keyed only when the system jitters:
// a system without jitter never reads it (see ocl.NewQueue), so its
// measurements are those of the same system under any seed.
func fwKey(sys *hw.System) string {
	seed := sys.JitterSeed
	if sys.TimingJitter == 0 {
		seed = 0
	}
	return fmt.Sprintf("%s/%g/%d", sys.Name, sys.TimingJitter, seed)
}

// Framework returns the (cached) framework for a system. When the
// runner injects faults, the framework is built over a clone of sys
// carrying the spec, so callers' systems are never mutated and every
// measurement task run through the framework sees the injection.
func (r *Runner) Framework(sys *hw.System) *core.Framework {
	key := fwKey(sys)
	if fw, ok := r.fws[key]; ok {
		return fw
	}
	r.logf("inspecting %s ...", sys.Name)
	if r.Faults != nil {
		sys = sys.Clone()
		sys.Faults = r.Faults
	}
	fw := core.NewFramework(sys)
	r.fws[key] = fw
	return fw
}

// task is one unit of measurement work: a four-technique comparison
// (compare) or a PreScaler-only search of w on sys.
type task struct {
	sys     *hw.System
	w       *prog.Workload
	opts    scaler.Options
	compare bool
}

// key keys the result cache and the checkpoint. The system's jitter and
// the ablation flags are part of it: the same workload searched on a
// jittered system, or with the wildcard or the pre-full-precision pass
// disabled, is a different measurement. TOQ is keyed exactly (%x), so
// TOQs that print alike at two decimals stay apart.
func (t task) key() string {
	o := t.opts
	return fmt.Sprintf("%s/%s/%v/%x/%t/%t", fwKey(t.sys), t.w.Name, o.InputSet, o.TOQ,
		o.DisableWildcard, o.DisableFullPrecisionPass)
}

// suiteTasks returns one task per suite workload on each system,
// system-major and in suite order.
func (r *Runner) suiteTasks(compare bool, opts scaler.Options, systems ...*hw.System) []task {
	var tasks []task
	for _, sys := range systems {
		for _, w := range r.Suite {
			tasks = append(tasks, task{sys: sys, w: w, opts: opts, compare: compare})
		}
	}
	return tasks
}

// result is one measured task: the PreScaler search and, for a
// comparison, the whole comparison around it.
type result struct {
	cmp *core.Comparison // nil for a PreScaler-only task
	ps  *scaler.Result
}

// cached returns the cached result that serves t: any result for a
// PreScaler-only task, a comparison for a comparison task.
func (r *Runner) cached(t task) (result, bool) {
	res, ok := r.done[t.key()]
	return res, ok && (res.cmp != nil || !t.compare)
}

// measure returns each task's result, in task order. It is the one place
// a measurement task runs: cached tasks are read from the cache,
// checkpointed ones restored, and the rest run through runTask over
// max(Jobs, 1) workers. Each worker owns cloned frameworks (a cloned
// system model; the inspector database is immutable and shared by
// reference), so no mutable state is shared; results land in
// index-addressed slots and merge into the cache, the checkpoint and the
// counters in task order, which makes every table built from them
// independent of worker scheduling. Every failed task is reported
// (joined in task order), so one bad workload cannot mask another. Once
// Ctx is done no further task starts, and the cancellation is reported
// once.
func (r *Runner) measure(tasks []task) ([]result, error) {
	type slot struct {
		task
		key string
		ck  *ckTask // the record of a finished task
		err error
	}
	var todo []*slot
	queued := map[string]bool{} // key -> a comparison is queued
	for _, t := range tasks {
		key := t.key()
		if cmp, ok := queued[key]; ok && (cmp || !t.compare) {
			continue
		}
		if _, ok := r.cached(t); ok {
			continue
		}
		if r.Checkpoint != nil {
			if res, ok := r.Checkpoint.load(t, r.fingerprint(t, key)); ok {
				r.tasksRestored++
				r.logf("restored %s on %s from checkpoint", t.w.Name, t.sys.Name)
				r.done[key] = res
				continue
			}
		}
		queued[key] = t.compare
		todo = append(todo, &slot{task: t, key: key})
	}
	// Materialize (and log) the base frameworks up front so workers only
	// clone; concurrent reads of r.fws are then write-free.
	for _, s := range todo {
		r.Framework(s.sys)
	}
	ctx := r.ctx()
	work := make(chan *slot)
	var wg sync.WaitGroup
	for i := 0; i < min(max(r.Jobs, 1), len(todo)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fws := map[string]*core.Framework{}
			for s := range work {
				if ctx.Err() != nil {
					continue
				}
				key := fwKey(s.sys)
				fw, ok := fws[key]
				if !ok {
					fw = r.fws[key].Clone()
					fws[key] = fw
				}
				res, err := r.runTask(fw, s.task)
				if err == nil {
					// Keep only what a checkpoint keeps, which is all the
					// tables read, so a task's outputs, traces and profile
					// are garbage as soon as it ends.
					ck := toCkTask(res)
					s.ck = &ck
				}
				s.err = err
			}
		}()
	}
	for _, s := range todo {
		if ctx.Err() != nil {
			break
		}
		work <- s
	}
	close(work)
	wg.Wait()
	var errs []error
	canceled := false
	for _, s := range todo {
		switch {
		case s.ck != nil:
			r.done[s.key], _ = s.ck.restore(s.compare)
			r.tasksRun++
			if r.Checkpoint == nil {
				continue
			}
			// A failed write is logged, never fatal: the result is
			// already cached.
			if err := r.Checkpoint.save(s.task, r.fingerprint(s.task, s.key), *s.ck); err != nil {
				r.logf("checkpoint write for %s on %s failed: %v", s.w.Name, s.sys.Name, err)
			}
		case ctx.Err() != nil && (s.err == nil || errors.Is(s.err, ctx.Err())):
			canceled = true // not started, or stopped by the cancellation
		default:
			errs = append(errs, fmt.Errorf("%s on %s: %w", s.w.Name, s.sys.Name, s.err))
		}
	}
	if canceled {
		errs = append(errs, ctx.Err())
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]result, len(tasks))
	for i, t := range tasks {
		out[i], _ = r.cached(t)
	}
	return out, nil
}

// runTask executes one measurement task against fw, with a fresh
// EvalCache and the runner's Retries, under panic isolation and bounded
// task-level retry. A panic anywhere in the task — a worker goroutine
// included — is recovered into a fault.PanicError instead of taking down
// the process. A failure classified as fault-induced (ocl.IsFault: an
// injected error, allocation exhaustion, device loss, or a recovered
// panic) is retried up to r.Retries times; each attempt shifts the
// system's fault salt by attempt<<16, occupying the high word so it
// cannot collide with the scaler's own per-trial low-word salts.
// Programming errors are returned immediately.
func (r *Runner) runTask(fw *core.Framework, t task) (res result, err error) {
	verb := "prescaler"
	if t.compare {
		verb = "comparing"
	}
	r.logf("%s %s on %s (set=%v toq=%.2f) ...", verb, t.w.Name, t.sys.Name, t.opts.InputSet, t.opts.TOQ)
	opts := t.opts
	opts.Retries = r.Retries
	opts.EvalCache = r.cacheFor()
	defer r.addStats(opts.EvalCache)
	sys := fw.System()
	base := sys.FaultSalt
	defer func() { sys.FaultSalt = base }()
	for attempt := 0; ; attempt++ {
		sys.FaultSalt = base + uint64(attempt)<<16
		err = fault.Guard(func() error {
			if t.compare {
				c, err := fw.Compare(r.ctx(), t.w, opts)
				if err != nil {
					return err
				}
				res = result{cmp: c, ps: c.PreScaler}
				return nil
			}
			sp, err := fw.Scale(r.ctx(), t.w, opts)
			if err != nil {
				return err
			}
			res = result{ps: sp.Search}
			return nil
		})
		if err == nil {
			return res, nil
		}
		if !ocl.IsFault(err) || attempt >= r.Retries {
			return result{}, err
		}
		r.logf("task %s on %s attempt %d failed: %v; retrying", t.w.Name, t.sys.Name, attempt+1, err)
	}
}

// Compare returns the (cached) four-technique comparison for one
// workload.
func (r *Runner) Compare(sys *hw.System, w *prog.Workload, opts scaler.Options) (*core.Comparison, error) {
	res, err := r.measure([]task{{sys: sys, w: w, opts: opts, compare: true}})
	if err != nil {
		return nil, err
	}
	return res[0].cmp, nil
}

// dist tallies configurations' memory-object types (FP64, FP32, FP16)
// and transfer conversion classes (none, host, device, transient,
// pipelined) over a suite, keyed by column name.
type dist map[string]int

// distCols are dist's columns, in table order.
var distCols = []string{"FP64", "FP32", "FP16", "none", "host", "device", "transient", "pipelined"}

// add tallies w's configuration cfg.
func (d dist) add(cfg *prog.Config, w *prog.Workload) {
	for t, n := range cfg.TypeDist() {
		d[t.String()] += n
	}
	for c, n := range cfg.ConvDist(w) {
		d[c] += n
	}
}

// cells renders the tally as one cell per column of distCols.
func (d dist) cells() []string {
	out := make([]string, len(distCols))
	for i, c := range distCols {
		out[i] = fmt.Sprintf("%d", d[c])
	}
	return out
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func sci(v float64) string { return fmt.Sprintf("%.3g", v) }

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// Table1 reproduces the paper's Table 1: native arithmetic throughput per
// compute capability.
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Throughput of native arithmetic operations (results/cycle/SM)",
		Header: []string{"capability", "FP16", "FP32", "FP64"},
	}
	for _, c := range hw.Capabilities() {
		tp := hw.ThroughputTable[c]
		row := []string{string(c)}
		for _, p := range []precision.Type{precision.Half, precision.Single, precision.Double} {
			if tp[p] == 0 {
				row = append(row, "N")
			} else {
				row = append(row, fmt.Sprintf("%g", tp[p]))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table3 reproduces the paper's Table 3: the evaluation systems.
func Table3() *Table {
	t := &Table{
		ID:    "table3",
		Title: "Target system configurations",
		Header: []string{
			"system", "CPU", "cores/threads", "SIMD", "GPU", "SMs",
			"GPU clock MHz", "capability", "bus",
		},
	}
	for _, s := range hw.Systems() {
		t.Rows = append(t.Rows, []string{
			s.Name, s.CPU.Name,
			fmt.Sprintf("%d/%d", s.CPU.Cores, s.CPU.Threads),
			string(s.CPU.SIMD), s.GPU.Name,
			fmt.Sprintf("%d", s.GPU.SMs),
			fmt.Sprintf("%.0f", s.GPU.ClockMHz),
			string(s.GPU.Capability), s.Bus.String(),
		})
	}
	return t
}

// Table4 reproduces the paper's Table 4: benchmark specification.
func (r *Runner) Table4() *Table {
	t := &Table{
		ID:     "table4",
		Title:  "Benchmark specification",
		Header: []string{"benchmark", "input size", "default range", "image range", "random range"},
	}
	for _, w := range r.Suite {
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprintf("%.2fMB", float64(w.InputBytes)/(1<<20)),
			fmt.Sprintf("%g-%g", w.DefaultRange[0], w.DefaultRange[1]),
			"0.0-256.0", "0.0-1.0",
		})
	}
	return t
}

// Fig4 reproduces Figure 4: the HtoD / kernel / DtoH execution-time
// fractions per benchmark at baseline precision.
func (r *Runner) Fig4(sys *hw.System) (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "OpenCL program categorization on " + sys.Name,
		Header: []string{"benchmark", "HtoD", "kernel", "DtoH", "category"},
	}
	fw := r.Framework(sys)
	for _, w := range r.Suite {
		htod, kernel, dtoh, err := fw.Categorize(r.ctx(), w, prog.InputDefault)
		if err != nil {
			return nil, err
		}
		cat := "data-intensive"
		if kernel > htod+dtoh {
			cat = "computation-intensive"
		}
		t.Rows = append(t.Rows, []string{w.Name, f3(htod), f3(kernel), f3(dtoh), cat})
	}
	return t, nil
}

// Fig5 reproduces Figure 5: conversion+transfer time of each method
// across sizes for a double->single HtoD transfer, normalized to the
// single loop, with the best method per size.
func (r *Runner) Fig5(sys *hw.System) (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "HtoD double->single conversion methods across data sizes on " + sys.Name + " (normalized to single loop)",
		Header: []string{
			"elements", "bytes", "loop", "multithread", "device", "pipelined", "transient(half)", "best",
		},
	}
	fw := r.Framework(sys)
	db := fw.DB()
	methods := fig5Methods(sys)
	for n := 1 << 10; n <= 1<<24; n <<= 2 {
		times := make([]float64, len(methods))
		for i, m := range methods {
			times[i] = db.Estimate(m.dir, n, m.host, m.dev, m.p)
		}
		base := times[0]
		row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", n*8)}
		bestIdx := 0
		for i, tm := range times {
			row = append(row, f3(tm/base))
			// "best except transient", as the figure notes.
			if methods[i].transient {
				continue
			}
			if tm < times[bestIdx] {
				bestIdx = i
			}
		}
		row = append(row, methods[bestIdx].name)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6 reproduces Figure 6: output quality per input set when every
// memory object is forced to half precision.
func (r *Runner) Fig6(sys *hw.System) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Output quality with all memory objects at half precision (" + sys.Name + ")",
		Header: []string{"benchmark", "default", "image", "random"},
	}
	fw := r.Framework(sys)
	for _, w := range r.Suite {
		row := []string{w.Name}
		for _, set := range prog.InputSets {
			q, err := fw.HalfQuality(r.ctx(), w, set)
			if err != nil {
				return nil, err
			}
			row = append(row, f4(q))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 reproduces Figure 9 (a-c): In-Kernel / PFP / PreScaler speedups
// per benchmark on one system, normalized to baseline, with the
// geometric-mean row.
func (r *Runner) Fig9(sys *hw.System, opts scaler.Options) (*Table, error) {
	t := &Table{
		ID:     "fig9-" + sys.Name,
		Title:  "Speedup over baseline on " + sys.Name,
		Header: []string{"benchmark", "in-kernel", "pfp", "prescaler", "prescaler quality", "trials"},
	}
	res, err := r.measure(r.suiteTasks(true, opts, sys))
	if err != nil {
		return nil, err
	}
	var ik, pfp, ps []float64
	for i, w := range r.Suite {
		c := res[i].cmp
		ik = append(ik, c.InKernel.Speedup)
		pfp = append(pfp, c.PFP.Speedup)
		ps = append(ps, c.PreScaler.Speedup)
		t.Rows = append(t.Rows, []string{
			w.Name,
			f2(c.InKernel.Speedup), f2(c.PFP.Speedup), f2(c.PreScaler.Speedup),
			f4(c.PreScaler.Quality),
			fmt.Sprintf("%d", c.PreScaler.Trials),
		})
	}
	t.Rows = append(t.Rows, []string{"geomean", f2(geomean(ik)), f2(geomean(pfp)), f2(geomean(ps)), "", ""})
	return t, nil
}

// Fig9Dist reproduces Figure 9 (d-e): the distribution of resulting
// memory-object types and conversion-method classes for PFP and
// PreScaler on one system.
func (r *Runner) Fig9Dist(sys *hw.System, opts scaler.Options) (*Table, error) {
	t := &Table{
		ID:     "fig9dist-" + sys.Name,
		Title:  "Result type and conversion method distribution on " + sys.Name,
		Header: append([]string{"technique"}, distCols...),
	}
	res, err := r.measure(r.suiteTasks(true, opts, sys))
	if err != nil {
		return nil, err
	}
	pfp, prescaler := dist{}, dist{}
	for i, w := range r.Suite {
		pfp.add(res[i].cmp.PFP.Config, w)
		prescaler.add(res[i].ps.Config, w)
	}
	t.Rows = append(t.Rows,
		append([]string{"pfp"}, pfp.cells()...),
		append([]string{"prescaler"}, prescaler.cells()...))
	return t, nil
}

// Fig10a reproduces Figure 10 (a): per-benchmark kernel and transfer time
// of Baseline / In-Kernel / PFP / PreScaler on one system, normalized to
// the baseline total.
func (r *Runner) Fig10a(sys *hw.System, opts scaler.Options) (*Table, error) {
	t := &Table{
		ID:    "fig10a",
		Title: "Execution time breakdown on " + sys.Name + " (normalized to baseline; K=kernel, T=transfer)",
		Header: []string{
			"benchmark", "B.K", "B.T", "K.K", "K.T", "F.K", "F.T", "P.K", "P.T",
		},
	}
	res, err := r.measure(r.suiteTasks(true, opts, sys))
	if err != nil {
		return nil, err
	}
	for i, w := range r.Suite {
		c := res[i].cmp
		base := c.Baseline.Final.Total
		row := []string{w.Name}
		for _, res := range []*prog.Result{
			c.Baseline.Final, c.InKernel.Final, c.PFP.Final, c.PreScaler.Final,
		} {
			row = append(row, f3(res.KernelTime/base), f3(res.TransferTime()/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig10b reproduces Figure 10 (b): the number of execution trials per
// technique against the entire configuration space (Equation 1).
func (r *Runner) Fig10b(sys *hw.System, opts scaler.Options) (*Table, error) {
	t := &Table{
		ID:    "fig10b",
		Title: "Execution trials to find the configuration on " + sys.Name,
		Header: []string{
			"benchmark", "entire(eq1)", "tree(eq2)", "predicted(eq3)",
			"in-kernel", "pfp", "prescaler", "tested fraction",
		},
	}
	res, err := r.measure(r.suiteTasks(true, opts, sys))
	if err != nil {
		return nil, err
	}
	for i, w := range r.Suite {
		c := res[i].cmp
		ps := c.PreScaler
		frac := float64(ps.Trials) / ps.SearchSpace
		t.Rows = append(t.Rows, []string{
			w.Name,
			sci(ps.SearchSpace), sci(ps.TreeSpace), sci(ps.PredictedSpace),
			fmt.Sprintf("%d", c.InKernel.Trials),
			fmt.Sprintf("%d", c.PFP.Trials),
			fmt.Sprintf("%d", ps.Trials),
			sci(frac),
		})
	}
	return t, nil
}

// Fig11 reproduces Figure 11: PFP and PreScaler speedups plus the
// PreScaler type and conversion distributions at PCIe x16 vs x8.
func (r *Runner) Fig11(opts scaler.Options) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "System adaptivity with different PCIe bandwidths",
		Header: append([]string{"bus", "pfp speedup", "prescaler speedup"}, distCols...),
	}
	systems := []*hw.System{hw.System1(), hw.System1x8()}
	res, err := r.measure(r.suiteTasks(true, opts, systems...))
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		var pfp, ps []float64
		d := dist{}
		for j, w := range r.Suite {
			c := res[i*len(r.Suite)+j].cmp
			pfp = append(pfp, c.PFP.Speedup)
			ps = append(ps, c.PreScaler.Speedup)
			d.add(c.PreScaler.Config, w)
		}
		row := []string{fmt.Sprintf("x%d", sys.Bus.Lanes), f2(geomean(pfp)), f2(geomean(ps))}
		t.Rows = append(t.Rows, append(row, d.cells()...))
	}
	return t, nil
}

// Fig12 reproduces Figure 12: PreScaler speedup and type distribution per
// input set, plus the TOQ sweep on the default set, on system 1.
func (r *Runner) Fig12() (*Table, error) {
	sys := hw.System1()
	t := &Table{
		ID:     "fig12",
		Title:  "Application adaptivity: input sets and TOQ on " + sys.Name,
		Header: append([]string{"configuration", "prescaler speedup"}, distCols[:3]...),
	}
	var labels []string
	var tasks []task
	for _, set := range prog.InputSets {
		labels = append(labels, "set="+set.String())
		tasks = append(tasks, r.suiteTasks(false, scaler.Options{TOQ: 0.90, InputSet: set}, sys)...)
	}
	for _, toq := range []float64{0.95, 0.99} {
		labels = append(labels, fmt.Sprintf("toq=%.2f", toq))
		tasks = append(tasks, r.suiteTasks(false, scaler.Options{TOQ: toq, InputSet: prog.InputDefault}, sys)...)
	}
	res, err := r.measure(tasks)
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		var ps []float64
		d := dist{}
		for j, w := range r.Suite {
			s := res[i*len(r.Suite)+j].ps
			ps = append(ps, s.Speedup)
			d.add(s.Config, w)
		}
		t.Rows = append(t.Rows, append([]string{label, f2(geomean(ps))}, d.cells()[:3]...))
	}
	return t, nil
}

// All runs every experiment at the paper's settings and returns the
// tables in presentation order.
func (r *Runner) All() ([]*Table, error) {
	opts := scaler.DefaultOptions()
	// Measure the comparisons every figure draws from in one pool, so a
	// parallel run keeps all workers busy across figure boundaries.
	if _, err := r.measure(r.suiteTasks(true, opts, append(hw.Systems(), hw.System1x8())...)); err != nil {
		return nil, err
	}
	var out []*Table
	out = append(out, Table1(), Table3(), r.Table4())

	sys1 := hw.System1()
	fig4, err := r.Fig4(sys1)
	if err != nil {
		return nil, err
	}
	out = append(out, fig4)
	fig5, err := r.Fig5(sys1)
	if err != nil {
		return nil, err
	}
	out = append(out, fig5)
	fig6, err := r.Fig6(sys1)
	if err != nil {
		return nil, err
	}
	out = append(out, fig6)

	for _, sys := range hw.Systems() {
		fig9, err := r.Fig9(sys, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, fig9)
		dist, err := r.Fig9Dist(sys, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, dist)
	}

	fig10a, err := r.Fig10a(sys1, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, fig10a)
	fig10b, err := r.Fig10b(sys1, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, fig10b)

	fig11, err := r.Fig11(opts)
	if err != nil {
		return nil, err
	}
	out = append(out, fig11)

	fig12, err := r.Fig12()
	if err != nil {
		return nil, err
	}
	out = append(out, fig12)
	return out, nil
}

// fig5Method describes one conversion technique probed by Fig5.
type fig5Method struct {
	name      string
	dir       ocl.Dir
	host, dev precision.Type
	p         convert.Plan
	transient bool
}

// fig5Methods returns the five techniques of the paper's Figure 5 for a
// double -> single host-to-device transfer: single loop, multithreaded,
// device-side, pipelined, and the transient conversion through half
// (excluded from the "best" column, as in the figure).
func fig5Methods(sys *hw.System) []fig5Method {
	d, s, h := precision.Double, precision.Single, precision.Half
	th := sys.CPU.Threads
	return []fig5Method{
		{"loop", ocl.DirHtoD, d, s, convert.Plan{Host: convert.MethodLoop, Mid: s}, false},
		{"multithread", ocl.DirHtoD, d, s, convert.Plan{Host: convert.MethodMT, Threads: th, Mid: s}, false},
		{"device", ocl.DirHtoD, d, s, convert.Direct(d), false},
		{"pipelined", ocl.DirHtoD, d, s, convert.Plan{Host: convert.MethodPipelined, Threads: th, Mid: s}, false},
		{"transient(half)", ocl.DirHtoD, d, s, convert.Plan{Host: convert.MethodMT, Threads: th, Mid: h}, true},
	}
}

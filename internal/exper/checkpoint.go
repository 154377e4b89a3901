package exper

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// Checkpoint persists completed measurement-task results to a directory,
// one JSON file per task, so an interrupted figure run can resume
// without re-executing finished tasks. Files are written atomically
// (temp file + rename), so a run killed mid-write leaves at worst an
// ignorable temp file, never a truncated checkpoint. The stored record
// is the exact subset of a comparison that the tables consume — timing
// decomposition, quality, speedup, trial counts, search-space sizes,
// and the full chosen configurations — and JSON float64 round-trips are
// bit-exact, so a resumed run renders byte-identical tables and reports.
// Heavy fields (outputs, op traces, runtime events, the profile) are
// not persisted and are nil on restored results; no table reads them.
//
// A task's file name is keyed by a hash of the task key (which carries
// the system's jitter configuration), a fingerprint of the workload's
// shape, and the runner's fault/retry environment, so a checkpoint
// directory written by a quick-suite or chaos run can never satisfy a
// full-suite or faults-off run by accident.
type Checkpoint struct {
	dir string
}

// NewCheckpoint opens (creating if needed) a checkpoint directory.
func NewCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("exper: checkpoint: %w", err)
	}
	return &Checkpoint{dir: dir}, nil
}

// Dir returns the checkpoint directory.
func (c *Checkpoint) Dir() string { return c.dir }

// fingerprint identifies the workload shape and runner environment the
// result was measured under; see the type comment.
func (r *Runner) fingerprint(t task, key string) string {
	fp := fmt.Sprintf("%s|%s/%v", key, t.w.Name, t.w.Original)
	for _, o := range t.w.Objects {
		fp += fmt.Sprintf("|%s:%d:%v", o.Name, o.Len, o.Kind)
	}
	fp += fmt.Sprintf("|faults=%s|retries=%d", r.Faults.String(), r.Retries)
	return fp
}

// path returns the checkpoint file for a task.
func (c *Checkpoint) path(t task, fingerprint string) string {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	kind := "cmp"
	if !t.compare {
		kind = "scl"
	}
	return filepath.Join(c.dir, fmt.Sprintf("%s-%s-%016x.json", t.w.Name, kind, h.Sum64()))
}

// ckResult is the persisted subset of a prog.Result.
type ckResult struct {
	Total      float64 `json:"total"`
	KernelTime float64 `json:"kernel"`
	HtoDTime   float64 `json:"htod"`
	DtoHTime   float64 `json:"dtoh"`
}

func toCkResult(r *prog.Result) ckResult {
	return ckResult{Total: r.Total, KernelTime: r.KernelTime, HtoDTime: r.HtoDTime, DtoHTime: r.DtoHTime}
}

func (r ckResult) restore() *prog.Result {
	return &prog.Result{Total: r.Total, KernelTime: r.KernelTime, HtoDTime: r.HtoDTime, DtoHTime: r.DtoHTime}
}

// ckOutcome is the persisted subset of a baseline.Outcome.
type ckOutcome struct {
	Technique    string       `json:"technique"`
	Config       *prog.Config `json:"config,omitempty"`
	Final        ckResult     `json:"final"`
	Quality      float64      `json:"quality"`
	BaselineTime float64      `json:"baseline_time"`
	Speedup      float64      `json:"speedup"`
	Trials       int          `json:"trials"`
}

func toCkOutcome(o *baseline.Outcome) ckOutcome {
	return ckOutcome{
		Technique: o.Technique, Config: o.Config, Final: toCkResult(o.Final),
		Quality: o.Quality, BaselineTime: o.BaselineTime, Speedup: o.Speedup, Trials: o.Trials,
	}
}

func (o *ckOutcome) restore() *baseline.Outcome {
	return &baseline.Outcome{
		Technique: o.Technique, Config: o.Config, Final: o.Final.restore(),
		Quality: o.Quality, BaselineTime: o.BaselineTime, Speedup: o.Speedup, Trials: o.Trials,
	}
}

// ckScaler is the persisted subset of a scaler.Result. Info (the
// application profile) is deliberately dropped; it is nil on restore.
type ckScaler struct {
	Config         *prog.Config `json:"config"`
	Final          ckResult     `json:"final"`
	Quality        float64      `json:"quality"`
	BaselineTime   float64      `json:"baseline_time"`
	Speedup        float64      `json:"speedup"`
	Trials         int          `json:"trials"`
	SearchSpace    float64      `json:"search_space"`
	TreeSpace      float64      `json:"tree_space"`
	PredictedSpace float64      `json:"predicted_space"`
}

func toCkScaler(s *scaler.Result) ckScaler {
	return ckScaler{
		Config: s.Config, Final: toCkResult(s.Final), Quality: s.Quality,
		BaselineTime: s.BaselineTime, Speedup: s.Speedup, Trials: s.Trials,
		SearchSpace: s.SearchSpace, TreeSpace: s.TreeSpace, PredictedSpace: s.PredictedSpace,
	}
}

func (s *ckScaler) restore() *scaler.Result {
	return &scaler.Result{
		Config: s.Config, Final: s.Final.restore(), Quality: s.Quality,
		BaselineTime: s.BaselineTime, Speedup: s.Speedup, Trials: s.Trials,
		SearchSpace: s.SearchSpace, TreeSpace: s.TreeSpace, PredictedSpace: s.PredictedSpace,
	}
}

// ckTask is one checkpoint file: a full comparison or a scale-only
// result, tagged with the uncompressed fingerprint so a (vanishingly
// unlikely) hash collision is detected instead of silently restored.
type ckTask struct {
	Fingerprint string     `json:"fingerprint"`
	Compare     *ckCompare `json:"compare,omitempty"`
	Scale       *ckScaler  `json:"scale,omitempty"`
}

type ckCompare struct {
	Workload  string    `json:"workload"`
	Baseline  ckOutcome `json:"baseline"`
	InKernel  ckOutcome `json:"in_kernel"`
	PFP       ckOutcome `json:"pfp"`
	PreScaler ckScaler  `json:"prescaler"`
}

// toCkTask returns the persisted subset of a task's result.
func toCkTask(res result) ckTask {
	var ck ckTask
	if cmp := res.cmp; cmp != nil {
		ck.Compare = &ckCompare{
			Workload:  cmp.Workload,
			Baseline:  toCkOutcome(cmp.Baseline),
			InKernel:  toCkOutcome(cmp.InKernel),
			PFP:       toCkOutcome(cmp.PFP),
			PreScaler: toCkScaler(cmp.PreScaler),
		}
	} else {
		s := toCkScaler(res.ps)
		ck.Scale = &s
	}
	return ck
}

// restore returns the result a comparison task (compare) or a
// PreScaler-only task reads from ck, reporting false when ck holds the
// other kind.
func (ck *ckTask) restore(compare bool) (result, bool) {
	switch {
	case compare && ck.Compare != nil:
		cmp := &core.Comparison{
			Workload:  ck.Compare.Workload,
			Baseline:  ck.Compare.Baseline.restore(),
			InKernel:  ck.Compare.InKernel.restore(),
			PFP:       ck.Compare.PFP.restore(),
			PreScaler: ck.Compare.PreScaler.restore(),
		}
		return result{cmp: cmp, ps: cmp.PreScaler}, true
	case !compare && ck.Scale != nil:
		return result{ps: ck.Scale.restore()}, true
	}
	return result{}, false
}

// load reads the checkpoint for a task, reporting false when absent,
// unreadable, or fingerprint-mismatched — a corrupt or foreign file is
// treated as a miss, never an error.
func (c *Checkpoint) load(t task, fingerprint string) (result, bool) {
	data, err := os.ReadFile(c.path(t, fingerprint))
	if err != nil {
		return result{}, false
	}
	var ck ckTask
	if err := json.Unmarshal(data, &ck); err != nil || ck.Fingerprint != fingerprint {
		return result{}, false
	}
	return ck.restore(t.compare)
}

// save persists a completed task's record atomically. Failures are
// reported to the caller for logging but never fail the run: a
// checkpoint is an optimization, not an output.
func (c *Checkpoint) save(t task, fingerprint string, ck ckTask) error {
	ck.Fingerprint = fingerprint
	data, err := json.MarshalIndent(&ck, "", " ")
	if err != nil {
		return err
	}
	final := c.path(t, fingerprint)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

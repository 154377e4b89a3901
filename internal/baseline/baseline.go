// Package baseline implements the two comparison techniques of the
// paper's evaluation (Section 5.1):
//
//   - In-Kernel: kernel-level mixed-precision scaling in the style of
//     Precimonious. Memory objects stay at the original precision and
//     type-conversion instructions are inserted inside kernels; every
//     possible per-object precision assignment is tested exhaustively and
//     the fastest TOQ-passing one wins. Data transfers are untouched, so
//     the technique cannot help data-intensive programs.
//
//   - PFP (program-level full precision): all memory objects are scaled
//     to the same precision, modeling careful manual optimization. For
//     each uniform precision the conversion method per transfer event is
//     the better of host-side multithreaded and device-side conversion;
//     the fastest TOQ-passing uniform configuration wins.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/ocl"
	"repro/internal/precision"
	"repro/internal/profile"
	"repro/internal/prog"
)

// observer returns the optional trailing observer argument (nil when
// absent), letting the techniques stay call-compatible with code that
// does not trace.
func observer(os []*obs.Observer) *obs.Observer {
	if len(os) > 0 {
		return os[0]
	}
	return nil
}

// ctxErr reports a canceled context as an error wrapping its cause, or
// nil. A nil context is treated as context.Background().
func ctxErr(ctx context.Context, label string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return fmt.Errorf("baseline: %s canceled: %w", label, err)
	}
	return nil
}

// tracedRun executes one trial with the observer's runtime hook
// attached, wrapped in a labeled trial span on the virtual clock. An
// optional incremental-evaluation cache shares op results across trials
// (and across techniques, when the caller passes one cache to all).
// Every technique funnels each program execution through here, so the
// context check makes each trial a cancellation boundary.
func tracedRun(ctx context.Context, o *obs.Observer, label string, sys *hw.System, w *prog.Workload, set prog.InputSet, cfg *prog.Config, cache *prog.EvalCache) (*prog.Result, error) {
	if err := ctxErr(ctx, label); err != nil {
		return nil, err
	}
	sp := o.Tracer().Start("trial "+label, "trial")
	res, err := prog.RunWithCache(sys, w, set, cfg, cache, o.RunHook())
	if err != nil {
		return nil, err
	}
	o.Advance(res.Total)
	sp.SetAttr("total_ms", res.Total*1e3)
	o.Tracer().End(sp)
	o.Metrics().Counter("trials_executed", obs.L("technique", label)).Inc()
	return res, nil
}

// Outcome reports one baseline technique's result on one workload.
type Outcome struct {
	// Technique is "baseline", "in-kernel" or "pfp".
	Technique string
	// Config is the chosen configuration (nil for the plain baseline).
	Config *prog.Config
	// Final is the measured run of the chosen configuration.
	Final *prog.Result
	// Quality is the output quality of Final against the reference.
	Quality float64
	// BaselineTime is the unscaled program time.
	BaselineTime float64
	// Speedup is BaselineTime / Final.Total.
	Speedup float64
	// Trials is the number of program executions spent, including the
	// reference run.
	Trials int
}

// Baseline runs the unscaled program and reports it as an outcome with
// speedup 1. An optional shared incremental-evaluation cache (nil for
// plain execution) serves the run, and an optional observer traces it.
func Baseline(ctx context.Context, sys *hw.System, w *prog.Workload, set prog.InputSet, cache *prog.EvalCache, os ...*obs.Observer) (*Outcome, error) {
	res, err := tracedRun(ctx, observer(os), "baseline", sys, w, set, nil, cache)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Technique:    "baseline",
		Config:       prog.Baseline(w),
		Final:        res,
		Quality:      1,
		BaselineTime: res.Total,
		Speedup:      1,
		Trials:       1,
	}, nil
}

// supportedTypes returns the device-supported precisions at or below the
// workload's original precision, in descending precision order.
func supportedTypes(sys *hw.System, w *prog.Workload) []precision.Type {
	var out []precision.Type
	for _, t := range precision.Descending {
		if t > w.Original {
			continue
		}
		if sys.GPU.Supports(t) {
			out = append(out, t)
		}
	}
	return out
}

// InKernelExhaustiveLimit bounds the exhaustive In-Kernel enumeration.
// Above this many assignments the search falls back to a greedy
// per-object descent (Precimonious itself prunes with delta debugging
// rather than enumerating, so a bounded search is in character).
const InKernelExhaustiveLimit = 30

// InKernel searches per-object in-kernel precision assignments
// (Precimonious-style) and returns the fastest TOQ-passing
// configuration. The search is exhaustive up to
// InKernelExhaustiveLimit assignments, greedy beyond that. An optional
// shared incremental-evaluation cache (nil for plain execution) serves
// the trials: they leave every transfer op untouched, so all of them hit
// the cached baseline transfers. An optional observer traces every
// trial.
func InKernel(ctx context.Context, sys *hw.System, w *prog.Workload, set prog.InputSet, toq float64, cache *prog.EvalCache, os ...*obs.Observer) (*Outcome, error) {
	o := observer(os)
	ref, err := tracedRun(ctx, o, "in-kernel", sys, w, set, nil, cache)
	if err != nil {
		return nil, err
	}
	types := supportedTypes(sys, w)
	n := len(w.Objects)
	if n == 0 {
		return nil, fmt.Errorf("baseline: workload %s has no objects", w.Name)
	}
	total := 1
	for i := 0; i < n && total <= InKernelExhaustiveLimit; i++ {
		total *= len(types)
	}
	if total > InKernelExhaustiveLimit {
		return inKernelGreedy(ctx, sys, w, set, toq, ref, types, o, cache)
	}

	best := prog.Baseline(w)
	bestRes := ref
	bestQ := 1.0
	trials := 1

	// Enumerate every assignment in types^n; assignment index 0 is
	// all-original, which equals the reference run.
	idx := make([]int, n)
	for {
		// Advance to the next assignment (skip the initial all-zero one,
		// already measured as the reference).
		carry := true
		for i := 0; carry && i < n; i++ {
			idx[i]++
			if idx[i] < len(types) {
				carry = false
			} else {
				idx[i] = 0
			}
		}
		if carry {
			break // wrapped around: enumeration complete
		}

		cfg := prog.Baseline(w)
		for i, spec := range w.Objects {
			t := types[idx[i]]
			cfg.Objects[spec.Name] = prog.ObjectConfig{
				Target:   t,
				InKernel: t != w.Original,
			}
		}
		res, err := tracedRun(ctx, o, "in-kernel", sys, w, set, cfg, cache)
		if err != nil {
			return nil, err
		}
		trials++
		q := prog.Quality(ref, res)
		if q >= toq && res.Total < bestRes.Total {
			best, bestRes, bestQ = cfg, res, q
		}
	}

	out := &Outcome{
		Technique:    "in-kernel",
		Config:       best,
		Final:        bestRes,
		Quality:      bestQ,
		BaselineTime: ref.Total,
		Trials:       trials,
	}
	out.Speedup = ref.Total / bestRes.Total
	return out, nil
}

// inKernelGreedy lowers one object at a time (declaration order), keeping
// a precision change only when it passes TOQ and improves total time.
func inKernelGreedy(ctx context.Context, sys *hw.System, w *prog.Workload, set prog.InputSet, toq float64, ref *prog.Result, types []precision.Type, o *obs.Observer, cache *prog.EvalCache) (*Outcome, error) {
	best := prog.Baseline(w)
	bestRes := ref
	bestQ := 1.0
	trials := 1
	for _, spec := range w.Objects {
		for _, t := range types {
			if t == w.Original {
				continue
			}
			cfg := best.Clone()
			cfg.Objects[spec.Name] = prog.ObjectConfig{Target: t, InKernel: true}
			res, err := tracedRun(ctx, o, "in-kernel", sys, w, set, cfg, cache)
			if err != nil {
				return nil, err
			}
			trials++
			q := prog.Quality(ref, res)
			if q >= toq && res.Total < bestRes.Total {
				best, bestRes, bestQ = cfg, res, q
			}
		}
	}
	out := &Outcome{
		Technique:    "in-kernel",
		Config:       best,
		Final:        bestRes,
		Quality:      bestQ,
		BaselineTime: ref.Total,
		Trials:       trials,
	}
	out.Speedup = ref.Total / bestRes.Total
	return out, nil
}

// pfpPlan returns the better of host-side multithreaded and device-side
// conversion for one transfer event, by estimated time.
func pfpPlan(sys *hw.System, ev profile.TransferEvent, orig, target precision.Type) convert.Plan {
	if orig == target {
		return convert.Direct(orig)
	}
	host := convert.Plan{Host: convert.MethodMT, Threads: sys.CPU.Threads, Mid: target}
	device := convert.Direct(orig)
	var th, td float64
	if ev.Dir == ocl.DirHtoD {
		th = convert.EstimateHtoD(sys, ev.Elems, orig, target, host)
		td = convert.EstimateHtoD(sys, ev.Elems, orig, target, device)
	} else {
		th = convert.EstimateDtoH(sys, ev.Elems, target, orig, host)
		td = convert.EstimateDtoH(sys, ev.Elems, target, orig, device)
	}
	if td < th {
		return device
	}
	return host
}

// PFP searches the uniform program-level full-precision configurations
// and returns the fastest TOQ-passing one. An optional shared
// incremental-evaluation cache (nil for plain execution) serves the
// trials, and an optional observer traces every one.
func PFP(ctx context.Context, sys *hw.System, w *prog.Workload, set prog.InputSet, toq float64, cache *prog.EvalCache, os ...*obs.Observer) (*Outcome, error) {
	o := observer(os)
	if err := ctxErr(ctx, "pfp"); err != nil {
		return nil, err
	}
	sp := o.Tracer().Start("trial pfp profile", "trial")
	info, ref, err := profile.Profile(sys, w, set, cache, o.RunHook())
	if err != nil {
		return nil, err
	}
	o.Advance(ref.Total)
	o.Tracer().End(sp)
	o.Metrics().Counter("trials_executed", obs.L("technique", "pfp")).Inc()
	trials := 1

	best := prog.Baseline(w)
	bestRes := ref
	bestQ := 1.0
	for _, t := range supportedTypes(sys, w) {
		if t == w.Original {
			continue // already measured
		}
		cfg := prog.NewConfig(w, t)
		for i := range info.Objects {
			obj := &info.Objects[i]
			plans := make([]convert.Plan, len(obj.Transfers))
			for j, ev := range obj.Transfers {
				plans[j] = pfpPlan(sys, ev, w.Original, t)
			}
			cfg.Objects[obj.Name] = prog.ObjectConfig{Target: t, Plans: plans}
		}
		res, err := tracedRun(ctx, o, "pfp", sys, w, set, cfg, cache)
		if err != nil {
			return nil, err
		}
		trials++
		q := prog.Quality(ref, res)
		if q >= toq && res.Total < bestRes.Total {
			best, bestRes, bestQ = cfg, res, q
		}
	}

	out := &Outcome{
		Technique:    "pfp",
		Config:       best,
		Final:        bestRes,
		Quality:      bestQ,
		BaselineTime: ref.Total,
		Trials:       trials,
	}
	out.Speedup = ref.Total / bestRes.Total
	return out, nil
}

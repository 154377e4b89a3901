// Package core is the PreScaler framework facade — the paper's primary
// contribution assembled from its three processes:
//
//	System Inspector  (internal/inspect)  — one-time system probing,
//	Application Profiler (internal/profile) — per-application profiling,
//	Decision Maker    (internal/scaler)   — decision-tree configuration
//	                                        search with wildcard tests.
//
// A Framework is bound to one target system and carries the inspector
// database; Scale runs the full pipeline for a workload and returns a
// ScaledProgram — the analog of the paper's generated executable binary:
// the workload paired with its chosen memory-object precision and
// conversion configuration, runnable on the simulated system and
// printable as a human-readable scaling report.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/hw"
	"repro/internal/inspect"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// Framework is a PreScaler instance for one target system.
type Framework struct {
	sys *hw.System
	db  *inspect.DB
}

// NewFramework creates a framework for sys, running the one-time system
// inspection.
func NewFramework(sys *hw.System) *Framework {
	return &Framework{sys: sys, db: inspect.Inspect(sys)}
}

// LoadFramework creates a framework from a previously saved inspector
// database (see cmd/inspector), skipping the inspection step — the
// artifact's "precollected information" path.
func LoadFramework(sys *hw.System, dbJSON []byte) (*Framework, error) {
	db, err := inspect.Load(sys, dbJSON)
	if err != nil {
		return nil, err
	}
	return &Framework{sys: sys, db: db}, nil
}

// Clone returns a framework with a private copy of the system model,
// whose per-run fields (Faults, FaultSalt) the caller may then set. The
// inspector database is immutable and shared by reference.
func (f *Framework) Clone() *Framework {
	return &Framework{sys: f.sys.Clone(), db: f.db}
}

// System returns the target system.
func (f *Framework) System() *hw.System { return f.sys }

// DB returns the inspector database.
func (f *Framework) DB() *inspect.DB { return f.db }

// ScaledProgram is the output of the framework: a workload bound to the
// scaling configuration the decision maker chose.
type ScaledProgram struct {
	Workload *prog.Workload
	Config   *prog.Config
	// Search carries the measurements of the configuration search.
	Search *scaler.Result
	sys    *hw.System
}

// Scale runs profiling and the decision-maker search for w and returns
// the scaled program. The context is threaded into the search and
// checked at every trial boundary: canceling it aborts the search
// within one trial with an error matching errors.Is(err,
// context.Canceled).
func (f *Framework) Scale(ctx context.Context, w *prog.Workload, opts scaler.Options) (*ScaledProgram, error) {
	s := scaler.New(f.sys, f.db, w, opts)
	res, err := s.Search(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: scale %s: %w", w.Name, err)
	}
	return &ScaledProgram{Workload: w, Config: res.Config, Search: res, sys: f.sys}, nil
}

// Run executes the scaled program on its system with the given input set
// and returns the result.
func (p *ScaledProgram) Run(set prog.InputSet) (*prog.Result, error) {
	return prog.Run(p.sys, p.Workload, set, p.Config)
}

// Speedup returns the measured speedup over the unscaled program.
func (p *ScaledProgram) Speedup() float64 { return p.Search.Speedup }

// Quality returns the measured output quality of the scaled program.
func (p *ScaledProgram) Quality() float64 { return p.Search.Quality }

// Describe renders the chosen configuration as a human-readable report:
// one line per memory object with its precision and per-event conversion
// plan.
func (p *ScaledProgram) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s (%s, %s):\n", p.Workload.Name, p.sys.Name, p.sys.GPU.Name, p.sys.Bus.String())
	fmt.Fprintf(&b, "  speedup %.2fx, quality %.4f, %d trials\n", p.Search.Speedup, p.Search.Quality, p.Search.Trials)

	names := make([]string, 0, len(p.Workload.Objects))
	for _, o := range p.Workload.Objects {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		oc := p.Config.Objects[name]
		spec := p.Workload.Object(name)
		fmt.Fprintf(&b, "  %-8s %-5s -> %-5s (%s, %d elems)",
			name, p.Workload.Original, oc.Target, spec.Kind, spec.Len)
		if oc.InKernel {
			b.WriteString(" [in-kernel]")
		}
		storage := oc.Target
		if oc.InKernel {
			storage = p.Workload.Original
		}
		for i, plan := range oc.Plans {
			fmt.Fprintf(&b, " ev%d:%s", i, plan.Class(p.Workload.Original, storage))
			if plan.Mid != p.Workload.Original && plan.Mid != storage {
				fmt.Fprintf(&b, "(via %s)", plan.Mid)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Comparison holds the four techniques' outcomes for one workload, the
// rows of the Figure 9/10 experiments.
type Comparison struct {
	Workload  string
	Baseline  *baseline.Outcome
	InKernel  *baseline.Outcome
	PFP       *baseline.Outcome
	PreScaler *scaler.Result
}

// Compare evaluates Baseline, In-Kernel, PFP and PreScaler on w. When
// opts.Obs is set, each technique's trials appear as a span group in the
// trace. When opts.EvalCache is set, all four techniques share it: they
// run on the same system and workload, so op results recorded by one
// technique's trials are spliced into the others'. The context is
// checked at every technique's trial boundaries; canceling it aborts
// the comparison mid-technique.
func (f *Framework) Compare(ctx context.Context, w *prog.Workload, opts scaler.Options) (*Comparison, error) {
	if opts.TOQ == 0 {
		opts.TOQ = 0.90
	}
	cache := opts.EvalCache
	tr := opts.Obs.Tracer()
	sp := tr.Start("baseline "+w.Name, "pipeline")
	base, err := baseline.Baseline(ctx, f.sys, w, opts.InputSet, cache, opts.Obs)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: baseline %s: %w", w.Name, err)
	}
	sp = tr.Start("in-kernel "+w.Name, "pipeline")
	ik, err := baseline.InKernel(ctx, f.sys, w, opts.InputSet, opts.TOQ, cache, opts.Obs)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: in-kernel %s: %w", w.Name, err)
	}
	sp = tr.Start("pfp "+w.Name, "pipeline")
	pfp, err := baseline.PFP(ctx, f.sys, w, opts.InputSet, opts.TOQ, cache, opts.Obs)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: pfp %s: %w", w.Name, err)
	}
	ps, err := scaler.New(f.sys, f.db, w, opts).Search(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: prescaler %s: %w", w.Name, err)
	}
	return &Comparison{
		Workload:  w.Name,
		Baseline:  base,
		InKernel:  ik,
		PFP:       pfp,
		PreScaler: ps,
	}, nil
}

// Categorize runs the workload at baseline precision and returns the
// HtoD / kernel / DtoH fractions of total time (Figure 4). The single
// measurement run is the one trial boundary: a context canceled before
// the call returns immediately.
func (f *Framework) Categorize(ctx context.Context, w *prog.Workload, set prog.InputSet) (htod, kernel, dtoh float64, err error) {
	if err := ctxErr(ctx); err != nil {
		return 0, 0, 0, err
	}
	res, err := prog.Run(f.sys, w, set, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if res.Total == 0 {
		return 0, 0, 0, nil
	}
	return res.HtoDTime / res.Total, res.KernelTime / res.Total, res.DtoHTime / res.Total, nil
}

// HalfQuality runs the workload with every memory object forced to half
// precision and returns the resulting output quality (Figure 6). The
// context is checked before each of the two measurement runs.
func (f *Framework) HalfQuality(ctx context.Context, w *prog.Workload, set prog.InputSet) (float64, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	ref, err := prog.Run(f.sys, w, set, nil)
	if err != nil {
		return 0, err
	}
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	res, err := prog.Run(f.sys, w, set, prog.NewConfig(w, precision.Half))
	if err != nil {
		return 0, err
	}
	return prog.Quality(ref, res), nil
}

// ctxErr adapts a context error for the framework's single-run entry
// points, preferring the cancellation cause. A nil context is treated
// as context.Background().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return fmt.Errorf("core: canceled: %w", err)
	}
	return nil
}

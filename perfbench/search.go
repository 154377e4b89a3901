package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// The search workloads' benchmarks. Fig. 4 (results/fig4.csv) calls the
// first five computation-intensive; the other four spend at least 90% of
// their baseline time in HtoD transfers. 2DCONV, 3DCONV and FDTD-2D stay
// out: one search takes 1.6-2.7 s and 2DCONV/3DCONV allocate about 1 GB
// each, which leaves too few, GC-dominated samples per run.
var (
	computeBenches = []string{"2MM", "3MM", "CORR", "COVAR", "SYRK"}
	dataBenches    = []string{"ATAX", "BICG", "GESUMMV", "MVT"}
	systems        = []string{"system1", "system2", "system3"}
	toqs           = []float64{0.90, 0.95}
)

// combo is one decision request.
type combo struct {
	bench  string
	system string
	toq    float64
	set    prog.InputSet
}

func (c combo) String() string {
	return fmt.Sprintf("%s/%s/toq=%g/%s", c.bench, c.system, c.toq, c.set)
}

// request is c on the wire.
func (c combo) request() *api.ScaleRequest {
	return &api.ScaleRequest{Schema: api.Schema, Benchmark: c.bench, System: c.system,
		TOQ: c.toq, InputSet: c.set.String()}
}

// round returns every combination of the benchmarks with the systems
// and TOQs once, at the default input set, shuffled by rng. Phases run
// whole rounds, so every run measures the same mix of searches and the
// seed only orders it. (Crossing the input sets too would triple a
// round past the run length: one cold search takes about 0.5 s.)
func round(benches []string, rng *rand.Rand) []combo {
	var out []combo
	for _, b := range benches {
		for _, s := range systems {
			for _, q := range toqs {
				out = append(out, combo{b, s, q, prog.InputDefault})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// frameworks runs the one-time system inspection for every preset.
func frameworks() (map[string]*core.Framework, error) {
	fws := map[string]*core.Framework{}
	for _, name := range systems {
		sys := hw.ByName(name)
		if sys == nil {
			return nil, fmt.Errorf("unknown system %q", name)
		}
		fws[name] = core.NewFramework(sys)
	}
	return fws, nil
}

// decision is one completed search and what the checks and metrics
// need from it.
type decision struct {
	c       combo
	wall    time.Duration // workload build + Normalize + Framework.Scale
	scale   time.Duration // Framework.Scale alone
	cfg     *prog.Config
	quality float64
	speedup float64
	trials  int
	stats   prog.EvalStats // this search's share of the EvalCache counters
	body    []byte         // the canonical decision document

	// Progress attribution, traced decisions only.
	profile   time.Duration
	trialGaps []time.Duration // gaps ending in an executed trial
	memoGaps  []time.Duration // gaps ending in a memoized trial
}

// mark is one Progress milestone and when it arrived.
type mark struct {
	kind string
	memo bool
	at   time.Time
}

// scaleOnce makes one decision the way cmd/prescaler does: a freshly
// built workload, options completed by Normalize (a fresh EvalCache
// unless cache is given, Workers = GOMAXPROCS), then Framework.Scale.
// With a tracer the search's Progress milestones become child spans.
func scaleOnce(ctx context.Context, fw *core.Framework, c combo, cache *prog.EvalCache, tr *tracer) (*decision, error) {
	start := time.Now()
	w := polybench.ByName(c.bench)
	if w == nil {
		return nil, fmt.Errorf("%v: unknown benchmark", c)
	}
	opts, err := scaler.Options{
		TOQ: c.toq, InputSet: c.set, Retries: scaler.DefaultOptions().Retries, EvalCache: cache,
	}.Normalize()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	var marks []mark
	if tr != nil {
		opts.Progress = func(ev scaler.ProgressEvent) {
			marks = append(marks, mark{ev.Kind, ev.Memoized, time.Now()})
		}
	}
	before := opts.EvalCache.Stats()
	scaleStart := time.Now()
	sp, err := fw.Scale(ctx, w, opts)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	after := opts.EvalCache.Stats()
	res := sp.Search
	var buf bytes.Buffer
	if err := api.EncodeDecision(&buf, api.NewDecision(fw.System(), w, res, opts.TOQ, opts.InputSet)); err != nil {
		return nil, fmt.Errorf("%v: encode: %w", c, err)
	}
	d := &decision{c: c, wall: end.Sub(start), scale: end.Sub(scaleStart), cfg: sp.Config,
		quality: res.Quality, speedup: res.Speedup, trials: res.Trials, body: buf.Bytes(),
		stats: prog.EvalStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			OpsSkipped: after.OpsSkipped - before.OpsSkipped}}
	if tr != nil {
		d.attribute(tr, marks, start, scaleStart, end)
	}
	return d, nil
}

// attribute records the decision's spans — the request, the workload
// build, Framework.Scale, and under it the profiling run and one span
// per trial covering the gap since the previous milestone — and keeps
// the gaps for the scaler.* metrics. What no gap covers is
// Framework.Scale's self time: the unattributed overhead.
func (d *decision) attribute(tr *tracer, marks []mark, start, scaleStart, end time.Time) {
	root, scale := tr.id(), tr.id()
	tr.record(root, "request", root, 0, start, end)
	tr.record(tr.id(), "polybench.build", root, root, start, scaleStart)
	tr.record(scale, "core.scale", root, root, scaleStart, end)
	prev := scaleStart
	for _, mk := range marks {
		gap := mk.at.Sub(prev)
		switch {
		case mk.kind == "profile":
			d.profile += gap
			tr.record(tr.id(), "scaler.profile", root, scale, prev, mk.at)
		case mk.kind == "trial" && mk.memo:
			d.memoGaps = append(d.memoGaps, gap)
			tr.record(tr.id(), "scaler.memo", root, scale, prev, mk.at)
		case mk.kind == "trial":
			d.trialGaps = append(d.trialGaps, gap)
			tr.record(tr.id(), "scaler.trial", root, scale, prev, mk.at)
		}
		prev = mk.at
	}
}

// firstPerBench picks each benchmark's first decision, in name order.
func firstPerBench(ds []*decision) []*decision {
	seen := map[string]bool{}
	var out []*decision
	for _, d := range ds {
		if !seen[d.c.bench] {
			seen[d.c.bench] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].c.bench < out[j].c.bench })
	return out
}

// searchWorkload is search-compute or search-data: sequential cold
// decisions on the cmd/prescaler path, one caller, closed loop.
type searchWorkload struct {
	b       *bench
	benches []string
	fws     map[string]*core.Framework
}

func (s *searchWorkload) setup(ctx context.Context) error {
	fws, err := frameworks()
	if err != nil {
		return err
	}
	s.fws = fws
	// The first decisions of a process run up to 1.7x slower; one untimed
	// warm-up decision keeps that out of the timed phase.
	_, err = scaleOnce(ctx, s.fws[systems[0]], combo{s.benches[0], systems[0], toqs[0], prog.InputDefault}, nil, nil)
	return err
}

func (s *searchWorkload) verifySetup(context.Context) {}

func (s *searchWorkload) close() {}

// phase runs whole rounds: one when fixed, else until the run length has
// passed.
func (s *searchWorkload) phase(ctx context.Context, tr *tracer, fixed bool) (*phase, error) {
	p := &phase{}
	start, cpuStart := time.Now(), cpuTime()
	for {
		for _, c := range round(s.benches, s.b.rng) {
			c0 := cpuTime()
			d, err := scaleOnce(ctx, s.fws[c.system], c, nil, tr)
			cpu := cpuTime() - c0
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			s.b.count(err)
			if err != nil {
				continue
			}
			p.ops++
			p.searches = append(p.searches, d)
			p.decision = append(p.decision, ms(d.wall))
			p.decisionCPU = append(p.decisionCPU, ms(cpu))
			p.speedup = append(p.speedup, d.speedup)
			p.trials = append(p.trials, float64(d.trials))
		}
		if fixed || time.Since(start) >= s.b.seconds {
			break
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpuStart
	return p, nil
}

// verify re-executes every distinct decision's configuration with an
// uncached prog.Run: its quality against the baseline run must reach the
// TOQ and equal, bit for bit, the quality the search reported. Every
// decision of one combination must also have produced the same document.
func (s *searchWorkload) verify(_ context.Context, p *phase) {
	first := map[combo]*decision{}
	verdict := map[combo]error{}
	refs := map[combo]*prog.Result{} // baseline runs, keyed without the TOQ
	for _, d := range p.searches {
		f, seen := first[d.c]
		if !seen {
			first[d.c], f = d, d
			verdict[d.c] = s.recheck(d, refs)
		}
		err := verdict[d.c]
		if err == nil && !bytes.Equal(d.body, f.body) {
			err = fmt.Errorf("%v: decision document differs between two searches", d.c)
		}
		if err != nil {
			s.b.fail(err)
		}
	}
}

// recheck re-executes one decision's configuration without a cache.
func (s *searchWorkload) recheck(d *decision, refs map[combo]*prog.Result) error {
	sys := s.fws[d.c.system].System()
	w := polybench.ByName(d.c.bench)
	key := combo{bench: d.c.bench, system: d.c.system, set: d.c.set}
	ref := refs[key]
	if ref == nil {
		var err error
		if ref, err = prog.Run(sys, w, d.c.set, nil); err != nil {
			return fmt.Errorf("%v: baseline run: %w", d.c, err)
		}
		refs[key] = ref
	}
	res, err := prog.Run(sys, w, d.c.set, d.cfg)
	if err != nil {
		return fmt.Errorf("%v: re-execution: %w", d.c, err)
	}
	q := prog.Quality(ref, res)
	if q < d.c.toq {
		return fmt.Errorf("%v: re-executed quality %.6f is below the TOQ", d.c, q)
	}
	if q != d.quality {
		return fmt.Errorf("%v: re-executed quality %v, the search reported %v", d.c, q, d.quality)
	}
	return nil
}

func (s *searchWorkload) layers(ctx context.Context, tr *tracer, untraced, traced *phase, m metrics) {
	scalerLayers(m, untraced.searches, traced.searches)
	for _, f := range fleetOnly {
		m.set(f.name, 0, f.unit)
	}
	commonLayers(ctx, s.b, tr, s.fws, s.benches, firstPerBench(untraced.searches), m)
}

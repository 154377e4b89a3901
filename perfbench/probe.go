package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/api"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/polybench"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/service"
)

// allBenches names every program a workload runs; each gets one
// scaler.search_ms row, 0 on the workloads that do not run it.
var allBenches = []string{"2MM", "3MM", "ATAX", "BICG", "CORR", "COVAR", "GEMM", "GESUMMV", "MVT", "SYR2K", "SYRK"}

// fleetOnly lists the per-layer metrics only service-fleet traffic
// produces; the search workloads report them as 0.
var fleetOnly = []struct{ name, unit string }{
	{"hit_p50_ms", "ms"}, {"hit_p99_ms", "ms"}, {"proxied_p50_ms", "ms"},
	{"service.network_ms", "ms"}, {"cluster.proxy_hop_ms", "ms"},
	{"service.hit_count", "count"}, {"service.remote_count", "count"},
	{"service.miss_count", "count"}, {"service.coalesced_count", "count"},
	{"service.shed_count", "count"}, {"service.fallback_count", "count"},
}

// probe runs fn n times, recording each call as a root span named name,
// and returns the median wall time of one call.
func probe(tr *tracer, name string, n int, fn func() error) (time.Duration, error) {
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		tr.root(name, t0, t1)
		walls = append(walls, float64(t1.Sub(t0)))
	}
	return time.Duration(median(walls)), nil
}

// scalerLayers fills the scaler.* and prog.evalcache metrics: the
// Progress attribution of the traced decisions, and the Framework.Scale
// wall and EvalCache counters of the untraced ones.
func scalerLayers(m metrics, untraced, traced []*decision) {
	var profile, trial []float64
	var memo, exec int
	var attributed, scale time.Duration
	for _, d := range traced {
		profile = append(profile, ms(d.profile))
		attributed += d.profile
		for _, g := range d.trialGaps {
			trial = append(trial, ms(g))
			attributed += g
		}
		for _, g := range d.memoGaps {
			attributed += g
		}
		exec += len(d.trialGaps)
		memo += len(d.memoGaps)
		scale += d.scale
	}
	m.set("scaler.profile_ms", median(profile), "ms")
	m.set("scaler.trial_ms", median(trial), "ms")
	m.set("scaler.memo_frac", frac(float64(memo), float64(memo+exec)), "frac")
	m.set("scaler.unattributed_frac", 1-frac(float64(attributed), float64(scale)), "frac")

	perBench := map[string][]float64{}
	var hits, misses, skipped int64
	for _, d := range untraced {
		perBench[d.c.bench] = append(perBench[d.c.bench], ms(d.scale))
		hits += d.stats.Hits
		misses += d.stats.Misses
		skipped += d.stats.OpsSkipped
	}
	for _, name := range allBenches {
		m.set("scaler.search_ms."+name, median(perBench[name]), "ms")
	}
	m.set("prog.evalcache_hit_frac", frac(float64(hits), float64(hits+misses)), "frac")
	m.set("prog.ops_skipped", frac(float64(skipped), float64(len(untraced))), "count")
}

// commonLayers times each layer the workload's decisions pass through,
// from outside, through the layer's public functions; it runs after the
// timed phases so the probes never disturb them. chosen holds one
// decision per benchmark, whose configuration the trial and API probes
// replay.
func commonLayers(ctx context.Context, b *bench, tr *tracer, fws map[string]*core.Framework, benches []string, chosen []*decision, m metrics) {
	if len(chosen) == 0 {
		b.count(errors.New("layer probes: no decision to replay"))
		return
	}
	kirLayer(b, tr, benches, m)
	trialLayer(b, tr, fws, chosen, m)
	convertLayer(b, tr, benches, m)
	inspectLayer(b, tr, fws, benches, m)
	apiLayer(b, tr, chosen, m)
	serviceLayer(ctx, b, tr, chosen[0].c, m)
}

// kernelLaunch mirrors one x.Launch call of a benchmark's Script: the
// buffer arguments (object names in parameter order), the NDRange and
// the scalar int arguments.
type kernelLaunch struct {
	kernel string
	bufs   []string
	global [2]int
	args   []int64
}

// launches lists a benchmark's kernel launches in Script order, sized
// from its objects so they follow a change of problem size. kirLayer
// checks every entry against the counts of a real prog.Run.
func launches(w *prog.Workload) ([]kernelLaunch, error) {
	ls := launchTable(w)
	if ls == nil {
		return nil, fmt.Errorf("no launch table for %s", w.Name)
	}
	for _, l := range ls {
		if l.global[0] <= 0 || l.global[1] <= 0 {
			return nil, fmt.Errorf("%s/%s: objects no longer give the NDRange", w.Name, l.kernel)
		}
		for _, obj := range l.bufs {
			if w.Object(obj) == nil {
				return nil, fmt.Errorf("%s/%s: no object %q", w.Name, l.kernel, obj)
			}
		}
	}
	return ls, nil
}

func launchTable(w *prog.Workload) []kernelLaunch {
	size := func(obj string) int {
		if o := w.Object(obj); o != nil {
			return o.Len
		}
		return 0
	}
	side := func(obj string) int { return int(math.Round(math.Sqrt(float64(size(obj))))) }
	div := func(a, b int) int {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l := func(kernel string, bufs []string, gx, gy int, args ...int) kernelLaunch {
		a := make([]int64, len(args))
		for i, v := range args {
			a[i] = int64(v)
		}
		return kernelLaunch{kernel: kernel, bufs: bufs, global: [2]int{gx, gy}, args: a}
	}
	switch w.Name {
	case "GEMM":
		n := side("C")
		return []kernelLaunch{l("gemm", []string{"A", "B", "C"}, n, n, n, n, n)}
	case "2MM":
		n := side("D")
		return []kernelLaunch{
			l("mm2_k1", []string{"A", "B", "tmp"}, n, n, n, n, n),
			l("mm2_k2", []string{"tmp", "C", "D"}, n, n, n, n, n),
		}
	case "3MM":
		n := side("G")
		return []kernelLaunch{
			l("mm3_k1", []string{"A", "B", "E"}, n, n, n, n, n),
			l("mm3_k2", []string{"C", "D", "F"}, n, n, n, n, n),
			l("mm3_k3", []string{"E", "F", "G"}, n, n, n, n, n),
		}
	case "SYRK":
		n := side("C")
		return []kernelLaunch{l("syrk", []string{"A", "C"}, n, n, n, div(size("A"), n))}
	case "SYR2K":
		n := side("C")
		return []kernelLaunch{l("syr2k", []string{"A", "B", "C"}, n, n, n, div(size("A"), n))}
	case "CORR":
		m := size("mean")
		n := div(size("data"), m)
		return []kernelLaunch{
			l("corr_mean", []string{"data", "mean"}, m, 1, n, m),
			l("corr_std", []string{"data", "mean", "std"}, m, 1, n, m),
			l("corr_center", []string{"data", "mean", "std"}, n, m, n, m),
			l("corr_mat", []string{"data", "symmat"}, m, 1, n, m),
		}
	case "COVAR":
		m := size("mean")
		n := div(size("data"), m)
		return []kernelLaunch{
			l("covar_mean", []string{"data", "mean"}, m, 1, n, m),
			l("covar_center", []string{"data", "mean"}, n, m, n, m),
			l("covar_mat", []string{"data", "symmat"}, m, 1, n, m),
		}
	case "ATAX":
		nx, ny := size("tmp"), size("x")
		return []kernelLaunch{
			l("atax_k1", []string{"A", "x", "tmp"}, nx, 1, nx, ny),
			l("atax_k2", []string{"A", "tmp", "y"}, ny, 1, nx, ny),
		}
	case "BICG":
		nx, ny := size("r"), size("p")
		return []kernelLaunch{
			l("bicg_q", []string{"A", "p", "q"}, nx, 1, nx, ny),
			l("bicg_s", []string{"A", "r", "s"}, ny, 1, nx, ny),
		}
	case "GESUMMV":
		n := size("x")
		return []kernelLaunch{l("gesummv", []string{"A", "B", "x", "y"}, n, 1, n)}
	case "MVT":
		n := size("x1")
		return []kernelLaunch{
			l("mvt_k1", []string{"A", "y1", "x1"}, n, 1, n),
			l("mvt_k2", []string{"A", "y2", "x2"}, n, 1, n),
		}
	}
	return nil
}

// env materializes a launch's arguments under cfg (nil: the baseline)
// the way prog's executor binds them: each object at its storage
// precision, in-kernel targets as ComputeAs. Inputs hold the benchmark's
// input data; every other buffer starts zeroed, as on a device.
func (l kernelLaunch) env(w *prog.Workload, inputs map[string][]float64, cfg *prog.Config) *kir.ExecEnv {
	bufs := make([]*precision.Array, len(l.bufs))
	var computeAs []precision.Type
	for i, obj := range l.bufs {
		var oc prog.ObjectConfig
		if cfg != nil {
			oc = cfg.Objects[obj]
		}
		storage := storageOf(w, oc)
		if oc.InKernel && oc.Target.Valid() && oc.Target != w.Original {
			if computeAs == nil {
				computeAs = make([]precision.Type, len(l.bufs))
			}
			computeAs[i] = oc.Target
		}
		if data, ok := inputs[obj]; ok {
			bufs[i] = precision.FromSlice(storage, data)
		} else {
			bufs[i] = precision.NewArray(storage, w.Object(obj).Len)
		}
	}
	return &kir.ExecEnv{Bufs: bufs, ComputeAs: computeAs, IntArgs: l.args, Global: l.global}
}

// storageOf is the device precision prog stores an object at.
func storageOf(w *prog.Workload, oc prog.ObjectConfig) precision.Type {
	if oc.InKernel || !oc.Target.Valid() {
		return w.Original
	}
	return oc.Target
}

// planFor is the plan prog uses for an object's event-th transfer: the
// configured one, else the default host plan.
func planFor(sys *hw.System, w *prog.Workload, oc prog.ObjectConfig, event int) convert.Plan {
	if event < len(oc.Plans) {
		return oc.Plans[event]
	}
	return prog.DefaultPlan(&sys.CPU, w.Original, storageOf(w, oc))
}

// kernelCounts is an ocl.Hook that collects the name and dynamic counts
// of every kernel event of a run.
type kernelCounts struct {
	names  []string
	counts []kir.Counts
}

func (k *kernelCounts) BufferCreated(*ocl.Buffer) {}

func (k *kernelCounts) EventRecorded(e ocl.Event) {
	if e.Kind == ocl.EvKernel {
		k.names = append(k.names, e.Kernel)
		k.counts = append(k.counts, e.Counts)
	}
}

// sameCounts reports whether a probe's kernel run did exactly the work
// of the same launch inside prog.Run.
func sameCounts(got, want kir.Counts) bool {
	return got.WorkItems == want.WorkItems && got.IntOps == want.IntOps &&
		got.TotalFlops() == want.TotalFlops() &&
		got.LoadBytes == want.LoadBytes && got.StoreBytes == want.StoreBytes
}

// kirLayer times (*kir.Program).Run on every kernel launch of the
// workload's benchmarks at the baseline binding: the first run on a
// freshly built workload, which builds the batch tape (the CLI and the
// daemon rebuild workloads per request), and the median of steady runs
// after it. Every launch must do exactly the work of the same launch
// inside a real prog.Run, which keeps the launch table honest.
func kirLayer(b *bench, tr *tracer, benches []string, m metrics) {
	var steady, build time.Duration
	var items int
	for _, name := range benches {
		err := func() error {
			fresh := polybench.ByName(name)
			ls, err := launches(fresh)
			if err != nil {
				return err
			}
			want := &kernelCounts{}
			if _, err := prog.Run(hw.System1(), polybench.ByName(name), prog.InputDefault, nil, want); err != nil {
				return err
			}
			if len(want.names) != len(ls) {
				return fmt.Errorf("kir probe %s: prog.Run launched %d kernels, the table has %d", name, len(want.names), len(ls))
			}
			inputs := fresh.MakeInputs(prog.InputDefault)
			for i, l := range ls {
				p := fresh.Kernels[l.kernel]
				if p == nil || want.names[i] != l.kernel {
					return fmt.Errorf("kir probe %s: launch %d is %s, the table has %s", name, i, want.names[i], l.kernel)
				}
				env := l.env(fresh, inputs, nil)
				t0 := time.Now()
				got, err := p.Run(env)
				t1 := time.Now()
				if err != nil {
					return err
				}
				tr.root("kir.first_run", t0, t1)
				if !sameCounts(got, want.counts[i]) {
					return fmt.Errorf("kir probe %s/%s: counts %+v, prog.Run counted %+v", name, l.kernel, got, want.counts[i])
				}
				d, err := probe(tr, "kir.run", 5, func() error { _, err := p.Run(env); return err })
				if err != nil {
					return err
				}
				steady += d
				items += got.WorkItems
				build += t1.Sub(t0) - d
			}
			return nil
		}()
		b.count(err)
	}
	m.set("kir.ns_per_item", frac(float64(steady), float64(items)), "ns")
	m.set("kir.tape_build_ms", ms(build)/float64(len(benches)), "ms")
}

// trialLayer times one trial of each chosen configuration: prog.Run
// without a cache (cold) and prog.RunWithCache against a cache one run
// primed (cached). It also replays the cold trial part by part through
// the layers' public functions, which splits it into kir, convert and
// prog self time.
func trialLayer(b *bench, tr *tracer, fws map[string]*core.Framework, chosen []*decision, m metrics) {
	var cold, cached []float64
	var trial, kirT, convT time.Duration
	var errs []error
	for _, d := range chosen {
		err := func() error {
			sys := fws[d.c.system].System()
			w := polybench.ByName(d.c.bench)
			run := func() error { _, err := prog.Run(sys, w, d.c.set, d.cfg); return err }
			if err := run(); err != nil { // builds the batch tapes
				return err
			}
			c, err := probe(tr, "prog.run", 3, run)
			if err != nil {
				return err
			}
			cache := prog.NewEvalCache()
			runCached := func() error { _, err := prog.RunWithCache(sys, w, d.c.set, d.cfg, cache); return err }
			if err := runCached(); err != nil {
				return err
			}
			h, err := probe(tr, "prog.run_cached", 3, runCached)
			if err != nil {
				return err
			}
			k, cv, err := replayTrial(tr, sys, w, d.c.set, d.cfg)
			if err != nil {
				return err
			}
			cold, cached = append(cold, ms(c)), append(cached, ms(h))
			trial, kirT, convT = trial+c, kirT+k, convT+cv
			return nil
		}()
		if err != nil {
			errs = append(errs, fmt.Errorf("trial probe %v: %w", d.c, err))
		}
	}
	b.count(errors.Join(errs...))
	m.set("prog.trial_cold_ms", median(cold), "ms")
	m.set("prog.trial_cached_ms", median(cached), "ms")
	m.set("trial.kir_share", frac(float64(kirT), float64(trial)), "frac")
	m.set("trial.convert_share", frac(float64(convT), float64(trial)), "frac")
}

// replayTrial runs one trial's parts one at a time, each object at the
// precision and plan cfg gives it: the HtoD transfer of every written
// object, every kernel launch, the DtoH transfer of every read object.
// It returns the summed median time of the kernels and of the transfers.
func replayTrial(tr *tracer, sys *hw.System, w *prog.Workload, set prog.InputSet, cfg *prog.Config) (kirT, convT time.Duration, err error) {
	ls, err := launches(w)
	if err != nil {
		return 0, 0, err
	}
	inputs := w.MakeInputs(set)
	for _, obj := range w.Objects {
		oc := cfg.Objects[obj.Name]
		storage := storageOf(w, oc)
		if obj.Kind == prog.ObjInput || obj.Kind == prog.ObjInOut {
			host := precision.FromSlice(w.Original, inputs[obj.Name])
			plan := planFor(sys, w, oc, 0)
			d, err := probe(tr, "trial.htod", 3, func() error {
				_, err := convert.ExecuteHtoD(ocl.NewQueue(ocl.NewContext(sys)), obj.Name, host, storage, plan)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			convT += d
		}
		if obj.Kind == prog.ObjOutput || obj.Kind == prog.ObjInOut {
			event := 0
			if obj.Kind == prog.ObjInOut {
				event = 1
			}
			plan := planFor(sys, w, oc, event)
			cl := ocl.NewContext(sys)
			dev, err := cl.CreateBuffer(obj.Name, storage, obj.Len)
			if err != nil {
				return 0, 0, err
			}
			d, err := probe(tr, "trial.dtoh", 3, func() error {
				_, err := convert.ExecuteDtoH(ocl.NewQueue(cl), dev, w.Original, plan)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			convT += d
		}
	}
	for _, l := range ls {
		p, env := w.Kernels[l.kernel], l.env(w, inputs, cfg)
		d, err := probe(tr, "trial.kir", 3, func() error { _, err := p.Run(env); return err })
		if err != nil {
			return 0, 0, err
		}
		kirT += d
	}
	return kirT, convT, nil
}

// convertLayer times convert.ExecuteHtoD on every object the workload's
// benchmarks write and convert.ExecuteDtoH on every object they read, at
// full size, to half and to single precision under the default host
// plan; and precision.RoundSlice on the largest object.
func convertLayer(b *bench, tr *tracer, benches []string, m metrics) {
	sys := hw.System1()
	var htod, dtoh time.Duration
	var largest []float64
	var errs []error
	for _, name := range benches {
		w := polybench.ByName(name)
		inputs := w.MakeInputs(prog.InputDefault)
		for _, obj := range w.Objects {
			data, ok := inputs[obj.Name]
			if !ok {
				data = make([]float64, obj.Len)
			}
			if len(data) > len(largest) {
				largest = data
			}
			host := precision.FromSlice(w.Original, data)
			for _, t := range []precision.Type{precision.Half, precision.Single} {
				plan := prog.DefaultPlan(&sys.CPU, w.Original, t)
				if obj.Kind == prog.ObjInput || obj.Kind == prog.ObjInOut {
					d, err := probe(tr, "convert.htod", 3, func() error {
						_, err := convert.ExecuteHtoD(ocl.NewQueue(ocl.NewContext(sys)), obj.Name, host, t, plan)
						return err
					})
					htod += d
					errs = append(errs, err)
				}
				if obj.Kind == prog.ObjOutput || obj.Kind == prog.ObjInOut {
					cl := ocl.NewContext(sys)
					dev, err := cl.CreateBuffer(obj.Name, t, obj.Len)
					if err != nil {
						errs = append(errs, err)
						continue
					}
					dev.Array().CopyFrom(host)
					d, err := probe(tr, "convert.dtoh", 3, func() error {
						_, err := convert.ExecuteDtoH(ocl.NewQueue(cl), dev, w.Original, plan)
						return err
					})
					dtoh += d
					errs = append(errs, err)
				}
			}
		}
	}
	dst := make([]float64, len(largest))
	var perElem []float64
	for _, t := range []precision.Type{precision.Half, precision.Single} {
		d, err := probe(tr, "precision.round", 5, func() error { precision.RoundSlice(dst, largest, t); return nil })
		errs = append(errs, err)
		perElem = append(perElem, frac(float64(d), float64(len(largest))))
	}
	b.count(errors.Join(errs...))
	n := float64(len(benches))
	m.set("convert.htod_ms", ms(htod)/n, "ms")
	m.set("convert.dtoh_ms", ms(dtoh)/n, "ms")
	m.set("precision.round_ns_per_elem", mean(perElem), "ns")
}

// inspectLayer times inspect.DB.BestPlan on each system's warm database
// for the sizes of the workload's objects, in both directions.
func inspectLayer(b *bench, tr *tracer, fws map[string]*core.Framework, benches []string, m metrics) {
	var sizes []int
	for _, name := range benches {
		for _, o := range polybench.ByName(name).Objects {
			sizes = append(sizes, o.Len)
		}
	}
	mids := []precision.Type{precision.Half, precision.Single, precision.Double}
	const calls = 200
	var perCall []float64
	var errs []error
	for _, name := range systems {
		db := fws[name].DB()
		d, err := probe(tr, "inspect.bestplan", 5, func() error {
			for i := 0; i < calls; i++ {
				n := sizes[i%len(sizes)]
				db.BestPlan(ocl.DirHtoD, n, precision.Double, precision.Half, mids)
				db.BestPlan(ocl.DirDtoH, n, precision.Double, precision.Single, mids)
			}
			return nil
		})
		errs = append(errs, err)
		perCall = append(perCall, float64(d)/1e3/(2*calls))
	}
	b.count(errors.Join(errs...))
	m.set("inspect.bestplan_us", median(perCall), "us")
}

// apiLayer times api.DecodeScaleRequest on the chosen decisions'
// requests and api.EncodeDecision on their documents; re-encoding a
// decoded document must give back its exact bytes.
func apiLayer(b *bench, tr *tracer, chosen []*decision, m metrics) {
	var reqs [][]byte
	var docs []*api.Decision
	var errs []error
	for _, d := range chosen {
		req, err := json.Marshal(d.c.request())
		if err != nil {
			errs = append(errs, err)
			continue
		}
		reqs = append(reqs, req)
		var doc api.Decision
		if err := json.Unmarshal(d.body, &doc); err != nil {
			errs = append(errs, err)
			continue
		}
		var buf bytes.Buffer
		if err := api.EncodeDecision(&buf, &doc); err != nil || !bytes.Equal(buf.Bytes(), d.body) {
			errs = append(errs, fmt.Errorf("api probe %v: the re-encoded document differs (%v)", d.c, err))
		}
		docs = append(docs, &doc)
	}
	if len(reqs) == 0 || len(docs) == 0 {
		b.count(errors.Join(append(errs, errors.New("api probe: nothing to time"))...))
		return
	}
	const calls = 100
	dec, err := probe(tr, "api.decode", 5, func() error {
		for i := 0; i < calls; i++ {
			if _, err := api.DecodeScaleRequest(bytes.NewReader(reqs[i%len(reqs)])); err != nil {
				return err
			}
		}
		return nil
	})
	errs = append(errs, err)
	var buf bytes.Buffer
	enc, err := probe(tr, "api.encode", 5, func() error {
		for i := 0; i < calls; i++ {
			buf.Reset()
			if err := api.EncodeDecision(&buf, docs[i%len(docs)]); err != nil {
				return err
			}
		}
		return nil
	})
	errs = append(errs, err)
	b.count(errors.Join(errs...))
	m.set("api.decode_us", float64(dec)/1e3/calls, "us")
	m.set("api.encode_us", float64(enc)/1e3/calls, "us")
}

// serviceLayer drives one node's Handler in process, through
// httptest.NewRecorder and without a network: POST
// /v1/scale?fingerprint=1, and POST /v1/scale for a cached decision.
func serviceLayer(ctx context.Context, b *bench, tr *tracer, c combo, m metrics) {
	err := func() error {
		srv, err := service.New(service.Config{})
		if err != nil {
			return err
		}
		defer srv.Close() // no journal is configured, so there is nothing to flush
		h := srv.Handler()
		body, err := json.Marshal(c.request())
		if err != nil {
			return err
		}
		post := func(target string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)).WithContext(ctx)
			h.ServeHTTP(rec, req)
			return rec
		}
		first := post("/v1/scale")
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
			return fmt.Errorf("service probe %v: first request answered %d, X-Cache %q", c, first.Code, first.Header().Get("X-Cache"))
		}
		want := first.Body.Bytes()
		fp, err := probe(tr, "service.fingerprint", 50, func() error {
			if rec := post("/v1/scale?fingerprint=1"); rec.Code != http.StatusOK {
				return fmt.Errorf("fingerprint answered %d", rec.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		hit, err := probe(tr, "service.hit_handler", 50, func() error {
			rec := post("/v1/scale")
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want) {
				return fmt.Errorf("hit answered %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set("service.fingerprint_ms", ms(fp), "ms")
		m.set("service.hit_handler_ms", ms(hit), "ms")
		return nil
	}()
	b.count(err)
}

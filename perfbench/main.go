// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public entry points of internal/core,
// internal/service and internal/api/client, checks every output, and
// prints the metrics; README.md in this directory says why each workload
// and metric was chosen and what is deliberately not measured.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	python3 perfbench/run.py --workload search-compute --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics of an untraced run. With --trace 1 the workload runs a fixed
// amount of work untraced and then the same work traced, every layer is
// timed through its public functions, the last line carries the
// per-layer metrics, and the spans are written to
// .bench_build/trace/<workload>-seed<seed>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLimit bounds one invocation below the 180 s a run is allowed.
const runLimit = 170 * time.Second

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median. A traced run sets up once.
const setupReps = 3

// workload is one benchmark workload.
type workload interface {
	// setup is the timed set-up: everything before the first timed request.
	setup(ctx context.Context) error
	// verifySetup checks, untimed, what setup produced.
	verifySetup(ctx context.Context)
	// phase runs the timed requests: a fixed amount of work when fixed is
	// set, else whole rounds until the run length has passed.
	phase(ctx context.Context, tr *tracer, fixed bool) (*phase, error)
	// verify checks the outputs of a phase.
	verify(ctx context.Context, ph *phase)
	// layers runs the layer probes and fills the per-layer metrics.
	layers(ctx context.Context, tr *tracer, untraced, traced *phase, m metrics)
	// close releases what setup started.
	close()
}

var workloads = map[string]func(*bench) workload{
	"search-compute": func(b *bench) workload { return &searchWorkload{b: b, benches: computeBenches} },
	"search-data":    func(b *bench) workload { return &searchWorkload{b: b, benches: dataBenches} },
	"service-fleet":  func(b *bench) workload { return &fleetWorkload{b: b} },
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is one invocation: its settings, the seeded source of every
// request, and the tally of attempted and failed operations.
type bench struct {
	name      string
	seed      int64
	seconds   time.Duration
	rng       *rand.Rand
	attempted int
	failed    int
}

// count records one attempted operation, failed when err is non-nil.
func (b *bench) count(err error) {
	b.attempted++
	if err != nil {
		b.fail(err)
	}
}

// fail records a failed check of an operation already counted.
func (b *bench) fail(err error) {
	b.failed++
	if b.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", err)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the request stream is drawn from")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	flag.Parse()
	newWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds N --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		rng: rand.New(rand.NewSource(*seed))}
	res, err := b.run(newWorkload, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	report(os.Stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run sets the workload up, runs its timed phase and checks the outputs;
// in traced mode it then runs the traced phase and the layer probes. The
// whole run stops at runLimit.
func (b *bench) run(newWorkload func(*bench) workload, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	reps := setupReps
	if traced {
		reps = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(b)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	w.verifySetup(ctx)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := w.phase(ctx, nil, traced)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	ops := float64(max(ph.ops, 1))
	ph.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / ops
	ph.gcCycles = float64(after.NumGC-before.NumGC) / ops
	w.verify(ctx, ph)
	describe(os.Stderr, "timed phase", ph)

	m := metrics{}
	if !traced {
		ph.endToEnd(m)
		m.set("setup_s", median(setups), "s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		tr := newTracer()
		tph, err := w.phase(ctx, tr, true)
		if err != nil {
			return nil, err
		}
		w.verify(ctx, tph)
		describe(os.Stderr, "traced phase", tph)
		w.layers(ctx, tr, ph, tph, m)
		ph.wallClock(m)
		m.set("runtime.alloc_mb_per_decision", ph.allocMB, "MB")
		m.set("runtime.gc_cycles_per_decision", ph.gcCycles, "count")
		m.set("trace.overhead_frac", ph.throughput()/tph.throughput()-1, "frac")
		compare(os.Stderr, ph, tph)
		self := tr.selfTimes()
		printSelf(os.Stderr, self)
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
		if err := tr.save(path, self); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// phase holds the samples of one timed phase.
type phase struct {
	wall        time.Duration
	cpu         time.Duration // process CPU time over the phase
	ops         int           // requests or decisions completed
	decision    []float64     // wall ms: requests that ran a search
	decisionCPU []float64     // process CPU ms of the same requests
	hit         []float64     // ms: answered from the local cache (service-fleet)
	proxied     []float64     // ms: proxied to the owner's cache (service-fleet)
	speedup     []float64     // Speedup of the decisions
	trials      []float64     // Result.Trials of the decisions
	allocMB     float64       // heap allocated per completed op
	gcCycles    float64       // GC cycles per completed op

	searches []*decision    // search-*: every decision, in order
	misses   []missResult   // service-fleet: every warm miss
	counts   map[string]int // service-fleet: answers per X-Cache state and route
}

func (p *phase) throughput() float64 { return float64(p.ops) / p.wall.Seconds() }

// endToEnd fills the metrics a user of the system sees. Request costs
// are process CPU time, which leaves out the time the host steals from
// the virtual CPUs (see cpuTime); the wall-clock figures are per-layer
// metrics (wallClock).
func (p *phase) endToEnd(m metrics) {
	m.set("decision_cpu_p50_ms", quantile(p.decisionCPU, 0.50), "ms")
	m.set("decision_cpu_p90_ms", quantile(p.decisionCPU, 0.90), "ms")
	m.set("cpu_ms_per_request", frac(ms(p.cpu), float64(p.ops)), "ms")
	m.set("speedup_geomean", geomean(p.speedup), "x")
	m.set("trials_per_decision", mean(p.trials), "count")
}

// wallClock fills the wall-clock latency of the requests that ran a
// search and the phase's throughput.
func (p *phase) wallClock(m metrics) {
	m.set("wall.decision_p50_ms", quantile(p.decision, 0.50), "ms")
	m.set("wall.decision_p90_ms", quantile(p.decision, 0.90), "ms")
	m.set("wall.throughput_rps", p.throughput(), "1/s")
}

// describe prints a phase's sample counts, which bound the percentiles
// that can be trusted.
func describe(w io.Writer, label string, p *phase) {
	fmt.Fprintf(w, "%s: %d ops in %.2f s; samples: %d decisions, %d hits, %d proxied\n",
		label, p.ops, p.wall.Seconds(), len(p.decision), len(p.hit), len(p.proxied))
}

// report prints every metric by name with its unit, then the fraction of
// operations that failed or failed a check.
func report(w io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-34s %14.4f frac (%d of %d operations)\n", "failed_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
}

// compare prints the untraced and traced phases' end-to-end numbers side
// by side; the phases do the same work, so the difference is the tracing
// overhead.
func compare(w io.Writer, untraced, traced *phase) {
	a, b := metrics{}, metrics{}
	untraced.endToEnd(a)
	untraced.wallClock(a)
	traced.endToEnd(b)
	traced.wallClock(b)
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %12s %12s\n", "end-to-end", "untraced", "traced")
	for _, n := range names {
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %s\n", n, a[n].Value, b[n].Value, a[n].Unit)
	}
}

// printSelf prints the traced run's time per span name.
func printSelf(w io.Writer, self []selfTime) {
	fmt.Fprintf(w, "%-24s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range self {
		fmt.Fprintf(w, "%-24s %7d %12.2f %12.2f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
}

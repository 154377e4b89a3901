// Command experiments regenerates the paper's tables and figures — the
// analog of the artifact's `run_all.sh` driving all benchmarks and
// logging CSV results.
//
// Usage:
//
//	experiments -exp all                 # everything (slow: full suite, 3 systems)
//	experiments -exp fig9                # one experiment
//	experiments -exp fig9,fig10b -quick  # reduced-size suite, for smoke runs
//	experiments -exp all -csv out/       # also write one CSV per table
//
// Experiments: table1 table3 table4 fig4 fig5 fig6 fig9 fig9dist fig10a
// fig10b fig11 fig12 ablation noise all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/exper"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// checkGoldenTrials compares the per-benchmark trial counts of the
// generated fig9 reports against a checked-in golden report (the same
// JSON schema WriteBenchReports emits). Any drift — a changed count, a
// missing benchmark, or a benchmark absent from the golden — is an
// error: the decision maker's trial count is a deterministic property
// of the search, so a drift means its behavior changed.
func checkGoldenTrials(path string, reports []*exper.BenchReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var golden []*exper.BenchReport
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	type counts struct{ inKernel, pfp, prescaler int }
	want := map[string]counts{}
	for _, rep := range golden {
		for _, b := range rep.Benchmarks {
			want[rep.System+"/"+b.Benchmark] = counts{b.InKernelTrials, b.PFPTrials, b.PreScalerTrials}
		}
	}
	seen := map[string]bool{}
	var drifts []string
	for _, rep := range reports {
		for _, b := range rep.Benchmarks {
			key := rep.System + "/" + b.Benchmark
			seen[key] = true
			w, ok := want[key]
			if !ok {
				drifts = append(drifts, fmt.Sprintf("%s: not in golden", key))
				continue
			}
			got := counts{b.InKernelTrials, b.PFPTrials, b.PreScalerTrials}
			if got != w {
				drifts = append(drifts, fmt.Sprintf("%s: trials in-kernel/pfp/prescaler %d/%d/%d, golden %d/%d/%d",
					key, got.inKernel, got.pfp, got.prescaler, w.inKernel, w.pfp, w.prescaler))
			}
		}
	}
	for key := range want {
		if !seen[key] {
			drifts = append(drifts, fmt.Sprintf("%s: in golden but not measured", key))
		}
	}
	if len(drifts) > 0 {
		sort.Strings(drifts)
		return fmt.Errorf("trial counts drifted from %s:\n  %s", path, strings.Join(drifts, "\n  "))
	}
	return nil
}

func main() {
	exps := flag.String("exp", "all", "comma-separated experiment ids (see package doc)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files (created if missing)")
	quick := flag.Bool("quick", false, "use the reduced-size benchmark suite")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	only := flag.String("benchmarks", "", "comma-separated benchmark names to restrict the suite (default: all 14)")
	traceDir := flag.String("trace-dir", "", "directory to write one Chrome pipeline trace per benchmark (system1; created if missing)")
	fig9JSON := flag.String("fig9-json", filepath.Join("results", "bench_fig9.json"), "path of the machine-readable fig9 report (written when fig9 runs)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "number of parallel measurement workers (results are byte-identical for any value)")
	goldenTrials := flag.String("golden-trials", "", "golden fig9 JSON to compare per-benchmark trial counts against; exit 1 on drift")
	cacheStats := flag.String("cache-stats", "", "write wall time and evalcache counters as JSON to this file when done")
	faults := flag.String("faults", "", `inject deterministic runtime faults, e.g. "write:0.01,launch:0.005,alloc:0.002,devlost:1e-4,nan:0.001" (empty disables injection)`)
	faultSeed := flag.Uint64("fault-seed", 0, "seed for the fault-injection decision stream (same spec+seed reproduces the same faults at any -j)")
	retries := flag.Int("retries", 2, "bounded retries per search trial and per measurement task after an injected fault (inert without -faults)")
	checkpointDir := flag.String("checkpoint", "", "directory for per-task result checkpoints; an interrupted run restarted with the same flags resumes without re-executing completed tasks")
	flag.Parse()
	start := time.Now()

	// Ctrl-C / SIGTERM cancels the run: the context is threaded through
	// the runner into every framework call, so an in-flight search stops
	// within one trial boundary instead of running the suite to the end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	suite := polybench.Suite()
	if *quick {
		suite = polybench.SmallSuite()
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*prog.Workload
		for _, w := range suite {
			if keep[w.Name] {
				filtered = append(filtered, w)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: -benchmarks matched nothing (known: %v)\n", polybench.Names())
			os.Exit(1)
		}
		suite = filtered
	}
	// -retries also bounds task-level re-execution, which shifts the
	// fault salt by attempt<<16; it takes the search options' check.
	if _, err := (scaler.Options{Retries: *retries}).Normalize(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	r := exper.NewRunner(suite)
	r.Ctx = ctx
	r.Jobs = *jobs
	r.Retries = *retries
	if !*quiet {
		r.Log = os.Stderr
	}
	spec, err := fault.ParseSeeded(*faults, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	r.Faults = spec
	if *checkpointDir != "" {
		ck, err := exper.NewCheckpoint(*checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		r.Checkpoint = ck
	}

	var tables []*exper.Table
	add := func(t *exper.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		tables = append(tables, t)
	}

	opts, err := scaler.DefaultOptions().Normalize()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	opts.EvalCache = nil // the runner manages per-task caches itself
	sys1 := hw.System1()
	fig9Ran := false
	for _, id := range strings.Split(*exps, ",") {
		switch strings.TrimSpace(id) {
		case "all":
			ts, err := r.All()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			tables = append(tables, ts...)
			fig9Ran = true
		case "table1":
			tables = append(tables, exper.Table1())
		case "table3":
			tables = append(tables, exper.Table3())
		case "table4":
			tables = append(tables, r.Table4())
		case "fig4":
			add(r.Fig4(sys1))
		case "fig5":
			add(r.Fig5(sys1))
		case "fig6":
			add(r.Fig6(sys1))
		case "fig9":
			for _, sys := range hw.Systems() {
				add(r.Fig9(sys, opts))
			}
			fig9Ran = true
		case "fig9dist":
			for _, sys := range hw.Systems() {
				add(r.Fig9Dist(sys, opts))
			}
		case "fig10a":
			add(r.Fig10a(sys1, opts))
		case "fig10b":
			add(r.Fig10b(sys1, opts))
		case "fig11":
			add(r.Fig11(opts))
		case "fig12":
			add(r.Fig12())
		case "ablation":
			add(r.Ablation(sys1))
		case "noise":
			add(r.NoiseSweep(sys1, []float64{0, 0.02, 0.05, 0.10, 0.20}))
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
			os.Exit(1)
		}
	}

	for _, t := range tables {
		fmt.Println(t.String())
	}

	// Machine-readable fig9 trajectory report (speedups + trial counts per
	// benchmark against the paper's headline geomeans). The comparisons
	// are already cached by the table runs, so this costs nothing extra.
	if fig9Ran && (*fig9JSON != "" || *goldenTrials != "") {
		var reports []*exper.BenchReport
		for _, sys := range hw.Systems() {
			rep, err := r.BenchFig9(sys, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			reports = append(reports, rep)
		}
		if *fig9JSON != "" {
			if err := os.MkdirAll(filepath.Dir(*fig9JSON), 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			f, err := os.Create(*fig9JSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := exper.WriteBenchReports(f, reports); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *fig9JSON)
		}
		if *goldenTrials != "" {
			if err := checkGoldenTrials(*goldenTrials, reports); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: golden trials: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trial counts match golden %s\n", *goldenTrials)
		}
	}

	// One Chrome pipeline trace per benchmark: a fresh traced PreScaler
	// search on system1 for each workload in the suite.
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fw := r.Framework(sys1)
		for _, w := range suite {
			o := obs.New()
			sOpts := opts
			sOpts.Obs = o
			sOpts.EvalCache = prog.NewEvalCache()
			if _, err := fw.Scale(ctx, w, sOpts); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: trace %s: %v\n", w.Name, err)
				os.Exit(1)
			}
			path := filepath.Join(*traceDir, w.Name+".trace.json")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := o.Tracer().WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			path := filepath.Join(*csvDir, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := t.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	// Wall time and incremental-evaluation counters. These live in their
	// own report, never in the experiment tables or obs metrics: the
	// hit/miss split depends on worker scheduling, and the artifacts must
	// stay byte-identical across -j settings and with the cache on or off.
	st := r.EvalStats()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "evalcache: %d hits, %d misses (%d ops skipped); wall %.2fs\n",
			st.Hits, st.Misses, st.OpsSkipped, time.Since(start).Seconds())
		if *checkpointDir != "" {
			fmt.Fprintf(os.Stderr, "checkpoint: %d tasks executed, %d restored from %s\n",
				r.TasksRun(), r.TasksRestored(), *checkpointDir)
		}
	}
	if *cacheStats != "" {
		if err := os.MkdirAll(filepath.Dir(*cacheStats), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		report := struct {
			WallSeconds float64 `json:"wall_seconds"`
			Hits        int64   `json:"evalcache_hits"`
			Misses      int64   `json:"evalcache_misses"`
			OpsSkipped  int64   `json:"evalcache_ops_skipped"`
		}{time.Since(start).Seconds(), st.Hits, st.Misses, st.OpsSkipped}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*cacheStats, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *cacheStats)
	}
}

// Command prescaler runs the full PreScaler pipeline on one Polybench
// benchmark: system inspection (or a precollected database), application
// profiling, the decision-maker search, and a report of the chosen
// memory-object precision configuration — the analog of the artifact's
// `make framework_execution` per benchmark.
//
// Usage:
//
//	prescaler -bench GEMM -system system2
//	prescaler -bench ATAX -toq 0.95 -input random
//	prescaler -bench 2DCONV -db system1.db.json
//	prescaler -bench gemm -trace out.json -metrics out.csv -explain
//	prescaler -bench gemm -json decision.json
//	prescaler -bench gemm -progress
//	prescaler -list
//
// With -daemon URL the search runs on a prescalerd instead of
// in-process: the request goes through the typed v1 API client, and
// -progress follows the daemon's SSE event stream, printing the same
// per-trial lines a local search would:
//
//	prescaler -bench gemm -daemon http://127.0.0.1:8080 -progress
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/polybench"
	"repro/internal/prog"
	"repro/internal/scaler"
)

func main() {
	bench := flag.String("bench", "GEMM", "benchmark name (see -list)")
	system := flag.String("system", "system1", "system preset")
	toq := flag.Float64("toq", 0, "target output quality in (0,1]; 0 selects the paper's 0.90")
	input := flag.String("input", "default", "input set: default, image, random")
	dbPath := flag.String("db", "", "precollected inspector database (JSON); empty runs inspection")
	tracePath := flag.String("trace", "", "write a Chrome trace-event timeline of the whole search pipeline to this file")
	metricsPath := flag.String("metrics", "", "write the search metrics as CSV to this file")
	explain := flag.Bool("explain", false, "print the decision-maker explain report")
	jsonPath := flag.String("json", "", `write the decision as prescaler/v1 JSON to this file ("-" for stdout); byte-identical to the prescalerd POST /v1/scale response body`)
	jobs := flag.Int("j", 0, "number of concurrent search-trial workers; 0 selects GOMAXPROCS (the search outcome and all artifacts are bit-identical for any value)")
	faults := flag.String("faults", "", `inject deterministic runtime faults, e.g. "write:0.01,launch:0.005,alloc:0.002,devlost:1e-4,nan:0.001" (empty disables injection)`)
	faultSeed := flag.Uint64("fault-seed", 0, "seed for the fault-injection decision stream (same spec+seed reproduces the same faults at any -j)")
	retries := flag.Int("retries", 2, "bounded retries per search trial after an injected fault (inert without -faults)")
	progress := flag.Bool("progress", false, "stream search progress (one line per trial/decision) to stderr as it happens")
	daemon := flag.String("daemon", "", "prescalerd base URL (e.g. http://127.0.0.1:8080); submit the request to the daemon through the v1 API client instead of searching in-process")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, name := range polybench.Names() {
			w := polybench.ByName(name)
			fmt.Printf("%-8s input %6.2f MB, default range %g-%g, %d objects, %d kernels\n",
				name, float64(w.InputBytes)/(1<<20),
				w.DefaultRange[0], w.DefaultRange[1], len(w.Objects), len(w.Kernels))
		}
		return
	}

	// Ctrl-C / SIGTERM cancels the search at the next trial boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *daemon != "" {
		req := &api.ScaleRequest{
			Schema:    api.Schema,
			Benchmark: *bench,
			System:    *system,
			TOQ:       *toq,
			InputSet:  *input,
			Faults:    *faults,
			FaultSeed: *faultSeed,
		}
		if *faults != "" {
			req.Retries = retries
		}
		if err := runDaemon(ctx, *daemon, req, *progress, *jsonPath); err != nil {
			fatalf("%v", err)
		}
		return
	}

	w := polybench.ByName(*bench)
	if w == nil {
		fatalf("unknown benchmark %q (use -list)", *bench)
	}
	sys := hw.ByName(*system)
	if sys == nil {
		fatalf("unknown system %q", *system)
	}
	spec, err := fault.ParseSeeded(*faults, *faultSeed)
	if err != nil {
		fatalf("%v", err)
	}
	sys.Faults = spec
	set, err := prog.ParseInputSet(*input)
	if err != nil {
		fatalf("%v", err)
	}

	var fw *core.Framework
	if *dbPath != "" {
		data, err := os.ReadFile(*dbPath)
		if err != nil {
			fatalf("%v", err)
		}
		fw, err = core.LoadFramework(sys, data)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "loaded inspector database from %s\n", *dbPath)
	} else {
		fmt.Fprintf(os.Stderr, "inspecting %s ...\n", sys.Name)
		fw = core.NewFramework(sys)
	}

	var o *obs.Observer
	if *tracePath != "" || *metricsPath != "" || *explain {
		o = obs.New()
	}

	// Every defaultable knob (TOQ, workers, eval cache) is filled, and
	// retries bounded, by Normalize — the same path the daemon uses — so
	// the two entry points cannot drift.
	opts, err := scaler.Options{
		TOQ:      *toq,
		InputSet: set,
		Obs:      o,
		Workers:  *jobs,
		Retries:  *retries,
	}.Normalize()
	if err != nil {
		fatalf("%v", err)
	}
	if *progress {
		// The hook fires from the sequential decision loop, so lines
		// appear in deterministic order at any -j. Same side channel the
		// daemon streams over SSE.
		opts.Progress = printProgress
	}

	fmt.Fprintf(os.Stderr, "profiling and searching %s (toq=%.2f, input=%s) ...\n", w.Name, opts.TOQ, set)
	sp, err := fw.Scale(ctx, w, opts)
	if err != nil {
		fatalf("%v", err)
	}
	st := opts.EvalCache.Stats()
	fmt.Fprintf(os.Stderr, "evalcache: %d hits, %d misses (%d ops skipped)\n", st.Hits, st.Misses, st.OpsSkipped)

	fmt.Print(sp.Describe())
	res := sp.Search
	fmt.Printf("\nbaseline       %12.6f ms\n", res.BaselineTime*1e3)
	fmt.Printf("prescaler      %12.6f ms (kernel %.6f, HtoD %.6f, DtoH %.6f)\n",
		res.Final.Total*1e3, res.Final.KernelTime*1e3, res.Final.HtoDTime*1e3, res.Final.DtoHTime*1e3)
	fmt.Printf("speedup        %12.2fx\n", res.Speedup)
	fmt.Printf("quality        %12.4f (TOQ %.2f)\n", res.Quality, opts.TOQ)
	fmt.Printf("trials         %12d of %.3g possible configurations (%.2g tested)\n",
		res.Trials, res.SearchSpace, float64(res.Trials)/res.SearchSpace)

	if *jsonPath != "" {
		d := api.NewDecision(sys, w, res, opts.TOQ, set)
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			out = f
		}
		if err := api.EncodeDecision(out, d); err != nil {
			fatalf("%v", err)
		}
		if *jsonPath != "-" {
			fmt.Fprintf(os.Stderr, "wrote decision JSON to %s\n", *jsonPath)
		}
	}
	if *explain {
		fmt.Print("\n" + o.Explain())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := o.Tracer().WriteChromeTrace(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote pipeline trace to %s (open in chrome://tracing or Perfetto)\n", *tracePath)
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := o.Metrics().WriteCSV(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", *metricsPath)
	}
}

// errStreamDone stops the SSE loop when the terminal event arrives.
var errStreamDone = errors.New("stream done")

// runDaemon submits the request to a running prescalerd through the
// typed v1 API client. With -progress it computes the decision id first
// (POST /v1/scale?fingerprint=1), subscribes to the daemon's SSE event
// stream, and renders each search milestone through the same
// printProgress a local search uses — then, once the daemon has
// accepted the subscription, POSTs for real.
func runDaemon(ctx context.Context, url string, req *api.ScaleRequest, progress bool, jsonPath string) error {
	cl := &client.Client{Targets: []string{url}}
	done := make(chan struct{})
	close(done)
	if progress {
		id, cached, err := cl.Fingerprint(ctx, req)
		if err != nil {
			return err
		}
		if cached {
			fmt.Fprintf(os.Stderr, "decision %s already cached on %s\n", id, url)
		} else {
			done = make(chan struct{})
			opened := make(chan struct{})
			go func() {
				defer close(done)
				err := cl.Events(ctx, id, func() { close(opened) }, func(event string, data []byte) error {
					if event == "done" || event == "error" {
						return errStreamDone
					}
					var ev scaler.ProgressEvent
					if json.Unmarshal(data, &ev) == nil {
						printProgress(ev)
					}
					return nil
				})
				if err != nil && !errors.Is(err, errStreamDone) {
					fmt.Fprintf(os.Stderr, "prescaler: progress stream: %v\n", err)
				}
			}()
			select {
			case <-opened:
			case <-done:
			}
		}
	}
	d, body, meta, err := cl.Scale(ctx, req)
	if err != nil {
		return err
	}
	<-done

	fmt.Fprintf(os.Stderr, "daemon %s answered decision %s (cache %s)\n", url, meta.DecisionID, meta.Cache)
	res := d.Search
	fmt.Printf("baseline       %12.6f ms\n", res.BaselineMs)
	fmt.Printf("prescaler      %12.6f ms (kernel %.6f, HtoD %.6f, DtoH %.6f)\n",
		res.FinalMs, res.KernelMs, res.HtoDMs, res.DtoHMs)
	fmt.Printf("speedup        %12.2fx\n", res.Speedup)
	fmt.Printf("quality        %12.4f (TOQ %.2f)\n", res.Quality, d.TOQ)
	fmt.Printf("trials         %12d of %.3g possible configurations\n", res.Trials, res.SearchSpace)

	if jsonPath != "" {
		// The raw response bytes, not a re-encode: the artifact stays
		// byte-identical to the daemon's POST /v1/scale body.
		if jsonPath == "-" {
			_, err := os.Stdout.Write(body)
			return err
		}
		if err := os.WriteFile(jsonPath, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote decision JSON to %s\n", jsonPath)
	}
	return nil
}

// printProgress renders one search milestone per line on stderr.
func printProgress(ev scaler.ProgressEvent) {
	switch ev.Kind {
	case "start":
		fmt.Fprintf(os.Stderr, "progress: search started (toq=%.2f)\n", ev.TOQ)
	case "profile":
		fmt.Fprintf(os.Stderr, "progress: profiled baseline: %.6f ms\n", ev.SimMs)
	case "trial":
		memo := ""
		if ev.Memoized {
			memo = " (memoized)"
		}
		fmt.Fprintf(os.Stderr, "progress: trial %3d %-24s %-9s quality %.4f, %.6f ms%s\n",
			ev.Trial, ev.Label, ev.Verdict, ev.Quality, ev.SimMs, memo)
	case "object":
		fmt.Fprintf(os.Stderr, "progress: object %-12s -> %s\n", ev.Object, ev.Target)
	case "final":
		fmt.Fprintf(os.Stderr, "progress: done after %d trials: quality %.4f, %.6f ms, %.2fx\n",
			ev.Trial, ev.Quality, ev.SimMs, ev.Speedup)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prescaler: "+format+"\n", args...)
	os.Exit(1)
}

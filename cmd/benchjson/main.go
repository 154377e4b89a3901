// Command benchjson converts `go test -bench` text output into a stable
// JSON summary (median across -count repetitions per benchmark) and
// compares summaries against a committed baseline, so benchmark history
// lives in the repository and every perf claim is checkable in CI.
//
// Snapshot mode (default): read bench output from the named files (or
// stdin) and write the JSON summary to -o.
//
//	go test -run - -bench . -benchmem -count 5 ./... | benchjson -o bench.json
//
// Compare mode: read a freshly-produced summary (same inputs as snapshot
// mode, or an already-summarized prescaler-bench/v1 file via -in, e.g.
// one written by cmd/prescalerbench) and check it against the committed
// baseline. A benchmark whose median ns/op regresses by more than
// -tolerance fails the run; allocs/op growth warns, and so does B/op
// growth beyond -tolerance. Summaries carrying a
// service load section are gated on p99 latency and throughput with the
// same tolerance. When the two summaries were measured on different CPU
// models, absolute-time regressions are downgraded to warnings — but
// -min-speedup stays fatal, because it checks the engine-to-engine ratio
// of */batch vs */tree pairs measured in the same run, which is
// machine-independent. With -compare, -min-speedup also holds each pair
// to 0.78 of its ratio in the baseline, so one kernel cannot lose most
// of its speedup behind a geomean that the others carry.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

type sample struct{ nsOp, bOp, allocsOp float64 }

type parser struct {
	pkg     string
	cpu     string
	samples map[string][]sample
}

func (p *parser) feed(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			p.pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			p.cpu = strings.TrimPrefix(line, "cpu: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			s, ok := parseMetrics(m[3])
			if !ok {
				continue
			}
			key := p.pkg + "/" + m[1]
			p.samples[key] = append(p.samples[key], s)
		}
	}
	return sc.Err()
}

// parseMetrics reads the "value unit" pairs after the iteration count.
func parseMetrics(rest string) (sample, bool) {
	fields := strings.Fields(rest)
	var s sample
	seen := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return s, false
		}
		switch fields[i+1] {
		case "ns/op":
			s.nsOp = v
			seen = true
		case "B/op":
			s.bOp = v
		case "allocs/op":
			s.allocsOp = v
		}
	}
	return s, seen
}

func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func (p *parser) summarize() *benchfmt.File {
	f := &benchfmt.File{
		Schema: benchfmt.Schema, Go: runtime.Version(), CPU: p.cpu,
		Benchmarks: map[string]benchfmt.Bench{},
	}
	for name, ss := range p.samples {
		ns := make([]float64, len(ss))
		bs := make([]float64, len(ss))
		as := make([]float64, len(ss))
		for i, s := range ss {
			ns[i], bs[i], as[i] = s.nsOp, s.bOp, s.allocsOp
		}
		f.Benchmarks[name] = benchfmt.Bench{
			NsOp: median(ns), BOp: median(bs), AllocsOp: median(as), Runs: len(ss),
		}
		if len(ss) > f.Count {
			f.Count = len(ss)
		}
	}
	return f
}

// compare checks cur against base; returns the number of fatal findings.
func compare(base, cur *benchfmt.File, tol float64) int {
	sameCPU := base.CPU == cur.CPU
	if !sameCPU {
		fmt.Printf("note: CPU differs (baseline %q, current %q); absolute-time regressions are warnings only\n", base.CPU, cur.CPU)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fatal := 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("FAIL %s: present in baseline, missing from current run\n", name)
			fatal++
			continue
		}
		ratio := c.NsOp / b.NsOp
		switch {
		case ratio > 1+tol && sameCPU:
			fmt.Printf("FAIL %s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)\n",
				name, b.NsOp, c.NsOp, (ratio-1)*100, tol*100)
			fatal++
		case ratio > 1+tol:
			fmt.Printf("warn %s: %.0f -> %.0f ns/op (%+.1f%%) on different CPU\n",
				name, b.NsOp, c.NsOp, (ratio-1)*100)
		default:
			fmt.Printf("ok   %s: %.0f -> %.0f ns/op (%+.1f%%)\n",
				name, b.NsOp, c.NsOp, (ratio-1)*100)
		}
		if c.AllocsOp > b.AllocsOp {
			fmt.Printf("warn %s: allocs/op grew %.0f -> %.0f\n", name, b.AllocsOp, c.AllocsOp)
		}
		if c.BOp > b.BOp*(1+tol) {
			fmt.Printf("warn %s: B/op grew %.0f -> %.0f (tolerance %.0f%%)\n", name, b.BOp, c.BOp, tol*100)
		}
	}
	if base.Service != nil {
		fatal += compareService(base, cur, tol, sameCPU)
	}
	return fatal
}

// compareService gates the service load section: p99 latency may not
// regress and throughput may not drop by more than the tolerance.
// Cross-CPU runs downgrade both to warnings, like the ns/op gate.
func compareService(base, cur *benchfmt.File, tol float64, sameCPU bool) int {
	b, c := base.Service, cur.Service
	if c == nil {
		fmt.Println("FAIL service: baseline has a service load section, current run does not")
		return 1
	}
	fatal := 0
	report := func(ok bool, format string, args ...any) {
		switch {
		case ok:
			fmt.Printf("ok   "+format+"\n", args...)
		case sameCPU:
			fmt.Printf("FAIL "+format+"\n", args...)
			fatal++
		default:
			fmt.Printf("warn "+format+" (different CPU)\n", args...)
		}
	}
	p99Ratio := c.P99Ms / b.P99Ms
	report(p99Ratio <= 1+tol, "service p99: %.2f -> %.2f ms (%+.1f%%, tolerance %.0f%%)",
		b.P99Ms, c.P99Ms, (p99Ratio-1)*100, tol*100)
	tputRatio := c.ThroughputRPS / b.ThroughputRPS
	report(tputRatio >= 1-tol, "service throughput: %.0f -> %.0f req/s (%+.1f%%, tolerance %.0f%%)",
		b.ThroughputRPS, c.ThroughputRPS, (tputRatio-1)*100, tol*100)
	if c.Errors > 0 {
		fmt.Printf("FAIL service: %d transport/server errors in current run\n", c.Errors)
		fatal++
	}
	return fatal
}

// kernelFloor is the share of its baseline batch-vs-tree ratio that each
// pair must keep: the margin the geomean floor keeps against the
// measured geomean (DESIGN §16).
const kernelFloor = 0.78

// speedups returns, for every benchmark name ending in /tree with a
// /batch sibling, speedup = tree ns_op / batch ns_op, keyed by the
// shared prefix.
func speedups(f *benchfmt.File) map[string]float64 {
	out := map[string]float64{}
	for name, tree := range f.Benchmarks {
		base, ok := strings.CutSuffix(name, "/tree")
		if !ok {
			continue
		}
		if batch, ok := f.Benchmarks[base+"/batch"]; ok && batch.NsOp != 0 {
			out[base] = tree.NsOp / batch.NsOp
		}
	}
	return out
}

// checkSpeedup enforces the engine-ratio gate: the geometric mean of the
// pairs' speedups must reach min, and with a baseline (base non-nil)
// each pair's speedup must reach kernelFloor times its baseline
// speedup. Both engines of a pair run in one process, so the ratio
// cancels the machine's speed and both checks hold on any CPU.
func checkSpeedup(f, base *benchfmt.File, min float64) int {
	pairs := speedups(f)
	if len(pairs) == 0 {
		fmt.Println("FAIL speedup gate: no */tree + */batch benchmark pairs found")
		return 1
	}
	var baseline map[string]float64
	if base != nil {
		baseline = speedups(base)
	}
	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	fatal := 0
	logSum := 0.0
	for _, name := range names {
		s := pairs[name]
		logSum += math.Log(s)
		if b, ok := baseline[name]; ok && s < kernelFloor*b {
			fmt.Printf("FAIL speedup %s: %.2fx < %.2f x baseline %.2fx\n", name, s, kernelFloor, b)
			fatal++
			continue
		}
		fmt.Printf("speedup %s: %.2fx (batch vs tree)\n", name, s)
	}
	geo := math.Exp(logSum / float64(len(pairs)))
	if geo < min {
		fmt.Printf("FAIL speedup gate: geomean %.2fx < required %.2fx\n", geo, min)
		return fatal + 1
	}
	fmt.Printf("ok   speedup gate: geomean %.2fx >= %.2fx over %d kernels\n", geo, min, len(pairs))
	return fatal
}

func main() {
	out := flag.String("o", "", "write the JSON summary to this file")
	in := flag.String("in", "", "read the current summary from this prescaler-bench/v1 JSON file instead of parsing bench text")
	baseline := flag.String("compare", "", "baseline summary to compare against")
	tol := flag.Float64("tolerance", 0.15, "fractional regression (ns/op, service p99, throughput) that fails a compare")
	minSpeedup := flag.Float64("min-speedup", 0, "minimum geomean batch-vs-tree speedup over */{batch,tree} pairs; with -compare, each pair must also keep 0.78 of its baseline speedup (0 disables)")
	flag.Parse()

	var cur *benchfmt.File
	if *in != "" {
		f, err := benchfmt.Load(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		cur = f
	} else {
		p := &parser{samples: map[string][]sample{}}
		if flag.NArg() == 0 {
			if err := p.feed(os.Stdin); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
		}
		for _, path := range flag.Args() {
			fh, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
			err = p.feed(fh)
			fh.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
		}
		cur = p.summarize()
		if len(cur.Benchmarks) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
			os.Exit(2)
		}
	}

	if *out != "" {
		if err := cur.Write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
	}

	fatal := 0
	var base *benchfmt.File
	if *baseline != "" {
		var err error
		if base, err = benchfmt.Load(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		fatal += compare(base, cur, *tol)
	}
	if *minSpeedup > 0 {
		fatal += checkSpeedup(cur, base, *minSpeedup)
	}
	if fatal > 0 {
		fmt.Printf("%d benchmark gate failure(s)\n", fatal)
		os.Exit(1)
	}
}

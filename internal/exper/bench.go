package exper

import (
	"encoding/json"
	"io"

	"repro/internal/hw"
	"repro/internal/scaler"
)

// PaperGeomeans records the paper's headline PreScaler geometric-mean
// speedups per system (Figure 9), for trajectory tracking against the
// reproduction.
var PaperGeomeans = map[string]float64{
	"system1": 1.33,
	"system2": 1.38,
	"system3": 1.47,
}

// BenchRecord is one benchmark's machine-readable Figure 9 outcome.
type BenchRecord struct {
	Benchmark        string  `json:"benchmark"`
	InKernelSpeedup  float64 `json:"in_kernel_speedup"`
	PFPSpeedup       float64 `json:"pfp_speedup"`
	PreScalerSpeedup float64 `json:"prescaler_speedup"`
	Quality          float64 `json:"prescaler_quality"`
	InKernelTrials   int     `json:"in_kernel_trials"`
	PFPTrials        int     `json:"pfp_trials"`
	PreScalerTrials  int     `json:"prescaler_trials"`
	SearchSpaceEq1   float64 `json:"search_space_eq1"`
}

// BenchReport is the per-system Figure 9 summary.
type BenchReport struct {
	System           string        `json:"system"`
	PaperGeomean     float64       `json:"paper_prescaler_geomean,omitempty"`
	GeomeanInKernel  float64       `json:"geomean_in_kernel"`
	GeomeanPFP       float64       `json:"geomean_pfp"`
	GeomeanPreScaler float64       `json:"geomean_prescaler"`
	Benchmarks       []BenchRecord `json:"benchmarks"`
}

// BenchFig9 builds the machine-readable Figure 9 report for one system,
// reusing the runner's cached comparisons.
func (r *Runner) BenchFig9(sys *hw.System, opts scaler.Options) (*BenchReport, error) {
	rep := &BenchReport{System: sys.Name, PaperGeomean: PaperGeomeans[sys.Name]}
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
		rep.Benchmarks = append(rep.Benchmarks, BenchRecord{
			Benchmark:        w.Name,
			InKernelSpeedup:  c.InKernel.Speedup,
			PFPSpeedup:       c.PFP.Speedup,
			PreScalerSpeedup: c.PreScaler.Speedup,
			Quality:          c.PreScaler.Quality,
			InKernelTrials:   c.InKernel.Trials,
			PFPTrials:        c.PFP.Trials,
			PreScalerTrials:  c.PreScaler.Trials,
			SearchSpaceEq1:   c.PreScaler.SearchSpace,
		})
	}
	rep.GeomeanInKernel = geomean(ik)
	rep.GeomeanPFP = geomean(pfp)
	rep.GeomeanPreScaler = geomean(ps)
	return rep, nil
}

// WriteBenchReports writes the reports as indented JSON, so future PRs
// can diff the perf trajectory against the paper's headline numbers.
func WriteBenchReports(w io.Writer, reports []*BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

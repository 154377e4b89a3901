package exper

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/scaler"
)

// NoiseSweep measures the decision maker's robustness to measurement
// noise: the same suite is scaled on copies of the base system whose
// simulated event durations carry multiplicative jitter of increasing
// amplitude (the inspector's predictions stay clean, so prediction and
// measurement diverge like they would on real hardware). Reported per
// amplitude: the geometric-mean speedup, the minimum output quality of
// any chosen configuration, and how many configurations still meet the
// TOQ. Not a paper figure; it validates that the trial-based search
// degrades gracefully.
func (r *Runner) NoiseSweep(base *hw.System, amplitudes []float64) (*Table, error) {
	t := &Table{
		ID:    "noise-" + base.Name,
		Title: "PreScaler under timing jitter on " + base.Name,
		Header: []string{
			"jitter", "geomean speedup", "min quality", "toq-passing",
		},
	}
	opts := scaler.DefaultOptions()
	for i, amp := range amplitudes {
		sys := *base
		sys.TimingJitter = amp
		sys.JitterSeed = int64(1000 + i)
		// A jittered system gets its own framework (the cache keys on
		// jitter), inspected afresh for each amplitude.
		fw := r.Framework(&sys)
		var speeds []float64
		minQ := 1.0
		passing := 0
		for _, w := range r.Suite {
			r.logf("noise %.0f%%: %s ...", amp*100, w.Name)
			sp, err := fw.Scale(r.ctx(), w, opts)
			if err != nil {
				return nil, err
			}
			speeds = append(speeds, sp.Speedup())
			if q := sp.Quality(); q < minQ {
				minQ = q
			}
			if sp.Quality() >= opts.TOQ {
				passing++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", amp*100),
			f2(geomean(speeds)), f4(minQ),
			fmt.Sprintf("%d/%d", passing, len(r.Suite)),
		})
	}
	return t, nil
}

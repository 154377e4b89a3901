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
	systems := make([]*hw.System, len(amplitudes))
	for i, amp := range amplitudes {
		sys := *base
		sys.TimingJitter = amp
		sys.JitterSeed = int64(1000 + i)
		systems[i] = &sys
	}
	// A jittered system gets its own framework and task keys (both key
	// on the jitter), inspected afresh for each amplitude.
	res, err := r.measure(r.suiteTasks(false, opts, systems...))
	if err != nil {
		return nil, err
	}
	n := len(r.Suite)
	for i, amp := range amplitudes {
		var speeds []float64
		minQ := 1.0
		passing := 0
		for _, x := range res[i*n : (i+1)*n] {
			speeds = append(speeds, x.ps.Speedup)
			minQ = min(minQ, x.ps.Quality)
			if x.ps.Quality >= opts.TOQ {
				passing++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", amp*100),
			f2(geomean(speeds)), f4(minQ),
			fmt.Sprintf("%d/%d", passing, n),
		})
	}
	return t, nil
}

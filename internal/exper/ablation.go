package exper

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/scaler"
)

// Markdown renders the table as GitHub-flavored markdown, used to embed
// measured results in EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** (%s)\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Ablation measures the contribution of PreScaler's two search-quality
// mechanisms — the wildcard test (transient conversions) and the
// pre-full-precision initial type setting — by disabling each and
// comparing speedups on one system. This is not a paper figure; it
// validates the design choices Section 4.4 argues for.
func (r *Runner) Ablation(sys *hw.System) (*Table, error) {
	t := &Table{
		ID:    "ablation-" + sys.Name,
		Title: "PreScaler search ablations on " + sys.Name + " (speedup over baseline)",
		Header: []string{
			"benchmark", "full", "no-wildcard", "no-prepass", "trials full", "trials no-wildcard",
		},
	}
	variants := []scaler.Options{
		scaler.DefaultOptions(), // full
		{TOQ: 0.90, DisableWildcard: true},
		{TOQ: 0.90, DisableFullPrecisionPass: true},
	}
	var tasks []task
	for _, opts := range variants {
		tasks = append(tasks, r.suiteTasks(false, opts, sys)...)
	}
	res, err := r.measure(tasks)
	if err != nil {
		return nil, err
	}
	var geo [3][]float64
	n := len(r.Suite)
	for j, w := range r.Suite {
		row := []string{w.Name}
		for i := range variants {
			s := res[i*n+j].ps
			geo[i] = append(geo[i], s.Speedup)
			row = append(row, f2(s.Speedup))
		}
		row = append(row,
			fmt.Sprintf("%d", res[j].ps.Trials),
			fmt.Sprintf("%d", res[n+j].ps.Trials))
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{
		"geomean", f2(geomean(geo[0])), f2(geomean(geo[1])), f2(geomean(geo[2])), "", "",
	})
	return t, nil
}

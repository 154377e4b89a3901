package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4). The output is deterministic:
// metric families appear in sorted name order, each preceded by one
// `# TYPE` line, and series within a family are sorted by their
// canonical label string. Histograms are rendered with cumulative
// `_bucket{le="..."}` series (Prometheus semantics, unlike the
// per-bucket counts of WriteCSV), plus `_sum` and `_count`.
//
// Counters keep their registry names verbatim — the registry predates
// the exposition, so names carry no `_total` suffix; scrapers get the
// same names /v1/metricsz and the CSV artifacts use.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.families() {
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch fam.kind {
			case "histogram":
				bounds, cum := s.hist.Buckets()
				sum, count := s.hist.Sum(), s.hist.Count()
				for i, b := range bounds {
					fmt.Fprintf(bw, "%s_bucket%s %d\n",
						fam.name, promLabels(s.labels, formatValue(b)), cum[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n",
					fam.name, promLabels(s.labels, "+Inf"), count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", fam.name, promLabels(s.labels, ""), formatValue(sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", fam.name, promLabels(s.labels, ""), count)
			default:
				fmt.Fprintf(bw, "%s%s %s\n", fam.name, promLabels(s.labels, ""), formatValue(s.value()))
			}
		}
	}
	return bw.Flush()
}

// promFamily is one metric name with all its labeled series, ready to
// render.
type promFamily struct {
	name   string
	kind   string // counter, gauge, histogram
	series []promSeries
}

// promSeries is one (labelset, instrument) pair of a family.
type promSeries struct {
	labelKey string // canonical label string, the sort key
	labels   []Label
	value    func() float64 // counter/gauge read
	hist     *Histogram
}

// families snapshots the registry into sorted exposition families. The
// registry lock covers only the map walk; instrument reads take each
// instrument's own lock, so in-flight Observe/Inc calls never deadlock
// against a scrape.
func (r *Registry) families() []promFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	byName := map[string]*promFamily{}
	add := func(id metricID, text, kind string, value func() float64, h *Histogram) {
		fam, ok := byName[id.name]
		if !ok {
			fam = &promFamily{name: id.name, kind: kind}
			byName[id.name] = fam
		}
		fam.series = append(fam.series, promSeries{
			labelKey: text, labels: id.labels(), value: value, hist: h,
		})
	}
	for id, s := range r.counters {
		add(id, s.text, "counter", s.inst.Value, nil)
	}
	for id, s := range r.gauges {
		add(id, s.text, "gauge", s.inst.Value, nil)
	}
	for id, s := range r.hists {
		add(id, s.text, "histogram", nil, s.inst)
	}
	r.mu.Unlock()

	fams := make([]promFamily, 0, len(byName))
	for _, fam := range byName {
		sort.Slice(fam.series, func(i, j int) bool {
			return fam.series[i].labelKey < fam.series[j].labelKey
		})
		fams = append(fams, *fam)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// promLabels renders a label set as `{k="v",...}`, appending the
// histogram `le` label last (the Prometheus convention) when non-empty.
// An empty set renders as the empty string.
func promLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Val))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintPrometheus parses a text exposition and validates it line by
// line: every sample must have a well-formed metric name, label set,
// and value; every sample's family must have been declared by a
// preceding `# TYPE` line; histogram buckets must be cumulative. It
// returns the number of samples seen per declared family, so callers
// can assert required series are present. Used by the exposition tests
// and the CI service-smoke scrape check.
func LintPrometheus(r io.Reader) (map[string]int, error) {
	types := map[string]string{}
	samples := map[string]int{}
	lastBucket := map[string]float64{} // series (name+labels sans le) -> last cumulative count
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, kind := fields[2], fields[3]
				if !promNameRe.MatchString(name) {
					return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: bad metric type %q", lineNo, kind)
				}
				if _, ok := types[name]; ok {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = kind
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		kind, ok := types[family]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q precedes its TYPE declaration", lineNo, name)
		}
		if kind == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, rest, err := splitLE(labels)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if _, err := parsePromValue(le); err != nil {
				return nil, fmt.Errorf("line %d: bad le bound %q", lineNo, le)
			}
			seriesKey := family + "|" + rest
			if value < lastBucket[seriesKey] {
				return nil, fmt.Errorf("line %d: non-cumulative bucket counts for %s", lineNo, seriesKey)
			}
			lastBucket[seriesKey] = value
		}
		samples[family]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseSample splits one exposition sample line into name, raw label
// block (without braces), and value.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label block in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !promNameRe.MatchString(name) {
		return "", "", 0, fmt.Errorf("bad metric name %q", name)
	}
	if err := lintLabels(labels); err != nil {
		return "", "", 0, err
	}
	rest = strings.TrimSpace(rest)
	v, err := parsePromValue(rest)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q: %v", rest, err)
	}
	return name, labels, v, nil
}

// lintLabels validates a raw `k="v",...` label block.
func lintLabels(block string) error {
	if block == "" {
		return nil
	}
	for _, pair := range splitLabelPairs(block) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || !promLabelRe.MatchString(k) {
			return fmt.Errorf("bad label pair %q", pair)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("unquoted label value in %q", pair)
		}
	}
	return nil
}

// splitLabelPairs splits a label block on commas outside quotes.
func splitLabelPairs(block string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, c := range block {
		switch {
		case escaped:
			escaped = false
		case c == '\\' && inQuote:
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(c)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// splitLE extracts the le label from a bucket label block and returns
// the remaining pairs re-joined (the per-series identity).
func splitLE(block string) (le, rest string, err error) {
	var others []string
	for _, pair := range splitLabelPairs(block) {
		k, v, _ := strings.Cut(pair, "=")
		if k == "le" {
			le = strings.Trim(v, `"`)
			continue
		}
		others = append(others, pair)
	}
	if le == "" {
		return "", "", fmt.Errorf("bucket sample without le label in %q", block)
	}
	return le, strings.Join(others, ","), nil
}

// parsePromValue parses a sample value, accepting the spelled-out
// special values.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

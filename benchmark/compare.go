package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// outFile is what -out writes: every run of one invocation.
type outFile struct {
	Host hostInfo     `json:"host"`
	Seed int64        `json:"seed"`
	Runs []*runResult `json:"runs"`
}

func readOutFile(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced returns the file's end-to-end run of a workload.
func (f *outFile) untraced(workload string) *runResult {
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			return r
		}
	}
	return nil
}

// sampleOf returns what a run knows about one metric's distribution:
// its per-repetition series where it has one, otherwise the single
// value.
func sampleOf(r *runResult, name string) summary {
	if s, ok := r.Series[name]; ok && s.N > 0 {
		// The reported value is authoritative for the median: for a
		// percentile metric the series holds per-repetition medians.
		s.P50 = r.Metrics[name].Value
		return s
	}
	v := r.Metrics[name].Value
	return summary{N: 1, Min: v, P25: v, P50: v, P75: v, Max: v}
}

// verdict judges b against a for one metric, by the rule of the
// choosing-metrics guide (6.5): worse when b's median is worse than
// a's by more than the bound; unresolved when either side's spread is
// wider than the bound, unless every reading of b is better than every
// reading of a; otherwise within.
func verdict(m metricSpec, a, b summary) (string, float64) {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (b.P50 - a.P50) / math.Abs(a.P50)
	if a == b {
		return "within", 0 // the same readings: a file against itself
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		allBetter := b.Max < a.Min
		if m.Better == "higher" {
			allBetter = b.Min > a.Max
		}
		if !allBetter {
			return "unresolved", change
		}
	}
	if change > m.Bound {
		return "worse", change
	}
	return "within", change
}

// compare prints one row per (workload, end-to-end metric) of b against
// a and reports whether b is acceptable: no metric worse, no workload
// with a higher share of failed operations.
func compare(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readOutFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutFile(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "base a = %s (seed %d), b = %s (seed %d); ratio = b/a\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-13s %-17s %-6s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a.median", "a.[p25,p75]", "b.median", "b.[p25,p75]", "ratio", "bound", "verdict")
	for _, ws := range spec.Workloads {
		ra, rb := a.untraced(ws.Name), b.untraced(ws.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-13s missing from one of the files\n", ws.Name)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := sampleOf(ra, m.Name), sampleOf(rb, m.Name)
			v, _ := verdict(m, sa, sb)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-17s %-6s %12.5g %25s %12.5g %25s %8.4f %5.0f%%  %s\n",
				ws.Name, m.Name, m.Unit, sa.P50, quartiles(sa), sb.P50, quartiles(sb), sb.P50/sa.P50, m.Bound*100, v)
		}
		fa, fb := ra.failedShare(), rb.failedShare()
		v := "within"
		if fb > fa {
			v, ok = "worse", false
		}
		fmt.Fprintf(w, "%-13s %-17s %-6s %12.5g %25s %12.5g %25s %8s %5.0f%%  %s\n",
			ws.Name, "failed_ops_share", "share", fa, fmt.Sprintf("%d/%d", ra.Failed, ra.Attempted), fb, fmt.Sprintf("%d/%d", rb.Failed, rb.Attempted), "-", 0.0, v)
	}
	return ok, nil
}

func quartiles(s summary) string {
	return fmt.Sprintf("[%.5g, %.5g] n=%d", s.P25, s.P75, s.N)
}

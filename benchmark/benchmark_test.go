package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// quickRun runs one pass of one workload in quick mode, in this
// process, and returns its exit code, report and result file.
func quickRun(t *testing.T, workload string, trace string, extra ...string) (int, string, *runResult) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "run.json")
	args := append([]string{"-quick", "-seconds", "0.2", "-workload", workload, "-trace", trace, "-out", out}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("%s trace=%s stderr: %s", workload, trace, stderr.String())
	}
	f, err := readOutFile(out)
	if err != nil {
		return code, stdout.String(), nil
	}
	return code, stdout.String(), f.Runs[0]
}

// TestQuickEmitsEveryMetric runs all five workloads untraced and traced
// at quick sizes and holds the output to BENCHMARK.json: every metric
// named there is emitted exactly once, with its unit and a finite
// value; no operation fails; the traced pass's self-time shares sum to
// 100%; and a result file compared with itself is within every bound.
func TestQuickEmitsEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(allWorkloads()))
	}
	file := outFile{Seed: 1}
	for _, ws := range spec.Workloads {
		for trace, list := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, report, res := quickRun(t, ws.Name, trace)
			if code != 0 || res == nil {
				t.Fatalf("%s trace=%s: exit code %d\n%s", ws.Name, trace, code, report)
			}
			file.Runs = append(file.Runs, res)
			if res.Failed != 0 || res.Attempted == 0 || res.failedShare() != 0 {
				t.Errorf("%s trace=%s: %d of %d operations failed: %v", ws.Name, trace, res.Failed, res.Attempted, res.Failures)
			}

			// The driver's line: last on stdout, exactly the four keys.
			lines := strings.Split(strings.TrimSpace(report), "\n")
			var line struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s trace=%s: bad result line %q: %v", ws.Name, trace, lines[len(lines)-1], err)
			}
			if len(line.Metrics) != len(list) {
				t.Errorf("%s trace=%s: result line has %d metrics, BENCHMARK.json names %d", ws.Name, trace, len(line.Metrics), len(list))
			}
			for _, m := range list {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v), want a finite value in %s", ws.Name, trace, m.Name, v, ok, m.Unit)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if fields := strings.Fields(l); len(fields) >= 3 && fields[0] == m.Name && fields[2] == m.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%s: metric %s printed %d times with its unit, want once", ws.Name, trace, m.Name, printed)
				}
			}
			if trace == "0" {
				if !strings.Contains(report, "ops_attempted=") || !strings.Contains(report, "ops_failed=0") {
					t.Errorf("%s: report lacks ops_attempted/ops_failed:\n%s", ws.Name, report)
				}
				continue
			}
			var sum float64
			for _, share := range res.Shares {
				sum += share
			}
			if math.Abs(sum-100) > 1 {
				t.Errorf("%s: self-time shares sum to %.2f%%, want 100±1: %v", ws.Name, sum, res.Shares)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "all.json")
	if err := writeJSON(path, file); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	ok, err := compare(&table, spec, path, path)
	if err != nil || !ok || strings.Contains(table.String(), "worse") || strings.Contains(table.String(), "unresolved") {
		t.Errorf("a file compared with itself: ok=%v err=%v\n%s", ok, err, table.String())
	}
	if rows := strings.Count(table.String(), "within"); rows != len(spec.Workloads)*(len(spec.EndToEnd)+1) {
		t.Errorf("compare printed %d rows, want one per (workload, end-to-end metric) plus failed_ops_share:\n%s", rows, table.String())
	}
}

// TestCorruptedFingerprintFails: a speed-only change must leave the
// simulated statistics identical, so a fingerprint that differs from
// expected.json has to fail the run.
func TestCorruptedFingerprintFails(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	good, err := loadExpected(filepath.Join(spec.benchDir(root), "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	fp := good.Points["quick.jacobi/java_pf"]
	fp.TimePS++
	good.Points["quick.jacobi/java_pf"] = fp
	bad := filepath.Join(t.TempDir(), "expected.json")
	if err := writeJSON(bad, good); err != nil {
		t.Fatal(err)
	}
	code, report, res := quickRun(t, "access_bound", "0", "-expected", bad)
	if code == 0 || res == nil || res.Failed == 0 {
		t.Fatalf("corrupted fingerprint went unnoticed: exit code %d\n%s", code, report)
	}
	if !strings.Contains(report, `"correct":false`) {
		t.Errorf("result line does not say correct=false:\n%s", report)
	}
}

// TestVerdicts pins the three outcomes of the comparison rule.
func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary { return summarize([]float64{v * 0.99, v, v, v * 1.01}) }
	wide := func(v float64) summary { return summarize([]float64{v * 0.7, v * 0.9, v, v * 1.1, v * 1.3}) }
	for _, tc := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), "within"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(50), "within"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "within"},
		{lower, wide(100), wide(104), "unresolved"},
		{lower, wide(100), tight(50), "within"}, // every reading of b beats every reading of a
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: a=%+v b=%+v: verdict %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// Command hyperion-bench-diff is the bench-regression gate: it compares
// fresh benchmark numbers against the committed BENCH_*.json files and
// exits nonzero when a tracked metric regressed past its threshold, so
// CI (and pre-commit habits) catch performance drift the way tests
// catch correctness drift.
//
// The committed file's "current" section is the baseline. Candidate
// numbers come from one of three sources:
//
//	-input bench.txt   parse `go test -bench` text output (or - for stdin)
//	-run               re-run the committed file's own "command" and parse that
//	-candidate f.json  another BENCH_*.json file's "current" section
//
// Comparing a committed file against itself (-candidate BENCH_x.json
// -baseline BENCH_x.json) is the CI smoke path: it proves the schema
// still parses and the gate passes clean on identical numbers.
//
// Three metrics are tracked per benchmark: ns/op, bytes/op, allocs/op.
// Each has its own regression threshold (fractional; 0.10 = +10%).
// Improvements and sub-threshold noise are reported but never fail.
//
// Exit codes: 0 all within thresholds, 1 at least one regression
// breached its threshold, 2 usage or schema error (unreadable file,
// unparseable bench output, no overlapping benchmarks).
//
// Usage:
//
//	go test -run '^$' -bench Engine -benchmem ./internal/harness/ | \
//	    hyperion-bench-diff -baseline BENCH_engine.json -input -
//	hyperion-bench-diff -baseline BENCH_engine.json -run
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchResult is one benchmark's tracked metrics. A zero ns/op means the
// metric was absent (real runs never hit exactly 0 ns/op); zero memory
// metrics mean absent unless the run as a whole tracked memory, see
// tracksMemory.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchFile mirrors the committed BENCH_*.json schema (extra fields
// like summary/environment are ignored here).
type benchFile struct {
	Command string `json:"command"`
	Current struct {
		Variant string                 `json:"variant"`
		Results map[string]benchResult `json:"results"`
	} `json:"current"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hyperion-bench-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "committed BENCH_*.json to gate against (required)")
	inputPath := fs.String("input", "", "go test -bench text output to compare (- = stdin)")
	runBench := fs.Bool("run", false, "re-run the baseline file's own \"command\" and compare its output")
	candidatePath := fs.String("candidate", "", "another BENCH_*.json whose \"current\" section is the candidate")
	maxNs := fs.Float64("max-ns-regress", 0.20, "ns/op regression threshold (fraction; 0.20 = +20%)")
	maxBytes := fs.Float64("max-bytes-regress", 0.10, "bytes/op regression threshold")
	maxAllocs := fs.Float64("max-allocs-regress", 0.0, "allocs/op regression threshold (0 = any extra allocation fails)")
	showVersion := fs.Bool("version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String())
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hyperion-bench-diff: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *baselinePath == "" {
		fmt.Fprintln(stderr, "hyperion-bench-diff: -baseline is required")
		return 2
	}
	sources := 0
	for _, set := range []bool{*inputPath != "", *runBench, *candidatePath != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(stderr, "hyperion-bench-diff: exactly one of -input, -run, -candidate selects the candidate numbers")
		return 2
	}

	baseline, err := loadBenchFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "hyperion-bench-diff: %v\n", err)
		return 2
	}

	var candidate map[string]benchResult
	switch {
	case *candidatePath != "":
		cf, err := loadBenchFile(*candidatePath)
		if err != nil {
			fmt.Fprintf(stderr, "hyperion-bench-diff: %v\n", err)
			return 2
		}
		candidate = cf.Current.Results
	case *inputPath != "":
		r := io.Reader(os.Stdin)
		if *inputPath != "-" {
			f, err := os.Open(*inputPath)
			if err != nil {
				fmt.Fprintf(stderr, "hyperion-bench-diff: %v\n", err)
				return 2
			}
			defer f.Close()
			r = f
		}
		if candidate, err = parseBenchOutput(r); err != nil {
			fmt.Fprintf(stderr, "hyperion-bench-diff: %s: %v\n", *inputPath, err)
			return 2
		}
	case *runBench:
		if baseline.Command == "" {
			fmt.Fprintf(stderr, "hyperion-bench-diff: %s has no \"command\" to re-run\n", *baselinePath)
			return 2
		}
		fmt.Fprintf(stderr, "running: %s\n", baseline.Command)
		out, err := runCommand(baseline.Command, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "hyperion-bench-diff: bench run failed: %v\n", err)
			return 2
		}
		if candidate, err = parseBenchOutput(strings.NewReader(out)); err != nil {
			fmt.Fprintf(stderr, "hyperion-bench-diff: bench output: %v\n", err)
			return 2
		}
	}

	thresholds := map[string]float64{"ns/op": *maxNs, "bytes/op": *maxBytes, "allocs/op": *maxAllocs}
	report, breached, compared := diff(baseline.Current.Results, candidate, thresholds)
	fmt.Fprint(stdout, report)
	if compared == 0 {
		fmt.Fprintf(stderr, "hyperion-bench-diff: no benchmark in the candidate matches %s — wrong -bench filter or renamed benchmarks?\n", *baselinePath)
		return 2
	}
	if breached > 0 {
		fmt.Fprintf(stdout, "FAIL: %d metric(s) regressed past threshold\n", breached)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d benchmark(s) within thresholds\n", compared)
	return 0
}

// loadBenchFile reads and schema-checks a committed BENCH_*.json.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Current.Results) == 0 {
		return nil, fmt.Errorf("%s: no current.results — not a BENCH_*.json?", path)
	}
	for name, r := range bf.Current.Results {
		if r.NsPerOp <= 0 {
			return nil, fmt.Errorf("%s: %s has no ns_per_op", path, name)
		}
	}
	return &bf, nil
}

// parseBenchOutput extracts benchmark lines from `go test -bench` text
// output. Multiple samples of one benchmark (-count > 1) average.
// The -<GOMAXPROCS> suffix is stripped so names match the committed
// files, which record logical benchmark names.
func parseBenchOutput(r io.Reader) (map[string]benchResult, error) {
	sums := map[string]*benchResult{}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name, iterations, then value/unit pairs.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // "Benchmark... [no test files]" and similar
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var br benchResult
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q on line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				br.NsPerOp = v
			case "B/op":
				br.BytesPerOp = v
			case "allocs/op":
				br.AllocsPerOp = v
				// Custom ReportMetric units (points/sec, msg_bytes/op)
				// are informational in the committed files and not gated.
			}
		}
		if br.NsPerOp == 0 {
			continue
		}
		if sums[name] == nil {
			sums[name] = &benchResult{}
		}
		sums[name].NsPerOp += br.NsPerOp
		sums[name].BytesPerOp += br.BytesPerOp
		sums[name].AllocsPerOp += br.AllocsPerOp
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	out := make(map[string]benchResult, len(sums))
	for name, s := range sums {
		n := float64(counts[name])
		out[name] = benchResult{NsPerOp: s.NsPerOp / n, BytesPerOp: s.BytesPerOp / n, AllocsPerOp: s.AllocsPerOp / n}
	}
	return out, nil
}

// runCommand executes a bench file's committed command line. The
// commands are committed alongside the code and quoted for a shell
// (-bench 'Engine'), so a shell runs them.
func runCommand(command string, stderr io.Writer) (string, error) {
	cmd := exec.Command("sh", "-c", command)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	return string(out), err
}

// tracksMemory reports whether any result carries a memory metric, i.e.
// whether the numbers come from a -benchmem run.
func tracksMemory(results map[string]benchResult) bool {
	for _, r := range results {
		if r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
			return true
		}
	}
	return false
}

// metricDelta is one metric's comparison on one benchmark.
type metricDelta struct {
	bench, metric      string
	old, new, fraction float64
	breach             bool
}

// diff compares candidate against baseline and renders an aligned
// report. Benchmarks only on one side are listed but never gated: a
// candidate produced by a narrower -bench filter shouldn't fail the
// run, only shrink it (the caller still errors when the overlap is
// empty). Metrics absent on either side (no -benchmem) are skipped.
func diff(baseline, candidate map[string]benchResult, thresholds map[string]float64) (report string, breached, compared int) {
	var deltas []metricDelta
	var missing, extra []string
	for name := range baseline {
		if _, ok := candidate[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range candidate {
		if _, ok := baseline[name]; !ok {
			extra = append(extra, name)
		}
	}
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		if _, ok := candidate[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	sort.Strings(missing)
	sort.Strings(extra)

	// Both sides ran with -benchmem if each reports some allocation.
	memTracked := tracksMemory(baseline) && tracksMemory(candidate)
	for _, name := range names {
		b, c := baseline[name], candidate[name]
		compared++
		for _, m := range []struct {
			metric   string
			old, new float64
		}{
			{"ns/op", b.NsPerOp, c.NsPerOp},
			{"bytes/op", b.BytesPerOp, c.BytesPerOp},
			{"allocs/op", b.AllocsPerOp, c.AllocsPerOp},
		} {
			if m.new == 0 && m.metric != "allocs/op" {
				continue // metric untracked by the candidate
			}
			var frac float64
			switch {
			case m.old != 0:
				frac = (m.new - m.old) / m.old
			case m.metric == "ns/op" || !memTracked || m.new == 0:
				continue // untracked, or a measured zero that stayed zero
			default:
				// A zero baseline is a measured zero for the memory metrics
				// of a -benchmem run; any allocation at all is a regression
				// (the allocation-free paths are the ones most worth gating).
				frac = math.Inf(1)
			}
			d := metricDelta{bench: name, metric: m.metric, old: m.old, new: m.new, fraction: frac}
			if frac > thresholds[m.metric] {
				d.breach = true
				breached++
			}
			deltas = append(deltas, d)
		}
	}

	var sb strings.Builder
	w := 0
	for _, d := range deltas {
		if len(d.bench) > w {
			w = len(d.bench)
		}
	}
	for _, d := range deltas {
		mark := "  "
		if d.breach {
			mark = "!!"
		}
		fmt.Fprintf(&sb, "%s %-*s  %-9s  %14.6g -> %14.6g  %+7.1f%% (max %+.1f%%)\n",
			mark, w, d.bench, d.metric, d.old, d.new, d.fraction*100, thresholds[d.metric]*100)
	}
	for _, name := range missing {
		fmt.Fprintf(&sb, "?? %s: in baseline only (not gated)\n", name)
	}
	for _, name := range extra {
		fmt.Fprintf(&sb, "?? %s: in candidate only (not gated)\n", name)
	}
	return sb.String(), breached, compared
}

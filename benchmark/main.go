// Command benchmark is the repository's one benchmark: five workloads
// over the whole stack (engine hit path, engine sync/fetch path, sweep
// executor cold and cached, HTTP server), end-to-end metrics measured
// with tracing off, and a traced run that yields per-layer metrics.
// BENCHMARK.json at the repository root names every workload and metric
// and is the contract this program is run by; README.md in this
// directory explains the choices.
//
// One workload, as the driver runs it (last line of stdout is the
// result object):
//
//	go run -C benchmark . --workload sync_bound --seed 1 --seconds 15 --trace 0
//
// Every workload, untraced then traced, each in a process of its own:
//
//	go run -C benchmark . -seed 1 -out r.json -trace-out trace.json
//
// Judge one result file against another:
//
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace          int
	out            string
	traceOut       string
	expected       string
	quick          bool
	compare        bool
	updateExpected bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this `name`, in this process; empty runs every workload, untraced then traced, each in a child process")
	fs.Int64Var(&o.seed, "seed", 1, "the only thing that varies the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of a run's measurement; 0 takes run_seconds from BENCHMARK.json")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 runs the traced pass and the layers pass")
	fs.StringVar(&o.out, "out", "", "write every run's results to this JSON `file`")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced passes' spans to this Chrome trace-event JSON `file`")
	fs.StringVar(&o.expected, "expected", "", "fingerprint `file` to check against (default expected.json beside the program's sources)")
	fs.BoolVar(&o.quick, "quick", false, "tiny counts and two repetitions: exercises every path, measures nothing")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments: a.json b.json")
	fs.BoolVar(&o.updateExpected, "update-expected", false, "regenerate the fingerprint file from this commit and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.expected == "" {
		o.expected = filepath.Join(spec.benchDir(root), "expected.json")
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}

	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		ok, err := compare(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	case o.updateExpected:
		if err := updateExpected(o.expected); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", o.expected)
		return 0
	case o.workload != "":
		return runOne(o, spec, root, stdout, stderr)
	}
	return runAll(o, spec, root, stdout, stderr)
}

// scratchDir makes the run's scratch directory. It lives inside the
// checkout, under a name .gitignore lists, and goes away with the run.
func scratchDir(root string) (string, error) {
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratch, "run-")
}

// runOne runs one workload in this process and prints its metrics, then
// the result object the driver reads.
func runOne(o options, spec *benchSpec, root string, stdout, stderr io.Writer) int {
	var w *workload
	for _, cand := range allWorkloads() {
		if cand.name == o.workload {
			w = &cand
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	expected, err := loadExpected(o.expected)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tmp, err := scratchDir(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	e := &env{spec: spec, tmp: tmp, seed: o.seed, seconds: o.seconds, quick: o.quick, nproc: runtime.NumCPU(), expected: expected}
	res, err := runWorkload(e, *w, o.trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRun(stdout, spec, res)
	if o.out != "" {
		if err := writeJSON(o.out, outFile{Host: readHostInfo(), Seed: o.seed, Runs: []*runResult{res}}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.traceOut != "" && res.Trace {
		if err := writeChrome(o.traceOut, res.Workload, res.spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printRun prints every metric of a run by name with its unit, in
// BENCHMARK.json's order.
func printRun(w io.Writer, spec *benchSpec, r *runResult) {
	kind, list := "end-to-end", spec.EndToEnd
	if r.Trace {
		kind, list = "per-layer (traced)", spec.PerLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%g GOMAXPROCS=%d wall=%.1fs\n", r.Workload, kind, r.Seed, r.Seconds, r.GOMAXPROCS, r.WallS)
	for _, m := range list {
		v := r.Metrics[m.Name]
		line := fmt.Sprintf("%-48s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if s, ok := r.Series[m.Name]; ok && s.N > 1 {
			line += fmt.Sprintf("  [p25 %.6g, p75 %.6g, n=%d, spread %.1f%%]", s.P25, s.P75, s.N, s.spread()*100)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if r.Trace {
		fmt.Fprintf(w, "trace summary, self-time share by layer:")
		var sum float64
		for _, pkg := range slices.Sorted(maps.Keys(r.Shares)) {
			fmt.Fprintf(w, "  share.%s.%s=%.2f%%", r.Workload, pkg, r.Shares[pkg])
			sum += r.Shares[pkg]
		}
		fmt.Fprintf(w, "  (sum %.2f%%)\n", sum)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d failed_ops_share=%g\n", r.Attempted, r.Failed, r.failedShare())
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, n := range r.Noisy {
		fmt.Fprintln(w, "NOISY:", n)
	}
	if r.Unrepresentative != "" {
		fmt.Fprintln(w, "UNREPRESENTATIVE:", r.Unrepresentative)
	}
}

// runAll runs every workload untraced and then traced, each pass in a
// child process of this same program: a clean heap, its own GOMAXPROCS,
// its own scratch directory. A noisy pass is run once more, and kept
// marked noisy if the second try is noisy too.
func runAll(o options, spec *benchSpec, root string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	dir, err := scratchDir(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	file := outFile{Host: readHostInfo(), Seed: o.seed}
	var traces []string // the traced passes' trace files, in workload order
	code := 0
	for _, ws := range spec.Workloads {
		for trace := 0; trace <= 1; trace++ {
			var res *runResult
			for try := 0; try < 2; try++ {
				res, err = runChild(self, o, ws.Name, trace, dir, stdout, stderr)
				if err != nil || (len(res.Noisy) == 0 && res.Unrepresentative == "") {
					break
				}
				fmt.Fprintf(stdout, "-- %s trace=%d was noisy; running it once more\n", ws.Name, trace)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s trace=%d: %v\n", ws.Name, trace, err)
				code = 1
				continue
			}
			if res.Failed > 0 || math.IsNaN(res.failedShare()) {
				code = 1
			}
			if res.Unrepresentative != "" {
				code = 1
			}
			file.Runs = append(file.Runs, res)
			if trace == 1 {
				traces = append(traces, childTrace(dir, ws.Name))
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.traceOut != "" {
		if err := mergeChrome(o.traceOut, traces); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

func childTrace(dir, workload string) string {
	return filepath.Join(dir, workload+".trace.json")
}

// runChild runs one pass of one workload in a child process and reads
// its result file back. The child's report goes to stdout as it comes,
// minus the driver's result line.
func runChild(self string, o options, workload string, trace int, dir string, stdout, stderr io.Writer) (*runResult, error) {
	out := filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, trace))
	args := []string{
		"-workload", workload, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-expected", o.expected, "-out", out,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if trace == 1 && o.traceOut != "" {
		args = append(args, "-trace-out", childTrace(dir, workload))
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	report, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(report), "\n"), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[len(lines)-1], "{") {
		lines = lines[:len(lines)-1]
	}
	fmt.Fprintln(stdout, strings.Join(lines, "\n"))
	f, err := readOutFile(out)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return f.Runs[0], nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

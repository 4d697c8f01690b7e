// Command hyperion-sweep runs declarative scenario sweeps concurrently,
// with content-addressed result caching, and aggregates the results.
//
// A sweep is the cross product of apps, clusters, protocols, node
// counts, threads per node and cost overrides. It comes from a JSON
// spec file (-spec) or a named preset (-preset: the paper's figures and
// the §3.3 ablations), and/or axis flags; with none, the full paper
// grid runs: five benchmarks x two clusters x two protocols x every
// node count each platform supports. Points execute across all host
// CPUs, and with -cache every completed point is stored on disk, so
// re-running a spec only executes new or changed points and an
// interrupted sweep resumes where it stopped.
//
// Results stream: CSV rows and JSON point entries are written (and
// flushed) as points complete, in completion order, so an interrupted
// run still leaves usable output behind.
//
// Diagnostics (per-point progress, failures, the final accounting) are
// structured log lines on stderr — never interleaved with result data
// on stdout, so `hyperion-sweep > out.csv` and pipelines stay clean.
// -log-level/-log-format control them (text for terminals, json for log
// shippers); -quiet raises the level to warn, keeping only problems.
//
// Usage:
//
//	hyperion-sweep                              # full paper grid, CSV on stdout
//	hyperion-sweep -cache .sweep-cache          # same, resumable
//	hyperion-sweep -apps jacobi,asp -nodes 1,2,4,8 -aggregate
//	hyperion-sweep -spec sweep.json -format json -out results.json
//	hyperion-sweep -spec sweep.json -print-spec # show the expanded grid, run nothing
//	hyperion-sweep -preset fig2 -report         # Figure 2: CSV, chart, improvement, claims
//	hyperion-sweep -preset figures -report -out /dev/null   # exit status = the §4.3 claims
//	hyperion-sweep -preset ablate-check -apps asp -nodes 8 -aggregate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obslog"
	"repro/internal/sweep"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hyperion-sweep:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hyperion-sweep", flag.ContinueOnError)
	var (
		specPath    = fs.String("spec", "", "JSON sweep spec file (axis flags override its fields)")
		presetName  = fs.String("preset", "", "named grid instead of -spec (axis flags override its fields): "+strings.Join(sweep.PresetNames(), ", "))
		appsF       = fs.String("apps", "", "comma-separated benchmarks: "+strings.Join(sweep.AppNames(), ","))
		clustersF   = fs.String("clusters", "", "comma-separated platforms: "+strings.Join(sweep.ClusterNames(), ","))
		protosF     = fs.String("protocols", "", "comma-separated protocols, or 'all' for every registered one (default java_ic,java_pf)")
		nodesF      = fs.String("nodes", "", "comma-separated node counts (default 1..MaxNodes per platform)")
		tpnF        = fs.String("tpn", "", "comma-separated threads-per-node values (default 1)")
		repeats     = fs.Int("repeats", 0, "median-of-k repeats per point")
		paperScale  = fs.Bool("paperscale", false, "use the paper's full problem sizes")
		cacheDir    = fs.String("cache", "", "result cache directory (empty = no caching)")
		workers     = fs.Int("workers", 0, "worker goroutines (default NumCPU)")
		outPath     = fs.String("out", "-", "results file (- = stdout)")
		format      = fs.String("format", "csv", "results format: csv or json (both stream as points complete)")
		columnsF    = fs.String("columns", "", "CSV counter columns: comma-separated engine counter names, \"all\", or empty for the default set (checks,faults,mprotects,fetches)")
		aggregate   = fs.Bool("aggregate", false, "print speedup curves, protocol crossovers, java_pf-vs-java_ic improvements and best configs")
		report      = fs.Bool("report", false, "print each app's time-vs-nodes chart, the mean-improvement table and the §4.3 claims; a failed claim fails the command")
		printSpec   = fs.Bool("print-spec", false, "print the resolved spec as JSON and exit")
		quiet       = fs.Bool("quiet", false, "only log warnings and errors (shorthand for -log-level warn)")
		logLevel    = fs.String("log-level", "info", "stderr diagnostics level: debug, info, warn or error")
		logFormat   = fs.String("log-format", "text", "stderr diagnostics format: text or json")
		showVersion = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil // usage printed; -h is success
		}
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String())
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	// All diagnostics go to stderr as structured log lines: stdout is
	// reserved for result data (CSV/JSON/aggregates).
	level, err := obslog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	lformat, err := obslog.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	if *quiet && level < slog.LevelWarn {
		level = slog.LevelWarn
	}
	log := obslog.New(os.Stderr, level, lformat)

	// One spec, except for the "figures" preset (Figures 1-5 back to
	// back); axis flags apply to each.
	specs := []sweep.Spec{sweep.PaperGrid()}
	switch {
	case *specPath != "" && *presetName != "":
		return fmt.Errorf("-spec and -preset are mutually exclusive")
	case *specPath != "":
		spec, err := sweep.LoadSpec(*specPath)
		if err != nil {
			return err
		}
		specs = []sweep.Spec{spec}
	case *presetName != "":
		specs, err = sweep.Preset(*presetName)
		if err != nil {
			return err
		}
	}
	protocols, err := harness.ParseProtocols(*protosF)
	if err != nil {
		return err
	}
	nodes, err := splitInts(*nodesF)
	if err != nil {
		return err
	}
	tpn, err := splitInts(*tpnF)
	if err != nil {
		return err
	}
	for i := range specs {
		spec := &specs[i]
		if *appsF != "" {
			spec.Apps = splitList(*appsF)
		}
		if *clustersF != "" {
			spec.Clusters = splitList(*clustersF)
		}
		if protocols != nil {
			spec.Protocols = protocols
		}
		if nodes != nil {
			spec.Nodes = nodes
		}
		if tpn != nil {
			spec.ThreadsPerNode = tpn
		}
		if *repeats > 0 {
			spec.Repeats = *repeats
		}
		if *paperScale {
			spec.PaperScale = true
		}
	}

	if *printSpec {
		for _, spec := range specs {
			blob, err := json.MarshalIndent(spec, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(blob))
		}
		points, err := sweep.ExpandAll(specs)
		if err != nil {
			return err
		}
		log.Info("spec expanded", "points", len(points))
		return nil
	}

	// Fail on output problems before spending a sweep's worth of work,
	// and on spec problems before writing a byte of output — a bad spec
	// must not leave a header-only CSV or a truncated JSON fragment
	// behind.
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (csv or json)", *format)
	}
	columns, err := sweep.ParseCSVColumns(*columnsF)
	if err != nil {
		return err
	}
	if columns != nil && *format != "csv" {
		return fmt.Errorf("-columns only applies to -format csv")
	}
	points, err := sweep.ExpandAll(specs)
	if err != nil {
		return err
	}
	w := stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	x := &sweep.Executor{Workers: *workers, Logger: log}
	if *cacheDir != "" {
		cache, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		defer cache.Close()
		x.Cache = cache
	}

	// Stream results as points complete: the writer emits one CSV row or
	// JSON points-array element per finished point from inside OnPoint,
	// so an interrupted sweep has everything that finished on disk.
	var sw streamWriter
	switch *format {
	case "csv":
		sw = &csvStream{w: w, cols: columns}
	case "json":
		sw = &jsonStream{w: w}
	}
	if err := sw.begin(); err != nil {
		return err
	}
	var writeErr error
	x.OnPoint = func(_, done, total int, pr sweep.PointResult) {
		if writeErr == nil {
			writeErr = sw.point(pr)
		}
		// Failures escalate via the executor's own "point resolved"
		// error line; progress proper logs at Info.
		if pr.Err == nil {
			status := "ran"
			if pr.Cached {
				status = "cached"
			}
			log.Info("progress",
				"done", done, "total", total,
				"point", pr.Point.String(), "status", status,
				"elapsed", pr.Elapsed)
		}
	}

	start := time.Now()
	out, err := x.RunPoints(points)
	if err != nil {
		return err
	}
	if writeErr != nil {
		return fmt.Errorf("writing results: %w", writeErr)
	}
	if err := sw.end(out); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	log.Info("sweep finished",
		"points", len(out.Points),
		"executed", out.Executed,
		"cached", out.CacheHits,
		"failed", out.Failed,
		"canceled", out.Canceled,
		"elapsed", time.Since(start))

	if *aggregate {
		protoA, protoB := crossoverPair(specs[0])
		fmt.Fprintln(stdout, "\n== speedup curves ==")
		fmt.Fprint(stdout, sweep.FormatSpeedups(sweep.Speedups(out.Points)))
		fmt.Fprintf(stdout, "\n== protocol crossovers (%s vs %s) ==\n", protoA, protoB)
		fmt.Fprint(stdout, sweep.FormatCrossovers(sweep.Crossovers(out.Points, protoA, protoB), protoA, protoB))
		fmt.Fprintln(stdout, "\n== java_pf vs java_ic improvement ==")
		fmt.Fprint(stdout, sweep.FormatImprovements(sweep.Improvements(out.Points)))
		fmt.Fprintln(stdout, "\n== best config per app ==")
		fmt.Fprint(stdout, sweep.FormatBest(sweep.BestConfigs(out.Points)))
	}
	if err := out.Err(); err != nil {
		return err
	}
	if *report {
		figs, err := sweep.Figures(out.Points)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		return harness.Report(stdout, figs)
	}
	return nil
}

// streamWriter emits results incrementally: begin before the sweep,
// point per completed point (in completion order), end with the final
// accounting.
type streamWriter interface {
	begin() error
	point(pr sweep.PointResult) error
	end(out *sweep.Outcome) error
}

// csvStream writes the header up front and one row per successful point
// as it lands. cols selects the counter columns (nil = the default set).
type csvStream struct {
	w    io.Writer
	cols []string
}

func (s *csvStream) begin() error {
	_, err := fmt.Fprintln(s.w, sweep.CSVHeaderFor(s.cols))
	return err
}

func (s *csvStream) point(pr sweep.PointResult) error {
	if pr.Err != nil {
		return nil // surfaced by Outcome.Err at the end
	}
	_, err := fmt.Fprintln(s.w, sweep.CSVRowFor(pr, s.cols))
	return err
}

func (s *csvStream) end(*sweep.Outcome) error { return nil }

// jsonStream writes a single JSON object whose "points" array fills in
// as the sweep progresses; the summary fields follow once it finishes.
// A truncated run is a syntactically recoverable prefix holding every
// completed point.
type jsonStream struct {
	w io.Writer
	n int
}

// jsonPoint is the externalized form of one point result.
type jsonPoint struct {
	Point  sweep.Point     `json:"point"`
	Result *harness.Result `json:"result,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (s *jsonStream) begin() error {
	_, err := fmt.Fprint(s.w, "{\n  \"points\": [")
	return err
}

func (s *jsonStream) point(pr sweep.PointResult) error {
	jp := jsonPoint{Point: pr.Point, Cached: pr.Cached}
	if pr.Err != nil {
		jp.Error = pr.Err.Error()
	} else {
		r := pr.Result
		jp.Result = &r
	}
	blob, err := json.Marshal(jp)
	if err != nil {
		return err
	}
	sep := ",\n    "
	if s.n == 0 {
		sep = "\n    "
	}
	s.n++
	_, err = fmt.Fprintf(s.w, "%s%s", sep, blob)
	return err
}

func (s *jsonStream) end(out *sweep.Outcome) error {
	_, err := fmt.Fprintf(s.w, "\n  ],\n  \"executed\": %d,\n  \"cache_hits\": %d,\n  \"failed\": %d\n}\n",
		out.Executed, out.CacheHits, out.Failed)
	return err
}

// crossoverPair picks the two protocols to compare: the spec's first
// two, or the paper's pair.
func crossoverPair(spec sweep.Spec) (string, string) {
	ps := spec.Protocols
	if len(ps) == 0 {
		ps = harness.Protocols
	}
	if len(ps) < 2 {
		return harness.Protocols[0], harness.Protocols[1]
	}
	return ps[0], ps[1]
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// Package harness assembles one complete simulated Hyperion run (Run),
// executes independent runs on a worker pool (RunJobsHooked), and holds
// the paper's evaluation as pure functions over a Figure (execution
// time vs number of nodes, one line per cluster x protocol): rendering,
// the §4.3 improvement metric and its claims. It loops over no grid:
// internal/sweep expands and runs every grid, the figures' included,
// and assembles the Figures.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/pagestats"
	"repro/internal/stats"
	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// RunConfig selects the platform for one run.
type RunConfig struct {
	Cluster model.Cluster
	Nodes   int
	// Protocol is a registered core protocol name ("java_ic",
	// "java_pf").
	Protocol string
	// ThreadsPerNode is the number of computation threads per node;
	// the paper uses 1 ("we used only one application thread per
	// node") and lists >1 as future work.
	ThreadsPerNode int
	// Costs overrides the DSM engine costs; zero value means defaults.
	Costs *model.DSMCosts
	// Tracer, when non-nil, records protocol events during the run.
	Tracer *trace.Buffer
	// PageProfiler, when non-nil, accumulates per-page sharing
	// statistics during the run; its report lands in Result.PageStats.
	// One profiler belongs to one run — attach a fresh one per repeat.
	PageProfiler *pagestats.Profiler
}

// Result is the outcome of one run.
type Result struct {
	App      string
	Cluster  string
	Nodes    int
	Workers  int
	Protocol string
	Time     vtime.Time
	Check    apps.Check
	Stats    stats.Snapshot
	// RunStats is the engine's per-node counter report — the "why" behind
	// Time. It serializes with the result into sweep caches and the
	// experiment server's /v1/results.
	RunStats core.RunStats `json:"run_stats"`
	// PageStats is the per-page sharing report, present only when the
	// run was profiled (RunConfig.PageProfiler / sweep's page_stats
	// knob). omitempty keeps unprofiled cache entries byte-identical to
	// pre-profiler ones.
	PageStats *pagestats.Report `json:"page_stats,omitempty"`
	Messages  int64
	Bytes     int64
}

// Seconds reports the run's execution time in (virtual) seconds, the
// y-axis of the paper's figures.
func (r Result) Seconds() float64 { return r.Time.Seconds() }

func (r Result) String() string {
	return fmt.Sprintf("%-7s %-14s n=%-2d %-8s %8.3fs  %s", r.App, r.Cluster, r.Nodes, r.Protocol, r.Seconds(), r.Check.Summary)
}

// Run executes one benchmark under one configuration.
func Run(app apps.App, cfg RunConfig) (Result, error) {
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}
	cnt := &stats.Counters{}
	cl, err := cluster.New(cfg.Cluster, cfg.Nodes, cnt)
	if err != nil {
		return Result{}, err
	}
	proto, err := core.NewProtocol(cfg.Protocol)
	if err != nil {
		return Result{}, err
	}
	costs := model.DefaultDSMCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	eng := core.NewEngine(cl, costs, proto)
	if cfg.Tracer != nil {
		eng.SetTracer(cfg.Tracer)
	}
	if cfg.PageProfiler != nil {
		if err := eng.SetPageProfiler(cfg.PageProfiler); err != nil {
			return Result{}, err
		}
	}
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	if cfg.ThreadsPerNode > 1 {
		// The modeled nodes are uniprocessors: k threads time-share the
		// CPU, so benefits can only come from overlapping communication
		// stalls with computation (§4.3's future-work hypothesis).
		rt.SetComputeScale(float64(cfg.ThreadsPerNode))
	}
	h := jmm.NewHeap(eng)

	workers := cfg.Nodes * cfg.ThreadsPerNode
	check := app.Run(rt, h, workers)
	msgs, bytes := cl.Network().Stats()
	var pageStats *pagestats.Report
	if cfg.PageProfiler != nil {
		pageStats = cfg.PageProfiler.Report()
	}
	return Result{
		App:       app.Name(),
		Cluster:   cfg.Cluster.Name,
		Nodes:     cfg.Nodes,
		Workers:   workers,
		Protocol:  cfg.Protocol,
		Time:      rt.LastEnd(),
		Check:     check,
		Stats:     cnt.Snapshot(),
		RunStats:  eng.RunStats(),
		PageStats: pageStats,
		Messages:  msgs,
		Bytes:     bytes,
	}, nil
}

// Line is one curve of a figure.
type Line struct {
	Label  string
	Points []Point
}

// Point is one measurement of a curve.
type Point struct {
	Nodes   int
	Seconds float64
	Result  Result
}

// Figure is the regenerated form of one paper figure.
type Figure struct {
	ID    int
	Title string
	Lines []Line
}

// Protocols under comparison in the paper's figures, in the paper's
// legend order. The registry knows more (java_up, java_hlrc); figures
// default to the paper's two so the regenerated figures stay faithful.
var Protocols = []string{"java_ic", "java_pf"}

// ParseProtocols resolves a -protocols flag value shared by the CLIs:
// "" returns nil (caller's default), "all" returns every registered
// protocol, and anything else is a comma-separated list validated
// against the registry. A list that names no protocol at all (e.g.
// " ,") is an error, not a silent fallback.
func ParseProtocols(list string) ([]string, error) {
	switch strings.TrimSpace(list) {
	case "":
		return nil, nil
	case "all":
		return core.ProtocolNames(), nil
	}
	known := make(map[string]bool)
	for _, p := range core.ProtocolNames() {
		known[p] = true
	}
	var out []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !known[p] {
			return nil, fmt.Errorf("harness: unknown protocol %q (have %s)", p, strings.Join(core.ProtocolNames(), ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: empty protocol list %q", list)
	}
	return out, nil
}

// NodeCounts returns the node counts swept for a platform: 1..MaxNodes,
// matching the figures' x axes (1-12 Myrinet, 1-6 SCI).
func NodeCounts(c model.Cluster) []int {
	out := make([]int, c.MaxNodes)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Improvement reports (ic - pf) / ic for one cluster at one node count,
// the §4.3 metric.
func (f Figure) Improvement(clusterName string, nodes int) (float64, bool) {
	var ic, pf float64
	var haveIC, havePF bool
	for _, l := range f.Lines {
		for _, p := range l.Points {
			if p.Nodes != nodes || p.Result.Cluster != clusterName {
				continue
			}
			switch p.Result.Protocol {
			case "java_ic":
				ic, haveIC = p.Seconds, true
			case "java_pf":
				pf, havePF = p.Seconds, true
			}
		}
	}
	if !haveIC || !havePF || ic == 0 {
		return 0, false
	}
	return (ic - pf) / ic, true
}

// MeanImprovement averages Improvement over all node counts of a cluster.
func (f Figure) MeanImprovement(clusterName string) (float64, bool) {
	var sum float64
	var n int
	nodesSeen := map[int]bool{}
	for _, l := range f.Lines {
		for _, p := range l.Points {
			if p.Result.Cluster == clusterName {
				nodesSeen[p.Nodes] = true
			}
		}
	}
	counts := make([]int, 0, len(nodesSeen))
	for k := range nodesSeen {
		counts = append(counts, k)
	}
	sort.Ints(counts)
	for _, c := range counts {
		if v, ok := f.Improvement(clusterName, c); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

package sweep

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
)

// The aggregate layer reduces raw sweep results to the quantities the
// paper's evaluation reasons about: scaling curves (Figures 1-5 plot
// execution time against node count; speedup is the same data
// normalized), the protocol tradeoff of §3.3/§4.3 (where does java_pf
// stop or start paying off as the grid is walked), and "which
// configuration should I run this program on" summaries.

// SeriesKey identifies one curve: everything a sweep varies except the
// node count. Overrides are identified by their effective values
// (Config, the override fingerprint), not by their display label — two
// unlabeled but different cost overrides are different series.
type SeriesKey struct {
	App            string
	Cluster        string
	Protocol       string
	Label          string // override display label
	Config         string // override fingerprint (grouping identity)
	ThreadsPerNode int
}

func (k SeriesKey) String() string {
	s := fmt.Sprintf("%s/%s/%s", k.App, k.Cluster, k.Protocol)
	if k.ThreadsPerNode > 1 {
		s += fmt.Sprintf(" tpn=%d", k.ThreadsPerNode)
	}
	switch {
	case k.Label != "":
		s += " [" + k.Label + "]"
	case k.Config != "":
		s += " [" + k.Config + "]"
	}
	return s
}

func seriesKey(p Point) SeriesKey {
	return SeriesKey{
		App:            p.App,
		Cluster:        p.Cluster,
		Protocol:       p.Protocol,
		Label:          p.Override.Label,
		Config:         p.Override.Fingerprint(),
		ThreadsPerNode: p.ThreadsPerNode,
	}
}

// SpeedupPoint is one node count of a speedup curve.
type SpeedupPoint struct {
	Nodes   int
	Seconds float64
	// Speedup is T(baseline)/T(n); Efficiency is Speedup divided by the
	// node ratio n/baseline (1.0 = perfectly linear scaling).
	Speedup    float64
	Efficiency float64
}

// SpeedupCurve is one series' scaling behavior, normalized to its
// smallest swept node count (the paper's curves all include n=1, making
// the baseline sequential execution).
type SpeedupCurve struct {
	Key           SeriesKey
	BaselineNodes int
	Points        []SpeedupPoint
}

// usable filters the results an aggregate may draw on: successfully
// executed and self-validated.
func usable(results []PointResult) []PointResult {
	out := make([]PointResult, 0, len(results))
	for _, pr := range results {
		if pr.Err == nil && pr.Result.Check.Valid && pr.Result.Seconds() > 0 {
			out = append(out, pr)
		}
	}
	return out
}

// sortedKeys orders series deterministically for stable reports.
func sortedKeys(m map[SeriesKey][]PointResult) []SeriesKey {
	keys := make([]SeriesKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

func bySeries(results []PointResult) map[SeriesKey][]PointResult {
	m := map[SeriesKey][]PointResult{}
	for _, pr := range usable(results) {
		k := seriesKey(pr.Point)
		m[k] = append(m[k], pr)
	}
	for _, prs := range m {
		sort.Slice(prs, func(i, j int) bool { return prs[i].Point.Nodes < prs[j].Point.Nodes })
	}
	return m
}

// Speedups computes one speedup curve per series, each normalized to the
// series' smallest node count.
func Speedups(results []PointResult) []SpeedupCurve {
	series := bySeries(results)
	curves := make([]SpeedupCurve, 0, len(series))
	for _, k := range sortedKeys(series) {
		prs := series[k]
		base := prs[0]
		curve := SpeedupCurve{Key: k, BaselineNodes: base.Point.Nodes}
		for _, pr := range prs {
			sp := base.Result.Seconds() / pr.Result.Seconds()
			curve.Points = append(curve.Points, SpeedupPoint{
				Nodes:      pr.Point.Nodes,
				Seconds:    pr.Result.Seconds(),
				Speedup:    sp,
				Efficiency: sp * float64(base.Point.Nodes) / float64(pr.Point.Nodes),
			})
		}
		curves = append(curves, curve)
	}
	return curves
}

// Crossover marks a node count at which the faster of two protocols
// changes hands within one configuration.
type Crossover struct {
	App            string
	Cluster        string
	Label          string
	ThreadsPerNode int
	// At the transition from PrevNodes to Nodes, the faster protocol
	// changed from From to To.
	PrevNodes, Nodes int
	From, To         string
	// Improvement is (from-to)/from at Nodes: how much the newly
	// winning protocol wins by.
	Improvement float64
}

// Crossovers compares protocol pairs within each configuration and
// reports every node count where the faster protocol flips — the
// empirical form of §3.3's "choosing between one technique or the other
// involves a tradeoff". Configurations where one protocol wins at every
// swept node count produce no entry.
func Crossovers(results []PointResult, protoA, protoB string) []Crossover {
	type cfgKey struct {
		app, cluster, label, config string
		tpn                         int
	}
	times := map[cfgKey]map[int]map[string]float64{} // cfg → nodes → proto → seconds
	for _, pr := range usable(results) {
		if pr.Point.Protocol != protoA && pr.Point.Protocol != protoB {
			continue
		}
		k := cfgKey{pr.Point.App, pr.Point.Cluster, pr.Point.Override.Label, pr.Point.Override.Fingerprint(), pr.Point.ThreadsPerNode}
		if times[k] == nil {
			times[k] = map[int]map[string]float64{}
		}
		if times[k][pr.Point.Nodes] == nil {
			times[k][pr.Point.Nodes] = map[string]float64{}
		}
		times[k][pr.Point.Nodes][pr.Point.Protocol] = pr.Result.Seconds()
	}

	keys := make([]cfgKey, 0, len(times))
	for k := range times {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.app != b.app {
			return a.app < b.app
		}
		if a.cluster != b.cluster {
			return a.cluster < b.cluster
		}
		if a.label != b.label {
			return a.label < b.label
		}
		if a.config != b.config {
			return a.config < b.config
		}
		return a.tpn < b.tpn
	})

	var out []Crossover
	for _, k := range keys {
		nodes := make([]int, 0, len(times[k]))
		for n, t := range times[k] {
			if _, okA := t[protoA]; !okA {
				continue
			}
			if _, okB := t[protoB]; !okB {
				continue
			}
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		prevWinner, prevNodes := "", 0
		for _, n := range nodes {
			t := times[k][n]
			winner := protoA
			if t[protoB] < t[protoA] {
				winner = protoB
			}
			if prevWinner != "" && winner != prevWinner {
				loser := protoA
				if winner == protoA {
					loser = protoB
				}
				out = append(out, Crossover{
					App:            k.app,
					Cluster:        k.cluster,
					Label:          k.label,
					ThreadsPerNode: k.tpn,
					PrevNodes:      prevNodes,
					Nodes:          n,
					From:           prevWinner,
					To:             winner,
					Improvement:    (t[loser] - t[winner]) / t[loser],
				})
			}
			prevWinner, prevNodes = winner, n
		}
	}
	return out
}

// Best is the fastest valid configuration found for one app.
type Best struct {
	App     string
	Point   Point
	Seconds float64
}

// BestConfigs reports, per app, the configuration with the lowest
// execution time among all valid points of the sweep.
func BestConfigs(results []PointResult) []Best {
	best := map[string]Best{}
	for _, pr := range usable(results) {
		b, ok := best[pr.Point.App]
		if !ok || pr.Result.Seconds() < b.Seconds {
			best[pr.Point.App] = Best{App: pr.Point.App, Point: pr.Point, Seconds: pr.Result.Seconds()}
		}
	}
	apps := make([]string, 0, len(best))
	for a := range best {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	out := make([]Best, 0, len(best))
	for _, a := range apps {
		out = append(out, best[a])
	}
	return out
}

// Improvement is the §4.3 metric at one configuration and node count:
// how much of java_ic's execution time java_pf saves.
type Improvement struct {
	// Point identifies the configuration; its Protocol is empty.
	Point                Point
	ICSeconds, PFSeconds float64
	// Improvement is (ic - pf) / ic.
	Improvement float64
}

// Improvements pairs the java_ic and java_pf results of every
// configuration that has both, in result order — for an expanded spec
// the order its axes were declared in, which is the order an ablation
// table wants. This is the tradeoff of §3.3 read off a grid: walk a
// cost axis and watch the improvement move.
func Improvements(results []PointResult) []Improvement {
	type cfgKey struct {
		app, cluster, config string
		tpn, nodes           int
	}
	var out []Improvement
	index := map[cfgKey]int{} // configuration -> index into out
	for _, pr := range usable(results) {
		p := pr.Point
		proto := p.Protocol
		if proto != "java_ic" && proto != "java_pf" {
			continue
		}
		p.Protocol = ""
		k := cfgKey{p.App, p.Cluster, p.Override.Fingerprint(), p.ThreadsPerNode, p.Nodes}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Improvement{Point: p})
		}
		if proto == "java_ic" {
			out[i].ICSeconds = pr.Result.Seconds()
		} else {
			out[i].PFSeconds = pr.Result.Seconds()
		}
	}
	// usable results have positive times, so zero means "not seen".
	paired := out[:0]
	for _, im := range out {
		if im.ICSeconds > 0 && im.PFSeconds > 0 {
			im.Improvement = (im.ICSeconds - im.PFSeconds) / im.ICSeconds
			paired = append(paired, im)
		}
	}
	return paired
}

// --- rendering -----------------------------------------------------------

// CSVHeader is the default column set of WriteCSV: the fixed
// identity/outcome prefix plus the four legacy counter columns
// (DefaultCSVColumns).
const CSVHeader = "app,cluster,nodes,tpn,protocol,label,seconds,valid,cached,messages,bytes,checks,faults,mprotects,fetches"

// csvBase is the fixed prefix of every CSV row: point identity plus run
// outcome. Counter columns are appended after it.
const csvBase = "app,cluster,nodes,tpn,protocol,label,seconds,valid,cached,messages,bytes"

// DefaultCSVColumns is the counter column set of CSVHeader, in order —
// what a nil column selection renders: the four legacy short column
// names, which core.NodeStats.Get resolves beside the canonical ones.
func DefaultCSVColumns() []string {
	return []string{"checks", "faults", "mprotects", "fetches"}
}

// ParseCSVColumns resolves a -columns flag value: "" selects nil (the
// default column set), "all" selects every RunStats counter, and
// anything else is a comma-separated list of counter names
// (core.NodeStatNames) or legacy aliases (checks, faults, mprotects,
// fetches), validated loudly. The header echoes whichever spelling the
// caller used.
func ParseCSVColumns(list string) ([]string, error) {
	switch strings.TrimSpace(list) {
	case "":
		return nil, nil
	case "all":
		return core.NodeStatNames(), nil
	}
	var out []string
	for _, c := range strings.Split(list, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if _, ok := (core.NodeStats{}).Get(c); !ok {
			return nil, fmt.Errorf("sweep: unknown CSV column %q (have %s, plus aliases %s)",
				c, strings.Join(core.NodeStatNames(), ", "), strings.Join(DefaultCSVColumns(), ", "))
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty CSV column list %q", list)
	}
	return out, nil
}

// CSVHeaderFor renders the header of a column selection; nil selects the
// default set, so CSVHeaderFor(nil) == CSVHeader.
func CSVHeaderFor(cols []string) string {
	if cols == nil {
		cols = DefaultCSVColumns()
	}
	if len(cols) == 0 {
		return csvBase
	}
	return csvBase + "," + strings.Join(cols, ",")
}

// CSVRowFor renders one point result under a column selection (no
// trailing newline). Counter values come from the run's aggregated
// RunStats — the same numbers the cache and /v1/results carry.
func CSVRowFor(pr PointResult, cols []string) string {
	if cols == nil {
		cols = DefaultCSVColumns()
	}
	r := pr.Result
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%s,%d,%d,%s,%s,%.9f,%v,%v,%d,%d",
		pr.Point.App, pr.Point.Cluster, pr.Point.Nodes, pr.Point.ThreadsPerNode,
		pr.Point.Protocol, pr.Point.Override.Label, r.Seconds(), r.Check.Valid, pr.Cached,
		r.Messages, r.Bytes)
	for _, c := range cols {
		v, _ := r.RunStats.Total.Get(c)
		fmt.Fprintf(&b, ",%d", v)
	}
	return b.String()
}

// WriteCSV renders results (in their given order) as CSV with the
// default columns. Failed points are skipped; use Outcome.Err to
// surface them.
func WriteCSV(w io.Writer, results []PointResult) error {
	return WriteCSVColumns(w, results, nil)
}

// WriteCSVColumns is WriteCSV under an explicit column selection (nil =
// default).
func WriteCSVColumns(w io.Writer, results []PointResult, cols []string) error {
	if _, err := fmt.Fprintln(w, CSVHeaderFor(cols)); err != nil {
		return err
	}
	for _, pr := range results {
		if pr.Err != nil {
			continue
		}
		if _, err := fmt.Fprintln(w, CSVRowFor(pr, cols)); err != nil {
			return err
		}
	}
	return nil
}

// FormatSpeedups renders speedup curves as a table.
func FormatSpeedups(curves []SpeedupCurve) string {
	var b strings.Builder
	for _, c := range curves {
		fmt.Fprintf(&b, "%s (baseline n=%d)\n", c.Key, c.BaselineNodes)
		fmt.Fprintf(&b, "  %5s %12s %9s %11s\n", "nodes", "seconds", "speedup", "efficiency")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %5d %12.6f %8.2fx %10.1f%%\n", p.Nodes, p.Seconds, p.Speedup, p.Efficiency*100)
		}
	}
	if b.Len() == 0 {
		return "(no curves)\n"
	}
	return b.String()
}

// FormatCrossovers renders protocol crossover points as a table.
func FormatCrossovers(xs []Crossover, protoA, protoB string) string {
	if len(xs) == 0 {
		return fmt.Sprintf("(no crossover: the faster of %s/%s never changes within a configuration)\n", protoA, protoB)
	}
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%-40s n=%d→%d: %s → %s (wins by %.1f%%)\n",
			configLabel(x.App, x.Cluster, x.ThreadsPerNode, x.Label), x.PrevNodes, x.Nodes, x.From, x.To, x.Improvement*100)
	}
	return b.String()
}

// configLabel names a protocol-less configuration in the tables.
func configLabel(app, cluster string, tpn int, label string) string {
	cfg := fmt.Sprintf("%s/%s", app, cluster)
	if tpn > 1 {
		cfg += fmt.Sprintf(" tpn=%d", tpn)
	}
	if label != "" {
		cfg += " [" + label + "]"
	}
	return cfg
}

// FormatImprovements renders java_pf-vs-java_ic improvements as a table.
func FormatImprovements(ims []Improvement) string {
	if len(ims) == 0 {
		return "(no configuration ran under both java_ic and java_pf)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %5s %12s %12s %12s\n", "config", "nodes", "java_ic (s)", "java_pf (s)", "improvement")
	for _, im := range ims {
		p := im.Point
		fmt.Fprintf(&b, "%-40s %5d %12.6f %12.6f %11.1f%%\n",
			configLabel(p.App, p.Cluster, p.ThreadsPerNode, p.Override.Label), p.Nodes,
			im.ICSeconds, im.PFSeconds, im.Improvement*100)
	}
	return b.String()
}

// FormatBest renders best-config-per-app summaries as a table.
func FormatBest(bests []Best) string {
	if len(bests) == 0 {
		return "(no valid results)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %-8s %6s %4s %-12s %12s\n", "app", "cluster", "protocol", "nodes", "tpn", "label", "seconds")
	for _, x := range bests {
		fmt.Fprintf(&b, "%-8s %-10s %-8s %6d %4d %-12s %12.6f\n",
			x.App, x.Point.Cluster, x.Point.Protocol, x.Point.Nodes, x.Point.ThreadsPerNode,
			x.Point.Override.Label, x.Seconds)
	}
	return b.String()
}

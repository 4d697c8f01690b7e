package sweep

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
)

// The presets are the paper's evaluation written down as Specs: every
// figure and every §3.3 ablation is a named grid that the one Executor
// runs, so "regenerate Figure 2" and "sweep the check cost" are
// `hyperion-sweep -preset fig2` and `-preset ablate-check`, with the
// usual axis flags narrowing or moving the grid (-apps asp -nodes 8).

// figureTitles names the paper's Figures 1-5 in AppNames order: Figure
// i+1 plots AppNames()[i].
var figureTitles = []string{"Pi", "Jacobi", "Barnes Hut", "TSP", "ASP"}

// preset is one row of the table: a name and the specs it stands for.
// Every preset but "figures" is a single spec.
type preset struct {
	name  string
	specs []Spec
}

// figureSpec is the grid behind Figure id: one benchmark on the paper's
// two clusters under its two protocols at every node count. TSP's
// branch-and-bound search size varies a few percent with thread
// scheduling (as on the real system), so Figure 4 plots medians of
// three.
func figureSpec(id int) Spec {
	s := PaperGrid()
	s.Name = fmt.Sprintf("fig%d", id)
	s.Apps = []string{AppNames()[id-1]}
	if s.Apps[0] == "tsp" {
		s.Repeats = 3
	}
	return s
}

// ablationSpec is the fixed point the §3.3 ablations vary one knob
// around: Jacobi on four Myrinet nodes under the paper's two protocols.
func ablationSpec(name string) Spec {
	return Spec{
		Name:      name,
		Apps:      []string{"jacobi"},
		Clusters:  []string{"myrinet"},
		Protocols: []string{"java_ic", "java_pf"},
		Nodes:     []int{4},
	}
}

// costAxis builds one labeled override per value of a cost knob.
func costAxis[T any](param string, set func(*Override, *T), values ...T) []Override {
	out := make([]Override, len(values))
	for i := range values {
		out[i].Label = fmt.Sprintf("%s=%v", param, values[i])
		set(&out[i], &values[i])
	}
	return out
}

// presets builds the table afresh on every call, so callers may edit
// the specs they get.
func presets() []preset {
	var table []preset
	var figures []Spec
	for id := 1; id <= len(figureTitles); id++ {
		s := figureSpec(id)
		figures = append(figures, s)
		table = append(table, preset{s.Name, []Spec{s}})
	}
	// All five figures back to back (a list, not one spec, because
	// Repeats is per spec and only Figure 4 repeats).
	table = append(table, preset{"figures", figures})

	// Every registered protocol, the java_up and java_hlrc extensions
	// included, on the five benchmarks at one node count.
	protocols := ablationSpec("protocols")
	protocols.Apps = AppNames()
	protocols.Protocols = core.ProtocolNames()

	// §3.3: "the relative cost of page faults against inline-checks".
	// The cheaper the check, the smaller java_pf's advantage (the
	// processor effect behind the SCI-cluster observation); the dearer
	// the fault, likewise — the paper's platforms sit at 22 and 12 us.
	check := ablationSpec("ablate-check")
	check.Costs = costAxis("check_cycles", func(o *Override, v *float64) { o.CheckCycles = v }, 1, 2, 4, 8, 16, 32)
	fault := ablationSpec("ablate-fault")
	fault.Costs = costAxis("page_fault_us", func(o *Override, v *float64) { o.PageFaultUS = v }, 3, 6, 12, 22, 50, 100)
	// Page size trades the prefetch effect (§3.1) against transfer
	// volume and false sharing.
	pagesize := ablationSpec("pagesize")
	pagesize.Costs = costAxis("page_size", func(o *Override, v *int) { o.PageSize = v }, 1024, 2048, 4096, 8192, 16384)
	// §4.3's future work: "the effects of using more application
	// threads per node, thus enabling computation/communication
	// overlap". Nodes are uniprocessors, so compute is time-shared and
	// any gain comes from overlapping communication stalls.
	tpn := ablationSpec("tpn")
	tpn.ThreadsPerNode = []int{1, 2, 3, 4}
	// Every modeled interconnect; a platform smaller than the node
	// count drops out at expansion.
	network := ablationSpec("network")
	network.Clusters = ClusterNames()
	// Memory pressure: the per-node cache capacity in pages.
	cachecap := ablationSpec("cachecap")
	cachecap.Costs = costAxis("cache_capacity_pages", func(o *Override, v *int) { o.CacheCapacityPages = v }, 0, 64, 16, 8, 4)
	cachecap.Costs[0].Label = "cache_capacity_pages=unlimited"

	for _, s := range []Spec{protocols, check, fault, pagesize, tpn, network, cachecap} {
		table = append(table, preset{s.Name, []Spec{s}})
	}
	return table
}

// PresetNames lists the presets in table order.
func PresetNames() []string {
	table := presets()
	names := make([]string, len(table))
	for i, p := range table {
		names[i] = p.name
	}
	return names
}

// Preset returns the specs of a named preset, to be run back to back
// (ExpandAll). Each is an ordinary Spec: edit its axes before expanding
// it to move the grid.
func Preset(name string) ([]Spec, error) {
	for _, p := range presets() {
		if p.name == name {
			return p.specs, nil
		}
	}
	return nil, fmt.Errorf("sweep: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
}

// ExpandAll expands specs back to back into one point list.
func ExpandAll(specs []Spec) ([]Point, error) {
	var points []Point
	for _, s := range specs {
		ps, err := s.Expand()
		if err != nil {
			return nil, err
		}
		points = append(points, ps...)
	}
	return points, nil
}

// Figures assembles a sweep's results into the paper's plots: one
// Figure per app, one line per (cluster, protocol), points in result
// order — for an expanded spec that is ascending node count. The
// paper's five benchmarks get their figure number and title; any other
// app gets ID 0 and its own name. A failed or self-invalidated point is
// an error: a plot with a hole or a wrong answer in it is not the
// paper's figure.
func Figures(results []PointResult) ([]harness.Figure, error) {
	var figs []harness.Figure
	figOf := map[string]int{}     // app -> index into figs
	lineOf := map[[3]string]int{} // app, cluster, protocol -> index into its figure's Lines
	for _, pr := range results {
		p := pr.Point
		if pr.Err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", p, pr.Err)
		}
		if !pr.Result.Check.Valid {
			return nil, fmt.Errorf("sweep: %s failed validation: %s", p, pr.Result.Check.Summary)
		}
		fi, ok := figOf[p.App]
		if !ok {
			fi = len(figs)
			figOf[p.App] = fi
			fig := harness.Figure{Title: p.App}
			if i := slices.Index(AppNames(), p.App); i >= 0 {
				fig.ID, fig.Title = i+1, figureTitles[i]+": java_pf vs. java_ic"
			}
			figs = append(figs, fig)
		}
		fig := &figs[fi]
		key := [3]string{p.App, p.Cluster, p.Protocol}
		li, ok := lineOf[key]
		if !ok {
			li = len(fig.Lines)
			lineOf[key] = li
			fig.Lines = append(fig.Lines, harness.Line{Label: fmt.Sprintf("%s, %s", pr.Result.Cluster, p.Protocol)})
		}
		fig.Lines[li].Points = append(fig.Lines[li].Points,
			harness.Point{Nodes: p.Nodes, Seconds: pr.Result.Seconds(), Result: pr.Result})
	}
	return figs, nil
}

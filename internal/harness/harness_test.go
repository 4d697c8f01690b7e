package harness

import (
	"strings"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/apps/pi"
	"repro/internal/model"
	"repro/internal/vtime"
)

func TestRunProducesResult(t *testing.T) {
	res, err := Run(pi.New(100_000), RunConfig{Cluster: model.SCI450(), Nodes: 3, Protocol: "java_pf"})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "pi" || res.Nodes != 3 || res.Workers != 3 || res.Protocol != "java_pf" {
		t.Fatalf("result metadata: %+v", res)
	}
	if !res.Check.Valid || res.Seconds() <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Messages == 0 {
		t.Error("no network traffic recorded on a 3-node run")
	}
	if !strings.Contains(res.String(), "pi") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(pi.New(1000), RunConfig{Cluster: model.SCI450(), Nodes: 99, Protocol: "java_pf"}); err == nil {
		t.Error("oversized cluster accepted")
	}
	if _, err := Run(pi.New(1000), RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "bogus"}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestRunThreadsPerNode(t *testing.T) {
	res, err := Run(jacobi.New(32, 2), RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "java_pf", ThreadsPerNode: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 6 {
		t.Fatalf("workers = %d, want 6", res.Workers)
	}
	if !res.Check.Valid {
		t.Fatalf("multi-thread-per-node run invalid: %s", res.Check.Summary)
	}
}

func TestRunCostOverride(t *testing.T) {
	costs := model.DefaultDSMCosts()
	costs.ServiceCycles = 100000 // very slow home service
	slow, err := Run(jacobi.New(32, 2), RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "java_pf", Costs: &costs})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(jacobi.New(32, 2), RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "java_pf"})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Seconds() <= fast.Seconds() {
		t.Fatalf("cost override had no effect: %.4f vs %.4f", slow.Seconds(), fast.Seconds())
	}
}

func TestNodeCounts(t *testing.T) {
	got := NodeCounts(model.Myrinet200())
	if len(got) != 12 || got[0] != 1 || got[11] != 12 {
		t.Fatalf("NodeCounts = %v", got)
	}
}

func buildTinyFigure(t *testing.T) Figure {
	t.Helper()
	fig := Figure{ID: 2, Title: "tiny"}
	for _, cl := range model.Clusters() {
		for _, proto := range Protocols {
			line := Line{Label: cl.Name + " " + proto}
			for _, n := range []int{1, 2} {
				res, err := Run(jacobi.New(24, 2), RunConfig{Cluster: cl, Nodes: n, Protocol: proto})
				if err != nil {
					t.Fatal(err)
				}
				line.Points = append(line.Points, Point{Nodes: n, Seconds: res.Seconds(), Result: res})
			}
			fig.Lines = append(fig.Lines, line)
		}
	}
	return fig
}

func TestImprovementMath(t *testing.T) {
	fig := buildTinyFigure(t)
	v, ok := fig.Improvement(model.Myrinet200().Name, 1)
	if !ok {
		t.Fatal("no improvement at 1 node")
	}
	if v <= 0 || v >= 1 {
		t.Fatalf("improvement = %v", v)
	}
	if _, ok := fig.Improvement("no-such-cluster", 1); ok {
		t.Error("improvement for unknown cluster")
	}
	m, ok := fig.MeanImprovement(model.Myrinet200().Name)
	if !ok || m <= 0 {
		t.Fatalf("mean improvement = %v/%v", m, ok)
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	fig := buildTinyFigure(t)
	chart := fig.Render(60, 12)
	if !strings.Contains(chart, "Figure 2") || !strings.Contains(chart, "nodes") {
		t.Errorf("chart missing labels:\n%s", chart)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "nodes,") || !strings.Contains(csv, "\n1,") {
		t.Errorf("csv malformed:\n%s", csv)
	}
}

func TestCheckClaimsOnSyntheticData(t *testing.T) {
	// Build synthetic figures where pf always wins by a known margin and
	// verify the claim evaluation logic.
	mkFig := func(id int, icBase, pfBase float64) Figure {
		fig := Figure{ID: id}
		for _, cl := range model.Clusters() {
			factor := 1.0
			if cl.Name == model.SCI450().Name {
				factor = 0.4 // smaller gap on SCI
			}
			for _, proto := range Protocols {
				line := Line{Label: cl.Name + " " + proto}
				for _, n := range NodeCounts(cl) {
					sec := icBase / float64(n)
					if proto == "java_pf" {
						sec = icBase/float64(n) - (icBase-pfBase)/float64(n)*factor
					}
					line.Points = append(line.Points, Point{
						Nodes: n, Seconds: sec,
						Result: Result{Cluster: cl.Name, Protocol: proto, Nodes: n, Time: vtime.Time(sec * float64(vtime.Second))},
					})
				}
				fig.Lines = append(fig.Lines, line)
			}
		}
		return fig
	}
	figs := []Figure{
		mkFig(1, 10, 9.99), // pi: nearly identical
		mkFig(2, 10, 6.2),  // jacobi: 38%
		mkFig(3, 10, 5.6),  // barnes
		mkFig(4, 10, 5),    // tsp
		mkFig(5, 10, 3.6),  // asp: 64%
	}
	claims := CheckClaims(figs)
	byName := map[string]Claim{}
	for _, c := range claims {
		byName[c.Name] = c
	}
	for _, name := range []string{"pi-identical", "pf-superior", "myrinet-range", "sci-smaller"} {
		if c, ok := byName[name]; !ok || !c.Pass {
			t.Errorf("claim %s failed on synthetic pass data: %+v", name, c)
		}
	}
	// barnes-decline must FAIL on this synthetic data (constant
	// improvement by construction).
	if c := byName["barnes-decline"]; c.Pass {
		t.Error("barnes-decline passed on non-declining synthetic data")
	}
	if !strings.Contains(ReportClaims(claims), "pi-identical") {
		t.Error("ReportClaims output")
	}
	if !strings.Contains(ImprovementTable(figs), "fig 5") {
		t.Error("ImprovementTable output")
	}

	// A failed claim must fail the report (and so the command printing
	// it), not just print [FAIL].
	var out strings.Builder
	if err := Report(&out, figs); err == nil || !strings.Contains(err.Error(), "barnes-decline") {
		t.Errorf("Report error = %v, want the failed barnes-decline named", err)
	}
	if !strings.Contains(out.String(), "[FAIL] barnes-decline") || !strings.Contains(out.String(), "Figure 5") {
		t.Errorf("report lacks the failed claim or the charts:\n%s", out.String())
	}
	// Bend Barnes' Myrinet java_pf line into the paper's 46% -> 28%
	// decline: all five claims pass and the report succeeds.
	myr := model.Myrinet200()
	for _, l := range figs[2].Lines {
		for i := range l.Points {
			if pt := &l.Points[i]; pt.Result.Cluster == myr.Name && pt.Result.Protocol == "java_pf" {
				impr := 0.46 - 0.18*float64(pt.Nodes-1)/float64(myr.MaxNodes-1)
				pt.Seconds = 10 / float64(pt.Nodes) * (1 - impr)
			}
		}
	}
	out.Reset()
	if err := Report(&out, figs); err != nil {
		t.Errorf("Report on all-passing data: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "[PASS]"); n != 5 {
		t.Errorf("%d [PASS] lines, want 5:\n%s", n, out.String())
	}
}

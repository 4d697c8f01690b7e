package sweep

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/vtime"
)

// TestFigure2Golden pins the figure path end to end: Figure 2 built
// from its preset on the executor must match, byte for byte, the CSV
// the sequential figure loop printed before it was deleted
// (`hyperion-figures -fig 2 -csv` at PR 12). Jacobi is bit-reproducible,
// so any difference is a behaviour change in the engine, the preset or
// the assembly.
func TestFigure2Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig2.csv")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Preset("fig2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Executor{}).Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	figs, err := Figures(out.Points)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != 2 || figs[0].Title != "Jacobi: java_pf vs. java_ic" {
		t.Fatalf("figures: %+v", figs)
	}
	if got := figs[0].CSV(); got != string(want) {
		t.Errorf("Figure 2 CSV changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

func TestPresetsExpand(t *testing.T) {
	var figurePoints []Point
	for _, name := range PresetNames() {
		specs, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		points, err := ExpandAll(specs)
		if err != nil || len(points) == 0 {
			t.Fatalf("preset %s: %d points, %v", name, len(points), err)
		}
		if len(specs) == 1 && specs[0].Name != name {
			t.Errorf("preset %s holds spec %q", name, specs[0].Name)
		}
		switch {
		case name == "figures":
			if !reflect.DeepEqual(points, figurePoints) {
				t.Error("figures is not fig1..fig5 back to back")
			}
		case strings.HasPrefix(name, "fig"):
			// 12 Myrinet + 6 SCI node counts x 2 protocols, one app;
			// only Figure 4 (TSP) plots medians of three.
			wantRepeats := 1
			if name == "fig4" {
				wantRepeats = 3
			}
			if len(points) != 36 || points[0].Repeats != wantRepeats || points[0].App != AppNames()[len(figurePoints)/36] {
				t.Errorf("%s: %d points, first %+v", name, len(points), points[0])
			}
			figurePoints = append(figurePoints, points...)
		}
	}
	if _, err := Preset("fig6"); err == nil || !strings.Contains(err.Error(), "ablate-check") {
		t.Errorf("unknown preset: %v, want an error listing the presets", err)
	}
	// A caller editing its specs must not reach the next caller's.
	a, _ := Preset("fig1")
	a[0].Nodes = []int{1}
	if b, _ := Preset("fig1"); b[0].Nodes != nil {
		t.Error("presets share state between calls")
	}
}

// TestAblationPresetPoints: each ablation preset expands to exactly the
// run configurations, in exactly the order, that the harness ablation
// loops built before the presets replaced them (PR 12): one case per
// axis value (the values below are theirs), each under java_ic then
// java_pf, on four Myrinet nodes.
func TestAblationPresetPoints(t *testing.T) {
	type runCase struct {
		cluster  model.Cluster
		tpn      int
		capacity int
	}
	myr := model.Myrinet200()
	cases := map[string][]runCase{}
	for _, v := range []float64{1, 2, 4, 8, 16, 32} {
		c := myr
		c.Machine.CheckCycles = v
		cases["ablate-check"] = append(cases["ablate-check"], runCase{cluster: c, tpn: 1})
	}
	for _, v := range []float64{3, 6, 12, 22, 50, 100} {
		c := myr
		c.Machine.PageFault = vtime.Micro(v)
		cases["ablate-fault"] = append(cases["ablate-fault"], runCase{cluster: c, tpn: 1})
	}
	for _, v := range []int{1024, 2048, 4096, 8192, 16384} {
		c := myr
		c.PageSize = v
		cases["pagesize"] = append(cases["pagesize"], runCase{cluster: c, tpn: 1})
	}
	for _, v := range []int{1, 2, 3, 4} {
		cases["tpn"] = append(cases["tpn"], runCase{cluster: myr, tpn: v})
	}
	for _, cl := range []model.Cluster{myr, model.SCI450(), model.CommodityTCP()} {
		cases["network"] = append(cases["network"], runCase{cluster: cl, tpn: 1})
	}
	for _, v := range []int{0, 64, 16, 8, 4} {
		cases["cachecap"] = append(cases["cachecap"], runCase{cluster: myr, tpn: 1, capacity: v})
	}

	for name, want := range cases {
		specs, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		points, err := ExpandAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2*len(want) {
			t.Errorf("%s: %d points, want %d", name, len(points), 2*len(want))
			continue
		}
		for i, p := range points {
			w := want[i/2]
			costs := model.DefaultDSMCosts()
			costs.CacheCapacityPages = w.capacity
			cfg := mustConfig(t, p)
			if p.App != "jacobi" || p.Repeats != 1 || cfg.Nodes != 4 || cfg.Protocol != harness.Protocols[i%2] ||
				cfg.ThreadsPerNode != w.tpn || !reflect.DeepEqual(cfg.Cluster, w.cluster) || *cfg.Costs != costs {
				t.Errorf("%s point %d = %s: config %+v, want case %+v", name, i, p, cfg, w)
			}
		}
	}

	// The protocols preset: every registered protocol on the five
	// benchmarks at four Myrinet nodes.
	specs, _ := Preset("protocols")
	points, err := ExpandAll(specs)
	if err != nil || len(points) != 5*4 || points[0].Cluster != "myrinet" || points[0].Nodes != 4 {
		t.Errorf("protocols preset: %d points, %v", len(points), err)
	}
}

// TestPresetImprovementsFollowCosts runs the two cost ablations at
// reduced scale and checks the §3.3 tradeoff they exist to show:
// java_pf's advantage grows with the check cost and shrinks with the
// fault cost.
func TestPresetImprovementsFollowCosts(t *testing.T) {
	x := &Executor{NewApp: func(string, bool) (apps.App, error) { return jacobi.New(32, 2), nil }}
	improvements := func(preset string) []Improvement {
		specs, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		specs[0].Nodes = []int{2}
		out, err := x.Run(specs[0])
		if err == nil {
			err = out.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		ims := Improvements(out.Points)
		if len(ims) != len(specs[0].Costs) {
			t.Fatalf("%s: %d improvements for %d overrides", preset, len(ims), len(specs[0].Costs))
		}
		return ims
	}
	check := improvements("ablate-check")
	fault := improvements("ablate-fault")
	for i := 1; i < len(check); i++ {
		if check[i].Improvement <= check[i-1].Improvement {
			t.Errorf("improvement should grow with check cost: %s %.3f then %s %.3f",
				check[i-1].Point.Override.Label, check[i-1].Improvement, check[i].Point.Override.Label, check[i].Improvement)
		}
		if fault[i].Improvement >= fault[i-1].Improvement {
			t.Errorf("improvement should shrink with fault cost: %s %.3f then %s %.3f",
				fault[i-1].Point.Override.Label, fault[i-1].Improvement, fault[i].Point.Override.Label, fault[i].Improvement)
		}
	}
}

// TestFiguresRejectsBadPoints: a figure is built only from complete,
// self-validated data, and an app outside the paper's five is plotted
// under its own name.
func TestFiguresRejectsBadPoints(t *testing.T) {
	results := syntheticResults()
	figs, err := Figures(results)
	if err != nil || len(figs) != 1 || len(figs[0].Lines) != 2 || len(figs[0].Lines[1].Points) != 4 {
		t.Fatalf("figures %+v, %v", figs, err)
	}
	if l := figs[0].Lines[1]; l.Label != "myrinet, java_pf" || l.Points[3].Nodes != 8 || l.Points[3].Seconds != 1.125 {
		t.Errorf("line %+v", l)
	}

	failed := append(syntheticResults(), PointResult{Point: results[0].Point, Err: errors.New("boom")})
	if _, err := Figures(failed); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failed point accepted: %v", err)
	}
	invalid := syntheticResults()
	invalid[3].Result.Check = apps.Check{Summary: "wrong sum"}
	if _, err := Figures(invalid); err == nil || !strings.Contains(err.Error(), "wrong sum") {
		t.Errorf("invalid point accepted: %v", err)
	}

	p := Point{App: "jacobi-flat", Cluster: "sci", Protocol: "java_pf", Nodes: 1, ThreadsPerNode: 1, Repeats: 1}
	figs, err = Figures([]PointResult{{Point: p, Result: fakeResult(p, 1)}})
	if err != nil || figs[0].ID != 0 || figs[0].Title != "jacobi-flat" {
		t.Errorf("non-paper app: %+v, %v", figs, err)
	}
}

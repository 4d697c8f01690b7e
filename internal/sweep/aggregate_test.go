package sweep

import (
	"errors"
	"strings"
	"testing"
)

// syntheticResults builds a two-protocol grid with hand-picked times:
// java_ic starts faster (cheap at low contention) and java_pf overtakes
// it from 4 nodes on — one crossover — while java_pf scales linearly.
func syntheticResults() []PointResult {
	mk := func(proto string, nodes int, secs float64) PointResult {
		p := Point{App: "jacobi", Cluster: "myrinet", Protocol: proto, Nodes: nodes, ThreadsPerNode: 1, Repeats: 1}
		return PointResult{Point: p, Result: fakeResult(p, secs)}
	}
	return []PointResult{
		mk("java_ic", 1, 8.0), mk("java_pf", 1, 9.0),
		mk("java_ic", 2, 4.5), mk("java_pf", 2, 4.6),
		mk("java_ic", 4, 3.0), mk("java_pf", 4, 2.25),
		mk("java_ic", 8, 2.5), mk("java_pf", 8, 1.125),
	}
}

func TestSpeedups(t *testing.T) {
	curves := Speedups(syntheticResults())
	if len(curves) != 2 {
		t.Fatalf("%d curves, want 2", len(curves))
	}
	// Sorted by key string: java_ic before java_pf.
	pf := curves[1]
	if pf.Key.Protocol != "java_pf" || pf.BaselineNodes != 1 {
		t.Fatalf("curve key %v baseline %d", pf.Key, pf.BaselineNodes)
	}
	last := pf.Points[len(pf.Points)-1]
	if last.Nodes != 8 || last.Speedup != 8.0 || last.Efficiency != 1.0 {
		t.Errorf("java_pf at 8 nodes: %+v, want linear speedup 8", last)
	}
	ic := curves[0]
	if got := ic.Points[len(ic.Points)-1].Speedup; got != 8.0/2.5 {
		t.Errorf("java_ic speedup at 8 = %v", got)
	}
}

func TestCrossovers(t *testing.T) {
	xs := Crossovers(syntheticResults(), "java_ic", "java_pf")
	if len(xs) != 1 {
		t.Fatalf("%d crossovers, want 1: %+v", len(xs), xs)
	}
	x := xs[0]
	if x.From != "java_ic" || x.To != "java_pf" || x.PrevNodes != 2 || x.Nodes != 4 {
		t.Fatalf("crossover %+v", x)
	}
	if want := (3.0 - 2.25) / 3.0; x.Improvement != want {
		t.Errorf("improvement %v, want %v", x.Improvement, want)
	}
	// One-sided data (a single protocol) has no crossover.
	var pfOnly []PointResult
	for _, pr := range syntheticResults() {
		if pr.Point.Protocol == "java_pf" {
			pfOnly = append(pfOnly, pr)
		}
	}
	if xs := Crossovers(pfOnly, "java_ic", "java_pf"); len(xs) != 0 {
		t.Errorf("crossover from one-sided data: %+v", xs)
	}
}

// TestImprovements: java_ic and java_pf are paired per configuration and
// node count, in result order (an ablation's declared axis order, not a
// string sort that would put 16 before 2), and a configuration lacking
// either protocol has no row.
func TestImprovements(t *testing.T) {
	ims := Improvements(syntheticResults())
	if len(ims) != 4 {
		t.Fatalf("%d improvements, want one per node count: %+v", len(ims), ims)
	}
	if im := ims[2]; im.Point.Nodes != 4 || im.Point.Protocol != "" || im.ICSeconds != 3.0 || im.PFSeconds != 2.25 || im.Improvement != (3.0-2.25)/3.0 {
		t.Errorf("improvement at 4 nodes: %+v", im)
	}
	if ims[0].Improvement >= 0 {
		t.Errorf("java_pf is slower at 1 node, improvement = %v", ims[0].Improvement)
	}

	var results []PointResult
	for _, v := range []float64{2, 16, 4} {
		for _, proto := range []string{"java_ic", "java_pf", "java_up"} {
			if v == 4 && proto == "java_pf" {
				continue // unpaired
			}
			p := Point{App: "asp", Cluster: "sci", Protocol: proto, Nodes: 2, ThreadsPerNode: 1, Repeats: 1,
				Override: Override{CheckCycles: f64p(v)}}
			results = append(results, PointResult{Point: p, Result: fakeResult(p, v)})
		}
	}
	ims = Improvements(results)
	if len(ims) != 2 || *ims[0].Point.Override.CheckCycles != 2 || *ims[1].Point.Override.CheckCycles != 16 {
		t.Fatalf("want the two paired overrides in declared order, got %+v", ims)
	}
}

func TestBestConfigs(t *testing.T) {
	results := syntheticResults()
	// A second app with a single obvious winner.
	p := Point{App: "asp", Cluster: "sci", Protocol: "java_pf", Nodes: 6, ThreadsPerNode: 1, Repeats: 1}
	results = append(results, PointResult{Point: p, Result: fakeResult(p, 0.5)})
	bests := BestConfigs(results)
	if len(bests) != 2 {
		t.Fatalf("%d bests, want 2", len(bests))
	}
	if bests[0].App != "asp" || bests[0].Seconds != 0.5 {
		t.Errorf("asp best %+v", bests[0])
	}
	if bests[1].App != "jacobi" || bests[1].Point.Protocol != "java_pf" || bests[1].Point.Nodes != 8 {
		t.Errorf("jacobi best %+v", bests[1])
	}
}

// TestUnlabeledOverridesAreDistinctSeries: overrides are identified by
// their effective values, not their display labels — two unlabeled but
// different cost overrides must not be merged into one curve or one
// crossover configuration.
func TestUnlabeledOverridesAreDistinctSeries(t *testing.T) {
	mk := func(pageSize int, proto string, nodes int, secs float64) PointResult {
		p := Point{App: "jacobi", Cluster: "myrinet", Protocol: proto, Nodes: nodes, ThreadsPerNode: 1, Repeats: 1,
			Override: Override{PageSize: intp(pageSize)}}
		return PointResult{Point: p, Result: fakeResult(p, secs)}
	}
	results := []PointResult{
		mk(4096, "java_pf", 1, 8.0), mk(4096, "java_pf", 2, 4.0),
		mk(8192, "java_pf", 1, 6.0), mk(8192, "java_pf", 2, 3.0),
	}
	curves := Speedups(results)
	if len(curves) != 2 {
		t.Fatalf("%d curves, want 2 (one per page size): %+v", len(curves), curves)
	}
	for _, c := range curves {
		if len(c.Points) != 2 || c.Points[1].Speedup != 2.0 {
			t.Errorf("curve %s polluted across overrides: %+v", c.Key, c.Points)
		}
	}
	// Crossovers likewise must not compare protocols across different
	// overrides: ic wins everywhere at 4096, pf everywhere at 8192 — no
	// crossover exists within either configuration.
	results = append(results,
		mk(4096, "java_ic", 1, 7.0), mk(4096, "java_ic", 2, 3.5),
		mk(8192, "java_ic", 1, 7.0), mk(8192, "java_ic", 2, 3.5),
	)
	if xs := Crossovers(results, "java_ic", "java_pf"); len(xs) != 0 {
		t.Errorf("crossovers fabricated across distinct overrides: %+v", xs)
	}
}

func TestAggregatesIgnoreFailedAndInvalidPoints(t *testing.T) {
	results := syntheticResults()
	// A failed point and an invalid one must not contribute.
	bad := Point{App: "jacobi", Cluster: "myrinet", Protocol: "java_pf", Nodes: 16, ThreadsPerNode: 1, Repeats: 1}
	results = append(results, PointResult{Point: bad, Err: errors.New("boom")})
	invalid := Point{App: "jacobi", Cluster: "myrinet", Protocol: "java_ic", Nodes: 16, ThreadsPerNode: 1, Repeats: 1}
	r := fakeResult(invalid, 0.001)
	r.Check.Valid = false
	results = append(results, PointResult{Point: invalid, Result: r})

	for _, c := range Speedups(results) {
		for _, p := range c.Points {
			if p.Nodes == 16 {
				t.Fatal("failed/invalid point reached a speedup curve")
			}
		}
	}
	if bests := BestConfigs(results); bests[len(bests)-1].Point.Nodes == 16 {
		t.Fatal("invalid point won best-config")
	}
	for _, im := range Improvements(results) {
		if im.Point.Nodes == 16 {
			t.Fatal("failed/invalid pair reached the improvement table")
		}
	}
}

func TestRenderers(t *testing.T) {
	results := syntheticResults()
	var csv strings.Builder
	if err := WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "app,cluster,nodes,tpn,protocol,") {
		t.Errorf("csv header: %q", csv.String())
	}
	if !strings.Contains(csv.String(), "jacobi,myrinet,8,1,java_pf,,1.125") {
		t.Errorf("csv rows:\n%s", csv.String())
	}

	sp := FormatSpeedups(Speedups(results))
	if !strings.Contains(sp, "speedup") || !strings.Contains(sp, "8.00x") {
		t.Errorf("speedup table:\n%s", sp)
	}
	xo := FormatCrossovers(Crossovers(results, "java_ic", "java_pf"), "java_ic", "java_pf")
	if !strings.Contains(xo, "java_ic → java_pf") {
		t.Errorf("crossover table:\n%s", xo)
	}
	if !strings.Contains(FormatCrossovers(nil, "a", "b"), "no crossover") {
		t.Error("empty crossover table")
	}
	it := FormatImprovements(Improvements(results))
	if !strings.Contains(it, "improvement") || !strings.Contains(it, "25.0%") {
		t.Errorf("improvement table:\n%s", it)
	}
	if !strings.Contains(FormatImprovements(nil), "no configuration") {
		t.Error("empty improvement table")
	}
	bt := FormatBest(BestConfigs(results))
	if !strings.Contains(bt, "jacobi") {
		t.Errorf("best table:\n%s", bt)
	}
	if !strings.Contains(FormatBest(nil), "no valid results") {
		t.Error("empty best table")
	}
	if !strings.Contains(FormatSpeedups(nil), "no curves") {
		t.Error("empty speedup table")
	}
}

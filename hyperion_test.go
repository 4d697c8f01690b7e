package hyperion_test

import (
	"strings"
	"testing"

	hyperion "repro"
	"repro/internal/harness"
)

func newSys(t *testing.T, opts hyperion.Options) *hyperion.System {
	t.Helper()
	sys, err := hyperion.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewDefaults(t *testing.T) {
	sys := newSys(t, hyperion.Options{})
	if sys.Nodes() != 12 {
		t.Errorf("default nodes = %d, want the Myrinet cluster's 12", sys.Nodes())
	}
	if sys.Protocol() != "java_pf" {
		t.Errorf("default protocol = %q", sys.Protocol())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := hyperion.New(hyperion.Options{Nodes: 99}); err == nil {
		t.Error("oversized cluster accepted")
	}
	if _, err := hyperion.New(hyperion.Options{Protocol: "nope", Nodes: 2}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestProtocolsListed(t *testing.T) {
	ps := hyperion.Protocols()
	found := map[string]bool{}
	for _, p := range ps {
		found[p] = true
	}
	if !found["java_ic"] || !found["java_pf"] {
		t.Fatalf("protocols = %v", ps)
	}
}

func TestQuickstartProgram(t *testing.T) {
	// The doc-comment program, as a regression test for the public API.
	for _, proto := range []string{"java_ic", "java_pf"} {
		sys := newSys(t, hyperion.Options{Cluster: hyperion.SCI450(), Nodes: 4, Protocol: proto})
		var final int64
		end := sys.Main(func(t *hyperion.Thread) {
			counter := sys.NewI64Array(t, 0, 1)
			mon := sys.NewMonitor(0)
			var ws []*hyperion.Thread
			for i := 0; i < 4; i++ {
				ws = append(ws, sys.Spawn(t, func(w *hyperion.Thread) {
					mon.Synchronized(w, func() {
						counter.Set(w, 0, counter.Get(w, 0)+1)
					})
				}))
			}
			for _, w := range ws {
				sys.Join(t, w)
			}
			mon.Synchronized(t, func() { final = counter.Get(t, 0) })
		})
		if final != 4 {
			t.Fatalf("%s: counter = %d", proto, final)
		}
		if end <= 0 || sys.ExecutionTime() != end {
			t.Fatalf("%s: time bookkeeping (%v vs %v)", proto, end, sys.ExecutionTime())
		}
		if msgs, _ := sys.NetworkStats(); msgs == 0 {
			t.Errorf("%s: no messages on a 4-node run", proto)
		}
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	// The same deterministic program must produce the identical virtual
	// time on repeated runs, regardless of goroutine scheduling.
	run := func() hyperion.Time {
		sys := newSys(t, hyperion.Options{Cluster: hyperion.Myrinet200(), Nodes: 4, Protocol: "java_pf"})
		return sys.Main(func(t *hyperion.Thread) {
			data := sys.NewF64ArrayAligned(t, 1, 2048)
			bar := sys.NewBarrier(0, 4)
			var ws []*hyperion.Thread
			for i := 0; i < 4; i++ {
				i := i
				ws = append(ws, sys.Spawn(t, func(w *hyperion.Thread) {
					for k := 0; k < 3; k++ {
						for j := i * 512; j < (i+1)*512; j++ {
							data.Set(w, j, float64(j+k))
						}
						bar.Await(w)
						sum := 0.0
						for j := 0; j < 2048; j += 64 {
							sum += data.Get(w, j)
						}
						w.Compute(sum-sum+1000, 0)
						bar.Await(w)
					}
				}))
			}
			for _, w := range ws {
				sys.Join(t, w)
			}
		})
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: virtual time %v != %v", i, got, first)
		}
	}
}

func TestAppRegistry(t *testing.T) {
	for _, name := range hyperion.AppNames() {
		app, err := hyperion.NewApp(name, false)
		if err != nil {
			t.Fatal(err)
		}
		if app.Name() != name {
			t.Errorf("NewApp(%q).Name() = %q", name, app.Name())
		}
		paper, err := hyperion.NewApp(name, true)
		if err != nil || paper == nil {
			t.Errorf("paper-scale %s: %v", name, err)
		}
	}
	if _, err := hyperion.NewApp("quake", false); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestRunBenchmarkThroughPublicAPI(t *testing.T) {
	app, err := hyperion.NewApp("pi", false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyperion.RunBenchmark(app, hyperion.RunConfig{
		Cluster: hyperion.SCI450(), Nodes: 2, Protocol: "java_ic",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.Valid {
		t.Fatalf("invalid: %s", res.Check.Summary)
	}
	if res.Stats.LocalityChecks == 0 {
		t.Error("java_ic run recorded no checks")
	}
}

func TestBuildFigureByID(t *testing.T) {
	if _, err := hyperion.BuildFigureByID(9, false); err == nil {
		t.Error("figure 9 accepted")
	}
	// A figure's data is pinned by the sweep package's golden test; here
	// we only check the public wiring with the cheapest one (Pi).
	fig, err := hyperion.BuildFigureByID(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != 1 || len(fig.Lines) != 4 {
		t.Fatalf("figure: id=%d lines=%d", fig.ID, len(fig.Lines))
	}
	if !strings.Contains(fig.Render(60, 12), "Pi") {
		t.Error("render output")
	}
}

func TestCrossProtocolResultEquality(t *testing.T) {
	// System-level protocol equivalence: the same program must compute
	// the same data under both protocols (they differ only in cost).
	results := map[string]float64{}
	for _, proto := range []string{"java_ic", "java_pf"} {
		sys := newSys(t, hyperion.Options{Cluster: hyperion.Myrinet200(), Nodes: 3, Protocol: proto})
		var total float64
		sys.Main(func(t *hyperion.Thread) {
			arr := sys.NewF64Array(t, 2, 300)
			mon := sys.NewMonitor(1)
			var ws []*hyperion.Thread
			for i := 0; i < 3; i++ {
				i := i
				ws = append(ws, sys.Spawn(t, func(w *hyperion.Thread) {
					for j := i * 100; j < (i+1)*100; j++ {
						mon.Synchronized(w, func() {
							arr.Set(w, j, float64(j)*1.5)
						})
					}
				}))
			}
			for _, w := range ws {
				sys.Join(t, w)
			}
			mon.Synchronized(t, func() {
				for j := 0; j < 300; j++ {
					total += arr.Get(t, j)
				}
			})
		})
		results[proto] = total
	}
	if results["java_ic"] != results["java_pf"] {
		t.Fatalf("protocols computed different data: %v vs %v", results["java_ic"], results["java_pf"])
	}
}

func TestPageProfilingThroughPublicAPI(t *testing.T) {
	sys := newSys(t, hyperion.Options{Cluster: hyperion.SCI450(), Nodes: 2, Protocol: "java_pf"})
	if sys.PageStats() != nil {
		t.Fatal("PageStats non-nil before EnablePageProfiling")
	}
	if err := sys.EnablePageProfiling(); err != nil {
		t.Fatal(err)
	}
	sys.Main(func(t *hyperion.Thread) {
		arr := sys.NewF64Array(t, 0, 512)
		var ws []*hyperion.Thread
		for i := 0; i < 2; i++ {
			i := i
			ws = append(ws, sys.Spawn(t, func(w *hyperion.Thread) {
				for j := i * 256; j < (i+1)*256; j++ {
					arr.Set(w, j, float64(j))
				}
			}))
		}
		for _, w := range ws {
			sys.Join(t, w)
		}
	})
	r := sys.PageStats()
	if r == nil {
		t.Fatal("PageStats nil after a profiled run")
	}
	if r.Nodes != 2 || r.PagesTracked == 0 || len(r.Pages) != r.PagesTracked {
		t.Fatalf("report shape %+v", r)
	}
	var total int64
	for _, n := range r.Classes {
		total += n
	}
	if total != int64(len(r.Pages)) {
		t.Fatalf("class tallies %v over %d pages", r.Classes, len(r.Pages))
	}
}

func TestHarnessProtocolsOrder(t *testing.T) {
	if len(harness.Protocols) != 2 || harness.Protocols[0] != "java_ic" || harness.Protocols[1] != "java_pf" {
		t.Fatalf("protocol order = %v (figures legend order matters)", harness.Protocols)
	}
}

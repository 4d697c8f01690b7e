// Benchmarks regenerating the paper's evaluation. One benchmark per
// figure (Figures 1-5: execution time vs nodes for the five programs
// under both protocols on both platforms) plus the §4.2 constants check,
// ablation benchmarks for the §3.3 tradeoff, the §4.3 future-work
// threads-per-node experiment, and micro-benchmarks of the Table 2
// primitives.
//
// Each figure benchmark runs its program at reduced scale on
// representative configurations; `go run ./cmd/hyperion-sweep -preset
// figures -report` produces the full curves. The ablation benchmarks run
// the sweep presets (`-preset ablate-check`, ...) on the executor with a
// reduced-scale program in place of the preset's. Benchmark metrics report *virtual* seconds per
// protocol as custom metrics (vs_java_ic, vs_java_pf), so the protocol
// comparison is visible directly in the bench output.
package hyperion_test

import (
	"testing"

	hyperion "repro"
	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/barnes"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/pi"
	"repro/internal/apps/tsp"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/sweep"
)

// benchFigure runs one benchmark app under both protocols on the given
// platform and node count, reporting virtual execution times as metrics.
func benchFigure(b *testing.B, makeApp func() apps.App, cl model.Cluster, nodes int) {
	b.Helper()
	var icSec, pfSec float64
	for i := 0; i < b.N; i++ {
		for _, proto := range harness.Protocols {
			res, err := harness.Run(makeApp(), harness.RunConfig{Cluster: cl, Nodes: nodes, Protocol: proto})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Check.Valid {
				b.Fatalf("validation failed: %s", res.Check.Summary)
			}
			switch proto {
			case "java_ic":
				icSec = res.Seconds()
			case "java_pf":
				pfSec = res.Seconds()
			}
		}
	}
	b.ReportMetric(icSec, "vs_java_ic")
	b.ReportMetric(pfSec, "vs_java_pf")
	if icSec > 0 {
		b.ReportMetric((icSec-pfSec)/icSec*100, "improvement_%")
	}
}

// BenchmarkFig1Pi regenerates Figure 1's comparison (Pi, protocols
// essentially identical).
func BenchmarkFig1Pi(b *testing.B) {
	benchFigure(b, func() apps.App { return pi.New(500_000) }, model.Myrinet200(), 4)
}

// BenchmarkFig2Jacobi regenerates Figure 2's comparison (Jacobi, ~38%
// improvement on the Myrinet cluster).
func BenchmarkFig2Jacobi(b *testing.B) {
	benchFigure(b, func() apps.App { return jacobi.New(96, 6) }, model.Myrinet200(), 4)
}

// BenchmarkFig3Barnes regenerates Figure 3's comparison (Barnes,
// improvement decaying with node count).
func BenchmarkFig3Barnes(b *testing.B) {
	benchFigure(b, func() apps.App { return barnes.New(512, 2, 1) }, model.Myrinet200(), 4)
}

// BenchmarkFig4TSP regenerates Figure 4's comparison (TSP, central
// monitor-protected queue). It uses the figure's instance (14 cities,
// seed 16): smaller instances prune so aggressively that per-pop
// overheads dominate and the comparison becomes scheduling noise.
func BenchmarkFig4TSP(b *testing.B) {
	benchFigure(b, func() apps.App { return tsp.New(14, 16) }, model.Myrinet200(), 4)
}

// BenchmarkFig5ASP regenerates Figure 5's comparison (ASP, the largest
// improvement: an integer inner loop with three locality checks).
func BenchmarkFig5ASP(b *testing.B) {
	benchFigure(b, func() apps.App { return asp.New(96, 1) }, model.Myrinet200(), 4)
}

// BenchmarkFigSCICluster runs the SCI-cluster column of the figures
// (Jacobi as representative): the faster processors shrink java_pf's
// advantage (§4.3).
func BenchmarkFigSCICluster(b *testing.B) {
	benchFigure(b, func() apps.App { return jacobi.New(96, 6) }, model.SCI450(), 4)
}

// runPreset executes a single-spec sweep preset on the executor with
// every point running makeApp's reduced-scale program, and fails the
// benchmark on a failed or self-invalidated point.
func runPreset(b *testing.B, name string, makeApp func() apps.App) []sweep.PointResult {
	b.Helper()
	specs, err := sweep.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	x := &sweep.Executor{NewApp: func(string, bool) (apps.App, error) { return makeApp(), nil }}
	out, err := x.Run(specs[0])
	if err == nil {
		err = out.Err()
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, pr := range out.Points {
		if !pr.Result.Check.Valid {
			b.Fatalf("%s failed validation: %s", pr.Point, pr.Result.Check.Summary)
		}
	}
	return out.Points
}

// BenchmarkAblationCheckCost sweeps the in-line check cost on ASP,
// quantifying §3.3's tradeoff axis 1 (check cost vs computation).
func BenchmarkAblationCheckCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runPreset(b, "ablate-check", func() apps.App { return asp.New(64, 1) })
		if b.N == 1 {
			for _, im := range sweep.Improvements(results) {
				switch im.Point.Override.Label {
				case "check_cycles=2":
					b.ReportMetric(im.Improvement*100, "impr_2cyc_%")
				case "check_cycles=32":
					b.ReportMetric(im.Improvement*100, "impr_32cyc_%")
				}
			}
		}
	}
}

// BenchmarkAblationFaultCost sweeps the page-fault cost on Jacobi,
// quantifying §3.3's tradeoff axis 2 (fault cost vs remote accesses).
func BenchmarkAblationFaultCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPreset(b, "ablate-fault", func() apps.App { return jacobi.New(64, 4) })
	}
}

// BenchmarkAblationPageSize sweeps the DSM page size (prefetch effect of
// §3.1 vs transfer volume).
func BenchmarkAblationPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPreset(b, "pagesize", func() apps.App { return jacobi.New(64, 4) })
	}
}

// BenchmarkMultiThreadPerNode runs the experiment §4.3 leaves as future
// work: more than one application thread per node.
func BenchmarkMultiThreadPerNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runPreset(b, "tpn", func() apps.App { return jacobi.New(96, 4) })
		if b.N == 1 {
			for _, pr := range results {
				if pr.Point.Protocol != "java_pf" {
					continue
				}
				switch pr.Point.ThreadsPerNode {
				case 1:
					b.ReportMetric(pr.Result.Seconds(), "vs_1tpn")
				case 4:
					b.ReportMetric(pr.Result.Seconds(), "vs_4tpn")
				}
			}
		}
	}
}

// --- Table 2 primitive micro-benchmarks ----------------------------------

func newBenchSystem(b *testing.B, proto string, nodes int) *hyperion.System {
	b.Helper()
	sys, err := hyperion.New(hyperion.Options{Cluster: hyperion.Myrinet200(), Nodes: nodes, Protocol: proto})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkGetLocal measures the real (host) cost of the get primitive on
// a home page under each protocol.
func BenchmarkGetLocal(b *testing.B) {
	for _, proto := range []string{"java_ic", "java_pf"} {
		b.Run(proto, func(b *testing.B) {
			sys := newBenchSystem(b, proto, 1)
			sys.Main(func(t *hyperion.Thread) {
				arr := sys.NewF64Array(t, 0, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arr.Get(t, i%64)
				}
			})
		})
	}
}

// BenchmarkRemoteLoad measures loadIntoCache: a cold remote access
// (fetching the page from its home) under each protocol.
func BenchmarkRemoteLoad(b *testing.B) {
	for _, proto := range []string{"java_ic", "java_pf"} {
		b.Run(proto, func(b *testing.B) {
			sys := newBenchSystem(b, proto, 2)
			sys.Main(func(t *hyperion.Thread) {
				arr := sys.NewF64Array(t, 1, 64)
				mon := sys.NewMonitor(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mon.Enter(t) // invalidate, forcing a refetch
					mon.Exit(t)
					arr.Get(t, 0)
				}
			})
		})
	}
}

// BenchmarkMonitorLocal measures an uncontended monitor enter/exit pair.
func BenchmarkMonitorLocal(b *testing.B) {
	sys := newBenchSystem(b, "java_pf", 1)
	sys.Main(func(t *hyperion.Thread) {
		mon := sys.NewMonitor(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mon.Enter(t)
			mon.Exit(t)
		}
	})
}

// BenchmarkDiffFlush times one updateMainMemory of a remote page dirtied
// by 64 scattered puts (sort, encode, ship, apply — what the benchmark's
// core.flush_us_per_page measures). The puts themselves are outside the
// timed region: BenchmarkWriteLogRecord* in internal/core cover them.
func BenchmarkDiffFlush(b *testing.B) {
	sys := newBenchSystem(b, "java_ic", 2)
	sys.Main(func(t *hyperion.Thread) {
		w := sys.SpawnOn(t, 1, func(t *hyperion.Thread) {
			arr := sys.NewF64ArrayAligned(t, 0, 512) // one page, homed remotely
			eng, ctx := sys.Heap().Engine(), t.Ctx()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < 64; k++ {
					arr.Set(t, (k*37+i)&511, float64(i))
				}
				b.StartTimer()
				eng.UpdateMainMemory(ctx)
			}
		})
		sys.Join(t, w)
	})
}

// BenchmarkBarrier measures the monitor-built barrier across 4 nodes.
func BenchmarkBarrier(b *testing.B) {
	sys := newBenchSystem(b, "java_pf", 4)
	sys.Main(func(t *hyperion.Thread) {
		bar := sys.NewBarrier(0, 4)
		ws := make([]*hyperion.Thread, 4)
		for w := 0; w < 4; w++ {
			ws[w] = sys.Spawn(t, func(t *hyperion.Thread) {
				for i := 0; i < b.N; i++ {
					bar.Await(t)
				}
			})
		}
		b.ResetTimer()
		for _, w := range ws {
			sys.Join(t, w)
		}
	})
}

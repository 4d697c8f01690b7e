// Package sweep is the experiment-orchestration subsystem of
// Hyperion-Go. Every result in the paper's evaluation — Figures 1-5, the
// §4.3 improvement analysis, the ablations — is one grid point in
// app x cluster x protocol x nodes x cost space, and every simulated
// System is fully independent of every other. This package turns that
// independence into throughput:
//
//   - Spec declares a sweep as cross-product axes (apps, clusters,
//     protocols, node counts, threads per node, cost overrides) and
//     round-trips through JSON so sweeps can live in files.
//   - Expand turns a Spec into the explicit list of Points, in a
//     deterministic order (app, cluster, override, threads, nodes,
//     protocol — the row order of the grid CSVs).
//   - Executor runs points concurrently on a worker pool, with per-point
//     panic isolation, deterministic result ordering, progress
//     reporting, and a content-addressed on-disk cache: re-running a
//     sweep only executes new or changed points, and an interrupted
//     sweep resumes where it stopped.
//   - Aggregate computes speedup curves, protocol-crossover points,
//     java_pf-vs-java_ic improvements and best-config-per-app summaries
//     from the raw results; Figures assembles them into the paper's
//     plots.
//   - Preset names the grids of the paper's evaluation (fig1..fig5,
//     figures, the §3.3 ablations) as checked-in Specs.
//
// The Executor is the only grid runner in the repo: cmd/hyperion-sweep
// is its command-line front end, internal/service its HTTP one, and the
// public hyperion.BuildFigureByID/BuildAllFigures run presets on it.
package sweep

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/barnes"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/pi"
	"repro/internal/apps/tsp"
	"repro/internal/model"
)

// AppNames lists the five benchmarks in the paper's figure order.
// jacobi-flat (the naive-layout false-sharing demonstrator) resolves
// through NewApp but is deliberately absent here: it is a diagnostic,
// not part of the paper's suite, and "all apps" sweeps must keep
// regenerating exactly the paper's figures.
func AppNames() []string { return []string{"pi", "jacobi", "barnes", "tsp", "asp"} }

// NewApp builds a benchmark by name. paperScale selects the exact §4.1
// problem sizes; otherwise proportionally scaled-down defaults are used.
func NewApp(name string, paperScale bool) (apps.App, error) {
	switch name {
	case "jacobi-flat":
		if paperScale {
			return jacobi.FlatPaper(), nil
		}
		return jacobi.FlatDefault(), nil
	case "pi":
		if paperScale {
			return pi.Paper(), nil
		}
		return pi.Default(), nil
	case "jacobi":
		if paperScale {
			return jacobi.Paper(), nil
		}
		return jacobi.Default(), nil
	case "barnes":
		if paperScale {
			return barnes.Paper(), nil
		}
		return barnes.Default(), nil
	case "tsp":
		if paperScale {
			return tsp.Paper(), nil
		}
		return tsp.Default(), nil
	case "asp":
		if paperScale {
			return asp.Paper(), nil
		}
		return asp.Default(), nil
	}
	return nil, fmt.Errorf("sweep: unknown app %q (have %v)", name, AppNames())
}

// ClusterNames lists the canonical platform keys.
func ClusterNames() []string { return []string{"myrinet", "sci", "tcp"} }

// CanonicalCluster maps a platform name or alias to its canonical key
// ("myrinet", "sci", "tcp"), which is what Points store and cache keys
// hash.
func CanonicalCluster(name string) (string, error) {
	switch strings.ToLower(name) {
	case "myrinet", "myrinet200", "bip", "200mhz/myrinet":
		return "myrinet", nil
	case "sci", "sci450", "sisci", "450mhz/sci":
		return "sci", nil
	case "tcp", "ethernet", "450mhz/tcp":
		return "tcp", nil
	}
	return "", fmt.Errorf("sweep: unknown cluster %q (have %v)", name, ClusterNames())
}

// ClusterByName returns the platform preset for a name or alias.
func ClusterByName(name string) (model.Cluster, error) {
	key, err := CanonicalCluster(name)
	if err != nil {
		return model.Cluster{}, err
	}
	switch key {
	case "myrinet":
		return model.Myrinet200(), nil
	case "sci":
		return model.SCI450(), nil
	default:
		return model.CommodityTCP(), nil
	}
}

package hyperion

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/sweep"
)

// Benchmark-facing re-exports, so downstream users can drive the paper's
// evaluation through the public API.
type (
	// App is one of the paper's benchmark programs.
	App = apps.App
	// Check is a benchmark's self-validation outcome.
	Check = apps.Check
	// RunConfig selects the platform for one benchmark run.
	RunConfig = harness.RunConfig
	// Result is the outcome of one benchmark run.
	Result = harness.Result
	// Figure is one regenerated paper figure.
	Figure = harness.Figure
)

// AppNames lists the five benchmarks in the paper's figure order.
func AppNames() []string { return sweep.AppNames() }

// NewApp builds a benchmark by name. paperScale selects the exact §4.1
// problem sizes; otherwise proportionally scaled-down defaults are used.
// The registry lives in the sweep subsystem, which also resolves apps by
// name when executing declarative sweeps.
func NewApp(name string, paperScale bool) (App, error) {
	app, err := sweep.NewApp(name, paperScale)
	if err != nil {
		return nil, fmt.Errorf("hyperion: %w", err)
	}
	return app, nil
}

// RunBenchmark executes one benchmark under one configuration.
func RunBenchmark(app App, cfg RunConfig) (Result, error) { return harness.Run(app, cfg) }

// BuildFigureByID regenerates one of the paper's Figures 1-5.
func BuildFigureByID(id int, paperScale bool) (Figure, error) {
	figs, err := buildFigures(fmt.Sprintf("fig%d", id), paperScale)
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}

// BuildAllFigures regenerates all five figures.
func BuildAllFigures(paperScale bool) ([]Figure, error) { return buildFigures("figures", paperScale) }

// buildFigures runs a figure preset on the sweep executor, one point
// per host CPU at a time, and assembles the results.
func buildFigures(preset string, paperScale bool) ([]Figure, error) {
	specs, err := sweep.Preset(preset)
	if err != nil {
		return nil, fmt.Errorf("hyperion: %w", err)
	}
	for i := range specs {
		specs[i].PaperScale = paperScale
	}
	points, err := sweep.ExpandAll(specs)
	if err != nil {
		return nil, fmt.Errorf("hyperion: %w", err)
	}
	out, err := (&sweep.Executor{}).RunPoints(points)
	if err != nil {
		return nil, fmt.Errorf("hyperion: %w", err)
	}
	return sweep.Figures(out.Points)
}

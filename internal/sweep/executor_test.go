package sweep

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/jacobi"
	"repro/internal/harness"
	"repro/internal/jmm"
	"repro/internal/threads"
)

// tinyApps substitutes scaled-down problem instances so executor tests
// cover the full grid structure without paper-sized runtimes. The
// barrier-synchronized benchmarks are bit-deterministic, which is what
// lets the tests demand exact equality with sequential execution.
func tinyApps(name string, paperScale bool) (apps.App, error) {
	switch name {
	case "jacobi":
		return jacobi.New(24, 2), nil
	case "asp":
		return asp.New(16, 7), nil
	}
	return nil, fmt.Errorf("tinyApps: unknown app %q", name)
}

// tinyGrid is an app x cluster x protocol x nodes cross product, the
// same shape as the paper grid.
func tinyGrid() Spec {
	return Spec{
		Name:      "tiny-grid",
		Apps:      []string{"jacobi", "asp"},
		Clusters:  []string{"myrinet", "sci"},
		Protocols: []string{"java_ic", "java_pf"},
		Nodes:     []int{1, 2, 3},
	}
}

// TestExecutorMatchesSequential is the core orchestration guarantee:
// running a grid concurrently through the executor yields exactly the
// Result values that one-at-a-time harness.Run calls produce.
func TestExecutorMatchesSequential(t *testing.T) {
	points, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	x := &Executor{Workers: 8, NewApp: tinyApps}
	out, err := x.RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if out.Executed != len(points) || out.CacheHits != 0 {
		t.Fatalf("executed %d, cached %d; want %d, 0", out.Executed, out.CacheHits, len(points))
	}
	for i, p := range points {
		if !reflect.DeepEqual(out.Points[i].Point, p) {
			t.Fatalf("result %d reordered: %v vs %v", i, out.Points[i].Point, p)
		}
		cfg, err := p.Config()
		if err != nil {
			t.Fatal(err)
		}
		app, _ := tinyApps(p.App, p.PaperScale)
		want, err := harness.Run(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Points[i].Result, want) {
			t.Errorf("%s: executor result differs from sequential run:\ngot  %#v\nwant %#v", p, out.Points[i].Result, want)
		}
	}
}

// TestExecutorCachedResume is the resumability guarantee: a second
// invocation of the same spec executes nothing and serves every point
// from disk, and extending the spec executes only the new points.
func TestExecutorCachedResume(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	spec := tinyGrid()
	first, err := (&Executor{Workers: 4, Cache: cache, NewApp: tinyApps}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	n := len(first.Points)
	if first.Executed != n || first.CacheHits != 0 {
		t.Fatalf("first pass: executed %d, cached %d; want %d, 0", first.Executed, first.CacheHits, n)
	}

	// Same spec, fresh executor: zero re-executions.
	second, err := (&Executor{Workers: 4, Cache: cache, NewApp: tinyApps}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.CacheHits != n {
		t.Fatalf("second pass: executed %d, cached %d; want 0, %d", second.Executed, second.CacheHits, n)
	}
	for i := range first.Points {
		if !reflect.DeepEqual(second.Points[i].Result, first.Points[i].Result) {
			t.Fatalf("point %d changed across cached rerun", i)
		}
		if !second.Points[i].Cached {
			t.Fatalf("point %d not marked cached", i)
		}
	}

	// A grown spec (one more node count) only executes the new points —
	// the "interrupted sweep resumes" property in its sharpest form.
	grown := spec
	grown.Nodes = []int{1, 2, 3, 4}
	third, err := (&Executor{Workers: 4, Cache: cache, NewApp: tinyApps}).Run(grown)
	if err != nil {
		t.Fatal(err)
	}
	added := len(third.Points) - n
	if added <= 0 {
		t.Fatal("grown spec added no points")
	}
	if third.Executed != added || third.CacheHits != n {
		t.Fatalf("grown pass: executed %d, cached %d; want %d, %d", third.Executed, third.CacheHits, added, n)
	}
}

// panicApp simulates a buggy kernel to prove per-point isolation.
type panicApp struct{}

func (panicApp) Name() string { return "jacobi" }
func (panicApp) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	panic("kernel bug")
}

func TestExecutorPanicIsolation(t *testing.T) {
	spec := tinyGrid()
	x := &Executor{
		Workers: 4,
		NewApp: func(name string, paperScale bool) (apps.App, error) {
			if name == "jacobi" {
				return panicApp{}, nil
			}
			return tinyApps(name, paperScale)
		},
	}
	out, err := x.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	half := len(out.Points) / 2
	if out.Failed != half {
		t.Fatalf("failed %d points, want the %d jacobi ones", out.Failed, half)
	}
	for _, pr := range out.Points {
		switch pr.Point.App {
		case "jacobi":
			if pr.Err == nil || !strings.Contains(pr.Err.Error(), "panicked") {
				t.Errorf("%s: err = %v, want panic", pr.Point, pr.Err)
			}
		default:
			if pr.Err != nil {
				t.Errorf("%s poisoned by sibling panic: %v", pr.Point, pr.Err)
			}
			if !pr.Result.Check.Valid {
				t.Errorf("%s invalid", pr.Point)
			}
		}
	}
	if err := out.Err(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("Outcome.Err = %v", err)
	}
}

func TestExecutorProgressReporting(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Apps: []string{"jacobi"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{1, 2, 3}}
	run := func() (calls int, dones []int, cached int) {
		x := &Executor{Workers: 2, Cache: cache, NewApp: tinyApps,
			OnPoint: func(i, done, total int, pr PointResult) {
				calls++
				dones = append(dones, done)
				if pr.Point.Nodes != spec.Nodes[i] {
					t.Errorf("OnPoint index %d carries the nodes=%d point", i, pr.Point.Nodes)
				}
				if total != 3 {
					t.Errorf("total = %d, want 3", total)
				}
				if pr.Cached {
					cached++
				}
			}}
		if _, err := x.Run(spec); err != nil {
			t.Fatal(err)
		}
		return calls, dones, cached
	}
	calls, dones, cached := run()
	if calls != 3 || cached != 0 {
		t.Fatalf("first run: %d calls, %d cached", calls, cached)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence %v", dones)
		}
	}
	// Cached points are reported too: progress covers the whole grid.
	calls, _, cached = run()
	if calls != 3 || cached != 3 {
		t.Fatalf("cached run: %d calls, %d cached", calls, cached)
	}
}

func TestExecutorRepeatsMedian(t *testing.T) {
	spec := Spec{Apps: []string{"jacobi"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{2}, Repeats: 3}
	out, err := (&Executor{Workers: 3, NewApp: tinyApps}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	pr := out.Points[0]
	if pr.Point.Repeats != 3 || !pr.Result.Check.Valid || pr.Result.Seconds() <= 0 {
		t.Fatalf("repeat point: %+v", pr)
	}
	// The median of a deterministic app equals its single run.
	single, err := harness.Run(jacobi.New(24, 2), mustConfig(t, pr.Point))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Result, single) {
		t.Errorf("median-of-3 deterministic run differs from single run")
	}
}

// TestExecutorCustomAppThroughRun: a custom NewApp factory must also
// resolve the spec's app names, so embedders can sweep workloads the
// built-in registry does not know.
func TestExecutorCustomAppThroughRun(t *testing.T) {
	x := &Executor{Workers: 2, NewApp: func(name string, paperScale bool) (apps.App, error) {
		if name == "tiny-jacobi" {
			return jacobi.New(16, 2), nil
		}
		return nil, fmt.Errorf("unknown custom app %q", name)
	}}
	out, err := x.Run(Spec{Apps: []string{"tiny-jacobi"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 1 || !out.Points[0].Result.Check.Valid {
		t.Fatalf("custom-app sweep: %+v", out.Points)
	}
	// A name the custom factory rejects still fails at expansion.
	if _, err := x.Run(Spec{Apps: []string{"warp"}, Nodes: []int{1}}); err == nil {
		t.Fatal("unknown custom app accepted")
	}
}

func TestExecutorUnknownAppFailsPointNotSweep(t *testing.T) {
	points := []Point{
		{App: "jacobi", Cluster: "sci", Protocol: "java_pf", Nodes: 1, ThreadsPerNode: 1, Repeats: 1},
		{App: "warp", Cluster: "sci", Protocol: "java_pf", Nodes: 1, ThreadsPerNode: 1, Repeats: 1},
	}
	out, err := (&Executor{Workers: 2, NewApp: tinyApps}).RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	if out.Points[0].Err != nil {
		t.Errorf("healthy point failed: %v", out.Points[0].Err)
	}
	if out.Points[1].Err == nil {
		t.Error("unknown app accepted")
	}
	if out.Failed != 1 {
		t.Errorf("Failed = %d", out.Failed)
	}
}

// gateApp blocks in its kernel until released, for cancellation tests.
type gateApp struct{ release <-chan struct{} }

func (gateApp) Name() string { return "gate" }
func (a gateApp) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	<-a.release
	return apps.Check{Summary: "gate done", Valid: true}
}

// TestExecutorCancelDrains: closing Cancel lets running points finish
// (and land in the cache) while unstarted points settle as canceled —
// the server's graceful-shutdown contract.
func TestExecutorCancelDrains(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	cancel := make(chan struct{})
	started := make(chan Point, 8)
	x := &Executor{
		Workers: 2,
		Cache:   cache,
		NewApp: func(name string, paperScale bool) (apps.App, error) {
			return gateApp{release: release}, nil
		},
		OnStart: func(_ int, p Point) { started <- p },
		Cancel:  cancel,
	}
	spec := Spec{Apps: []string{"gate"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{1, 2, 3, 4}}
	outc := make(chan *Outcome, 1)
	go func() {
		out, err := x.Run(spec)
		if err != nil {
			t.Error(err)
		}
		outc <- out
	}()

	// Both workers pick up a point; cancel while they are inside the
	// kernel, then release them.
	<-started
	<-started
	close(cancel)
	close(release)
	out := <-outc

	if out.Executed != 2 || out.Canceled != 2 || out.Failed != 0 {
		t.Fatalf("executed %d, canceled %d, failed %d; want 2, 2, 0", out.Executed, out.Canceled, out.Failed)
	}
	ran := 0
	for _, pr := range out.Points {
		switch {
		case pr.Err == nil:
			ran++
			if !pr.Result.Check.Valid || pr.Elapsed <= 0 {
				t.Errorf("%s: drained point invalid or unmeasured: %+v", pr.Point, pr)
			}
		case !errors.Is(pr.Err, harness.ErrCanceled):
			t.Errorf("%s: err = %v", pr.Point, pr.Err)
		}
	}
	if ran != 2 {
		t.Fatalf("%d points ran, want 2", ran)
	}
	if err := out.Err(); err == nil || !errors.Is(err, harness.ErrCanceled) {
		t.Fatalf("Outcome.Err = %v, want canceled", err)
	}
	// What drained is cached: resubmitting executes only the canceled
	// remainder.
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries after drain, want 2", cache.Len())
	}
}

// TestExecutorCachePutFailureCountsOnce: a point whose simulation
// succeeds but whose cache write fails is Failed, not Executed — the
// tallies must stay disjoint.
func TestExecutorCachePutFailureCountsOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	points := []Point{{App: "jacobi", Cluster: "sci", Protocol: "java_pf", Nodes: 1, ThreadsPerNode: 1, Repeats: 1}}
	// Close the store under the cache so the post-run Put fails (Get on
	// a closed store is just a miss, so the point still executes).
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := (&Executor{Workers: 1, Cache: cache, NewApp: tinyApps}).RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 0 || out.Failed != 1 || out.CacheHits != 0 {
		t.Fatalf("executed %d, failed %d, cached %d; want 0, 1, 0", out.Executed, out.Failed, out.CacheHits)
	}
	if out.Points[0].Err == nil || !strings.Contains(out.Points[0].Err.Error(), "cache put") {
		t.Fatalf("point err = %v, want cache put failure", out.Points[0].Err)
	}
}

func TestExecutorOnStartAndElapsed(t *testing.T) {
	var mu sync.Mutex
	var startedPts []Point
	spec := Spec{Apps: []string{"jacobi"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{1, 2}, Repeats: 2}
	x := &Executor{Workers: 2, NewApp: tinyApps, OnStart: func(i int, p Point) {
		mu.Lock()
		startedPts = append(startedPts, p)
		mu.Unlock()
		if p.Nodes != spec.Nodes[i] {
			t.Errorf("OnStart index %d carries the nodes=%d point", i, p.Nodes)
		}
	}}
	out, err := x.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	// OnStart fires once per point, not once per repeat.
	if len(startedPts) != 2 {
		t.Fatalf("OnStart fired %d times for 2 points: %v", len(startedPts), startedPts)
	}
	for _, pr := range out.Points {
		if pr.Elapsed <= 0 {
			t.Errorf("%s: elapsed not accumulated", pr.Point)
		}
	}
}

func mustConfig(t *testing.T, p Point) harness.RunConfig {
	t.Helper()
	cfg, err := p.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

package sweep

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/pagestats"
	"repro/internal/trace"
)

// Executor schedules expanded grid points onto the harness worker pool.
// Points run concurrently across the host's CPUs, each simulation in
// full isolation (its own cluster, engine and virtual clocks); a panic
// in one point is confined to that point. Results come back in point
// order regardless of completion order. With a Cache attached, already
// computed points are served from disk and only new or changed points
// execute — which is also what makes an interrupted sweep resumable.
type Executor struct {
	// Workers bounds the worker pool; <= 0 selects runtime.NumCPU().
	Workers int
	// Cache, when non-nil, serves and stores point results.
	Cache *Cache
	// NewApp overrides benchmark construction, for tests and embedders
	// sweeping custom workloads. Note the cache keys points by app
	// *name*: an override must keep the name → workload mapping stable
	// or use a fresh cache directory.
	NewApp func(name string, paperScale bool) (apps.App, error)
	// OnPoint, when non-nil, is invoked serially as each point
	// completes (from cache or from execution). i is the point's index
	// in the submitted list, done counts completions so far.
	OnPoint func(i, done, total int, pr PointResult)
	// OnStart, when non-nil, is invoked serially as a point's first
	// repeat begins executing on a worker, with the point's index in the
	// submitted list. Cache hits and points that fail before scheduling
	// never fire it.
	OnStart func(i int, p Point)
	// Cancel, when non-nil and closed, stops the executor from starting
	// new points: running points drain to completion (and still land in
	// the cache), unstarted points settle with an error satisfying
	// errors.Is(err, harness.ErrCanceled) and count in Outcome.Canceled.
	// Combined with a Cache this is the graceful-shutdown story: what
	// drained is kept, what was canceled re-executes on resubmission.
	Cancel <-chan struct{}
	// TraceCapacity, when > 0, attaches a protocol-event ring of that
	// many events to the *first* repeat of every executed point and
	// returns it on PointResult.Trace. Tracing observes the run without
	// perturbing virtual time, so the traced repeat measures the same as
	// the others. Cache hits carry no trace (nothing re-executes).
	TraceCapacity int
	// PageStats, when true, attaches a fresh per-page sharing profiler
	// to *every* executed repeat; the median-kept repeat's classified
	// report rides out on Result.PageStats. Each repeat profiles its own
	// run (repeats execute concurrently), and like tracing the profiler
	// observes without perturbing virtual time. Cache hits keep whatever
	// the cached result recorded.
	PageStats bool
	// Logger, when non-nil, receives per-point diagnostics: cache hits
	// and completions at Debug, failures at Error. The per-point call
	// sites guard attribute construction behind Logger.Enabled, so a
	// logger leveled above Debug costs zero allocations on the hot path
	// (asserted by TestDisabledLoggerAllocatesNothing). Nil logs
	// nothing. The logger is also handed to the harness pool, which
	// reports isolated job panics on it.
	Logger *slog.Logger
}

// logResolved emits one point's resolution line. It is the executor's
// per-point logging hot path: every attribute is built only after the
// level check, so a disabled level costs one Enabled call and nothing
// else.
func (x *Executor) logResolved(i int, pr *PointResult) {
	if x.Logger == nil {
		return
	}
	level := slog.LevelDebug
	if pr.Err != nil {
		level = slog.LevelError
	}
	if !x.Logger.Enabled(context.Background(), level) {
		return
	}
	status := "executed"
	switch {
	case pr.Err != nil:
		status = "failed"
	case pr.Cached:
		status = "cached"
	}
	attrs := []any{
		"index", i,
		"point", pr.Point.String(),
		"status", status,
		"elapsed", pr.Elapsed,
	}
	if pr.Err != nil {
		attrs = append(attrs, "error", pr.Err.Error())
	}
	x.Logger.Log(context.Background(), level, "point resolved", attrs...)
}

// PointResult pairs a grid point with its outcome.
type PointResult struct {
	Point  Point
	Result harness.Result
	// Cached reports that the result was served from the cache.
	Cached bool
	// Err is non-nil if the point could not be executed (bad
	// configuration, failed validation on a repeated run, or an
	// isolated panic).
	Err error
	// Elapsed is the host wall-clock time spent executing the point
	// (summed over repeats). Zero for cache hits.
	Elapsed time.Duration
	// Trace is the protocol-event ring recorded for the point's first
	// repeat when the executor's TraceCapacity is set. Nil for cache
	// hits and untraced runs; excluded from JSON and the result cache.
	Trace *trace.Buffer `json:"-"`
}

// Outcome is the result of one sweep: per-point results in expansion
// order plus the execution/cache accounting the resumability guarantee
// is measured by.
type Outcome struct {
	Points []PointResult
	// Executed counts points that actually ran simulations.
	Executed int
	// CacheHits counts points served from the cache.
	CacheHits int
	// Failed counts points with a non-nil Err other than cancellation.
	Failed int
	// Canceled counts points that never started because the executor's
	// Cancel channel closed.
	Canceled int
}

// Err summarizes point failures, or returns nil if every point
// succeeded. Cancellation is reported only when nothing genuinely
// failed.
func (o *Outcome) Err() error {
	if o.Failed == 0 {
		if o.Canceled > 0 {
			return fmt.Errorf("sweep: canceled with %d of %d points unrun: %w",
				o.Canceled, len(o.Points), harness.ErrCanceled)
		}
		return nil
	}
	for _, pr := range o.Points {
		if pr.Err != nil && !errors.Is(pr.Err, harness.ErrCanceled) {
			return fmt.Errorf("sweep: %d of %d points failed; first: %s: %w",
				o.Failed, len(o.Points), pr.Point, pr.Err)
		}
	}
	return nil
}

// Run expands the spec and executes it. A custom NewApp factory also
// resolves the spec's app names, so embedders can sweep workloads the
// built-in registry does not know.
func (x *Executor) Run(spec Spec) (*Outcome, error) {
	points, err := spec.expand(func(name string) error {
		newApp := x.NewApp
		if newApp == nil {
			newApp = NewApp
		}
		_, err := newApp(name, spec.PaperScale)
		return err
	})
	if err != nil {
		return nil, err
	}
	return x.RunPoints(points)
}

// RunPoints executes an explicit point list, returning results in input
// order.
func (x *Executor) RunPoints(points []Point) (*Outcome, error) {
	out := &Outcome{Points: make([]PointResult, len(points))}
	newApp := x.NewApp
	if newApp == nil {
		newApp = NewApp
	}

	// Resolve every point up front: cache hits are answered without
	// occupying a worker, configuration errors fail fast, and only the
	// remainder is scheduled.
	type job struct {
		point int // index into points
		rep   int
	}
	var jobs []harness.Job
	var refs []job
	reps := make([][]harness.JobResult, len(points)) // per-point repeat results
	for i, p := range points {
		pr := PointResult{Point: p}
		if x.Cache != nil {
			if res, ok := x.Cache.Get(p); ok {
				pr.Result, pr.Cached = res, true
				out.Points[i] = pr
				out.CacheHits++
				continue
			}
		}
		cfg, err := p.Config()
		if err != nil {
			pr.Err = err
			out.Points[i] = pr
			continue
		}
		name, scale := p.App, p.PaperScale
		if _, err := newApp(name, scale); err != nil {
			pr.Err = err
			out.Points[i] = pr
			continue
		}
		mk := func() apps.App {
			app, err := newApp(name, scale)
			if err != nil {
				panic(err) // pre-validated above; isolated by the pool
			}
			return app
		}
		n := p.Repeats
		if n < 1 {
			n = 1
		}
		reps[i] = make([]harness.JobResult, 0, n)
		if x.TraceCapacity > 0 {
			pr.Trace = trace.NewBuffer(x.TraceCapacity)
		}
		out.Points[i] = pr
		for r := 0; r < n; r++ {
			jcfg := cfg
			if r == 0 {
				jcfg.Tracer = pr.Trace
			}
			if x.PageStats {
				jcfg.PageProfiler = pagestats.New()
			}
			jobs = append(jobs, harness.Job{MakeApp: mk, Config: jcfg})
			refs = append(refs, job{point: i, rep: r})
		}
	}

	// Every point that will not execute (cache hit or early error) is
	// already final; report them before the pool starts.
	done := 0
	report := func(i int) {
		done++
		x.logResolved(i, &out.Points[i])
		if x.OnPoint != nil {
			x.OnPoint(i, done, len(points), out.Points[i])
		}
	}
	for i := range points {
		if out.Points[i].Cached || out.Points[i].Err != nil {
			report(i)
		}
	}

	// Run the remainder. finalize fires inside the pool's serialized
	// onDone hook as the last repeat of a point lands, so results (and
	// cache entries) stream out as the sweep progresses rather than
	// appearing all at once at the end — an interrupted sweep keeps
	// everything that finished.
	finalize := func(i int) {
		pr := &out.Points[i]
		pr.Result, pr.Err = mergeRepeats(reps[i])
		if pr.Err == nil && x.Cache != nil {
			if err := x.Cache.Put(points[i], pr.Result); err != nil {
				pr.Err = err
			}
		}
		// Counted only once the result is also durably stored: a failed
		// cache write files the point under Failed, not both tallies.
		if pr.Err == nil {
			out.Executed++
		}
		report(i)
	}
	started := make(map[int]bool, len(points))
	harness.RunJobsHooked(jobs, x.Workers, harness.PoolHooks{
		Cancel: x.Cancel,
		Logger: x.Logger,
		OnStart: func(j int) {
			i := refs[j].point
			if !started[i] {
				started[i] = true
				if x.OnStart != nil {
					x.OnStart(i, points[i])
				}
			}
		},
		OnDone: func(_ int, j int, jr harness.JobResult) {
			i := refs[j].point
			reps[i] = append(reps[i], jr)
			out.Points[i].Elapsed += jr.Elapsed
			if len(reps[i]) == cap(reps[i]) {
				finalize(i)
			}
		},
	})

	for _, pr := range out.Points {
		switch {
		case errors.Is(pr.Err, harness.ErrCanceled):
			out.Canceled++
		case pr.Err != nil:
			out.Failed++
		}
	}
	return out, nil
}

// mergeRepeats reduces a point's repeat runs to its result: the sole run
// for a single measurement, or the median-by-time run of a repeated one.
// This is the repo's one median-of-repeats rule (Figure 4's TSP points
// go through it). Repeated measurements reject invalid runs; a single
// measurement keeps an invalid result (with its Check recorded) exactly
// like a direct harness.Run.
func mergeRepeats(reps []harness.JobResult) (harness.Result, error) {
	results := make([]harness.Result, 0, len(reps))
	for _, jr := range reps {
		if jr.Err != nil {
			return harness.Result{}, jr.Err
		}
		if len(reps) > 1 && !jr.Result.Check.Valid {
			return harness.Result{}, fmt.Errorf("failed validation: %s", jr.Result.Check.Summary)
		}
		results = append(results, jr.Result)
	}
	if len(results) == 1 {
		return results[0], nil
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Time < results[j].Time })
	return results[len(results)/2], nil
}

package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/barnes"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/pi"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/vtime"
)

// smallApps builds the short-running instances the sweep and HTTP
// workloads simulate: a point takes about a millisecond, so per-point
// set-up, scheduling and storage are a large share of it.
func smallApps(name string, _ bool) (apps.App, error) {
	switch name {
	case "pi":
		return pi.New(50_000), nil
	case "jacobi":
		return jacobi.New(32, 4), nil
	case "asp":
		return asp.New(32, 1), nil
	case "barnes":
		return barnes.New(64, 1, 1), nil
	}
	return nil, fmt.Errorf("benchmark: no small instance of %q", name)
}

var smallAppNames = []string{"pi", "jacobi", "asp", "barnes"}

// gridSpec is the sweep both sweep workloads and the HTTP workload
// submit: four programs x two platforms x four protocols x node counts
// {1,2,4,8} (8 exceeds the SCI cluster and is skipped there: 7 per
// program and protocol) x one check-cost override per entry of checks.
func gridSpec(name string, checks []float64) sweep.Spec {
	spec := sweep.Spec{
		Name:      name,
		Apps:      smallAppNames,
		Clusters:  []string{"myrinet", "sci"},
		Protocols: protocols,
		Nodes:     []int{1, 2, 4, 8},
	}
	for _, c := range checks {
		v := c
		spec.Costs = append(spec.Costs, sweep.Override{Label: fmt.Sprintf("check=%g", c), CheckCycles: &v})
	}
	return spec
}

const pointsPerOverride = 4 * 7 * 4 // programs x (platform, nodes) pairs x protocols

// checkValues returns n distinct in-line check costs. base keeps the
// sets of different uses apart; the seed moves every value by a
// fraction, so each seed names its own cache keys.
func checkValues(e *env, base float64, n int) []float64 {
	frac := float64(e.seed%9973) / 9973 / 4
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i) + frac
	}
	return out
}

// seedRecords fills a cache with n records of points no sweep of this
// benchmark asks for: SCI-cluster java_pf points over programs, node
// counts 1..16 and threads-per-node, with made-up results. They give
// lookups and /v1/results scans an index of realistic size to work
// against. The seed shifts the threads-per-node values, and with them
// every record's key.
func seedRecords(e *env, c *sweep.Cache, n int) error {
	tpnBase := 2 + int(e.seed%97)
	for i := 0; i < n; i++ {
		p := sweep.Point{
			App:            smallAppNames[i%len(smallAppNames)],
			Cluster:        "sci",
			Protocol:       "java_pf",
			Nodes:          1 + (i/len(smallAppNames))%16,
			ThreadsPerNode: tpnBase + i/(len(smallAppNames)*16),
			Repeats:        1,
		}
		r := harness.Result{
			App: p.App, Cluster: p.Cluster, Nodes: p.Nodes, Protocol: p.Protocol,
			Workers: p.Nodes * p.ThreadsPerNode,
			Time:    vtime.Time(i+1) * vtime.Time(vtime.Millisecond),
			Check:   apps.Check{Summary: "seeded", Valid: true},
		}
		if err := c.Put(p, r); err != nil {
			return err
		}
	}
	return nil
}

// seededMatches is how many of n seeded records match app=jacobi and
// nodes=7, the query the HTTP workload pages through. No sweep of the
// benchmark has a 7-node point, so the count holds while jobs append.
func seededMatches(n int) int {
	count := 0
	for i := 0; i < n; i++ {
		if smallAppNames[i%len(smallAppNames)] == "jacobi" && 1+(i/len(smallAppNames))%16 == 7 {
			count++
		}
	}
	return count
}

// checkOutcome applies the output checks of one executor pass: every
// point valid and error-free, and the executed/cached split as wanted.
func checkOutcome(e *env, what string, points []sweep.PointResult, executed, hits, wantExecuted, wantHits int) {
	good := 0
	for _, pr := range points {
		if pr.Err == nil && pr.Result.Check.Valid {
			good++
			continue
		}
		e.check(false, "%s: point %s: err=%v check=%q", what, pr.Point, pr.Err, pr.Result.Check.Summary)
	}
	e.passed(good)
	e.check(executed == wantExecuted && hits == wantHits,
		"%s: executed %d and served %d from cache, want %d and %d", what, executed, hits, wantExecuted, wantHits)
}

// sweepInstance serves both sweep workloads: cold re-opens an empty
// cache for every repetition, cached keeps one that already holds
// every point.
type sweepInstance struct {
	name    string
	cached  bool
	spec    sweep.Spec    // the pass: one Executor.Run
	n       int           // points in the pass
	singles []sweep.Point // points requested one at a time after the pass
	cache   *sweep.Cache  // cached only
	dir     string
}

const seededRecords = 10_000

func newSweepInstance(e *env, cached bool) (*sweepInstance, error) {
	overrides := e.pick(10, 1)
	s := &sweepInstance{name: "sweep_cold", cached: cached, n: overrides * pointsPerOverride}
	if cached {
		s.name = "sweep_cached"
	}
	s.spec = gridSpec("pass", checkValues(e, 2, overrides))
	var err error
	if s.singles, err = gridSpec("singles", checkValues(e, 40, 1)).ExpandFor(smallApps); err != nil {
		return nil, err
	}
	if e.quick {
		s.singles = s.singles[:16]
	}
	return s, nil
}

func (s *sweepInstance) executor(e *env, c *sweep.Cache) *sweep.Executor {
	return &sweep.Executor{Workers: e.nproc, Cache: c, NewApp: smallApps}
}

func setupSweepCold(e *env) (instance, error) {
	s, err := newSweepInstance(e, false)
	if err != nil {
		return nil, err
	}
	// Warm-up: one override's worth of the pass against a throw-away
	// cache.
	dir, err := e.mkdir("warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := sweep.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	warm := s.spec
	warm.Costs = warm.Costs[:1]
	if _, err := s.executor(e, c).Run(warm); err != nil {
		return nil, err
	}
	return s, nil
}

func setupSweepCached(e *env) (instance, error) {
	s, err := newSweepInstance(e, true)
	if err != nil {
		return nil, err
	}
	if s.dir, err = e.mkdir("cached-"); err != nil {
		return nil, err
	}
	c, err := sweep.OpenCache(s.dir)
	if err != nil {
		return nil, err
	}
	if err := seedRecords(e, c, e.pick(seededRecords, 500)); err != nil {
		return nil, err
	}
	// Fill: simulate the pass's points and the singles once.
	x := s.executor(e, c)
	if _, err := x.Run(s.spec); err != nil {
		return nil, err
	}
	if _, err := x.RunPoints(s.singles); err != nil {
		return nil, err
	}
	// Re-open, as a later process would find the cache: the index is
	// rebuilt by replaying the segments.
	if err := c.Close(); err != nil {
		return nil, err
	}
	if s.cache, err = sweep.OpenCache(s.dir); err != nil {
		return nil, err
	}
	// Warm-up: one cached pass.
	if _, err := s.executor(e, s.cache).Run(s.spec); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweepInstance) close() {
	if s.cache != nil {
		s.cache.Close()
		os.RemoveAll(s.dir)
	}
}

// open returns the cache a repetition runs against and how to dispose
// of it: the kept one for cached, a fresh empty one for cold.
func (s *sweepInstance) open(e *env) (*sweep.Cache, func(), error) {
	if s.cached {
		return s.cache, func() {}, nil
	}
	dir, err := e.mkdir("cold-")
	if err != nil {
		return nil, nil, err
	}
	c, err := sweep.OpenCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return c, func() { c.Close(); os.RemoveAll(dir) }, nil
}

func (s *sweepInstance) want() (executed, hits int) {
	if s.cached {
		return 0, s.n
	}
	return s.n, 0
}

func (s *sweepInstance) measure(e *env, deadline time.Time) region {
	var reg region
	name := s.name
	repeatUntil(deadline, e.pick(3, 2), func() {
		c, dispose, err := s.open(e)
		if !e.check(err == nil, "%s: opening cache: %v", name, err) {
			return
		}
		defer dispose()
		x := s.executor(e, c)

		t0 := time.Now()
		out, err := x.Run(s.spec)
		wall := time.Since(t0)
		if !e.check(err == nil, "%s: Executor.Run: %v", name, err) {
			return
		}
		wantExec, wantHits := s.want()
		checkOutcome(e, name, out.Points, out.Executed, out.CacheHits, wantExec, wantHits)
		reg.work = append(reg.work, float64(s.n)/wall.Seconds())
		reg.jobMS = append(reg.jobMS, ms(wall))

		// One point at a time: what a caller asking for a single
		// result pays, pool start-up and all.
		for _, p := range s.singles {
			t0 := time.Now()
			one, err := x.RunPoints([]sweep.Point{p})
			reg.opMS = append(reg.opMS, ms(time.Since(t0)))
			if e.check(err == nil, "%s: RunPoints: %v", name, err) {
				exec, hit := 1, 0
				if s.cached {
					exec, hit = 0, 1
				}
				checkOutcome(e, name+" single", one.Points, one.Executed, one.CacheHits, exec, hit)
			}
		}
		reg.reqs += s.n + len(s.singles)
	})
	return reg
}

func (s *sweepInstance) traced(e *env) tracedPass {
	name := s.name
	wantExec, wantHits := s.want()
	var pass tracedPass
	pass.replica = true
	// Best of three on each side, alternating: one pass is a second or
	// less, and the two sides are held to within 5% of each other.
	pass.untracedS, pass.tracedS = 1e9, 1e9
	for try := 0; try < e.pick(3, 1); try++ {
		c, dispose, err := s.open(e)
		if !e.check(err == nil, "%s: opening cache: %v", name, err) {
			return pass
		}
		t0 := time.Now()
		out, err := s.executor(e, c).Run(s.spec)
		pass.untracedS = min(pass.untracedS, time.Since(t0).Seconds())
		dispose()
		if e.check(err == nil, "%s: Executor.Run: %v", name, err) {
			checkOutcome(e, name, out.Points, out.Executed, out.CacheHits, wantExec, wantHits)
		}

		if c, dispose, err = s.open(e); !e.check(err == nil, "%s: opening cache: %v", name, err) {
			return pass
		}
		tr := e.tr
		if try > 0 {
			tr = nil // spans of one replica pass are enough
		}
		t0 = time.Now()
		executed, hits, results, err := replicaSweep(tr, s.spec, c, smallApps, e.nproc)
		pass.tracedS = min(pass.tracedS, time.Since(t0).Seconds())
		dispose()
		if e.check(err == nil, "%s: replica: %v", name, err) {
			checkOutcome(e, name+" replica", results, executed, hits, wantExec, wantHits)
		}
	}
	return pass
}

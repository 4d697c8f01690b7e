package main

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// env is what one run of one workload works with: its inputs (seed,
// length, size class), its scratch directory, the span recorder of a
// traced pass, and the tally of output checks.
type env struct {
	spec     *benchSpec
	tmp      string // scratch directory inside the checkout, removed at exit
	seed     int64
	seconds  float64
	quick    bool
	nproc    int
	tr       *tracer
	expected *expectedFile

	mu        sync.Mutex
	attempted int      // guarded by mu
	failed    int      // guarded by mu
	failures  []string // first few failed checks, for the report (guarded by mu)
}

// check counts one attempted operation and, when ok is false, one
// failed one. Every output check of every workload goes through here,
// so attempted/failed in the result line are the share of operations
// whose outputs were wrong.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if !ok {
		e.failed++
		if len(e.failures) < 10 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// passed counts n operations whose checks held, without the cost of
// building a failure message nobody will read: the sweeps check a
// thousand points a pass inside the timed region.
func (e *env) passed(n int) {
	e.mu.Lock()
	e.attempted += n
	e.mu.Unlock()
}

// rng derives an independent generator for one named use from the
// run's seed: the same seed gives the same inputs everywhere.
func (e *env) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(h.Sum64()>>1)))
}

// pick returns full outside quick mode and small inside it.
func (e *env) pick(full, small int) int {
	if e.quick {
		return small
	}
	return full
}

// mkdir creates a fresh scratch directory under the run's own.
func (e *env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// region is what a workload's timed region hands back: throughput
// samples (one per repetition) and the latency of every request it
// issued, at the two granularities the end-to-end metrics name.
type region struct {
	work  []float64 // work units per host second, one sample per repetition
	jobMS []float64 // latency of every batch-level request
	opMS  []float64 // latency of every fine-grained request
	reqs  int       // requests served: the divisor of the per-request costs
}

// tracedPass is what a workload's traced pass hands back.
type tracedPass struct {
	untracedS float64 // wall of the pass's work through the product's own calls
	tracedS   float64 // wall of the same work with spans recorded
	// replica says the traced side re-implements the product call's
	// orchestration step by step; it is then held to within 5% of the
	// product call, or its shares describe a different program.
	replica bool
}

// instance is one set-up of a workload.
type instance interface {
	// measure runs the timed region: repetitions until the deadline, or
	// a mix whose size was fixed from the run's length.
	measure(e *env, deadline time.Time) region
	// traced runs the shorter traced pass, recording spans on e.tr.
	traced(e *env) tracedPass
	close()
}

type workload struct {
	name string
	// procs is the GOMAXPROCS the workload pins, given the host's CPUs.
	procs func(nproc int) int
	setup func(e *env) (instance, error)
}

func allWorkloads() []workload {
	one := func(int) int { return 1 }
	all := func(n int) int { return n }
	return []workload{
		{"access_bound", one, setupAccess},
		{"sync_bound", one, setupSync},
		{"sweep_cold", all, setupSweepCold},
		{"sweep_cached", all, setupSweepCached},
		{"http_serve", all, setupHTTP},
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the unit of the -out file and
// of -compare.
type runResult struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Quick      bool     `json:"quick,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Attempted  int      `json:"ops_attempted"`
	Failed     int      `json:"ops_failed"`
	Failures   []string `json:"failures,omitempty"`
	Noisy      []string `json:"noisy,omitempty"`
	// Unrepresentative says why a traced pass's shares describe its
	// replica and not the program, when they do.
	Unrepresentative string                 `json:"unrepresentative,omitempty"`
	Metrics          map[string]metricValue `json:"metrics"`
	// Series summarises the per-repetition samples behind an end-to-end
	// metric, where it has them; -compare reads spread from here.
	Series map[string]summary `json:"series,omitempty"`
	// Shares are the traced pass's per-layer self-time shares.
	Shares map[string]float64 `json:"shares,omitempty"`
	WallS  float64            `json:"wall_s"`
	spans  []span             // the traced pass's spans, for -trace-out
}

func (r *runResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// setUps is how many times a run sets its workload up; setup_s is the
// median, which one slow replay or page-cache miss cannot move.
const setUps = 3

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(e *env, w workload, trace bool) (*runResult, error) {
	started := time.Now()
	procs := w.procs(e.nproc)
	runtime.GOMAXPROCS(procs)
	res := &runResult{
		Workload: w.name, Seed: e.seed, Seconds: e.seconds, Trace: trace, Quick: e.quick,
		GOMAXPROCS: procs, Metrics: map[string]metricValue{},
	}
	var err error
	if trace {
		err = runTraced(e, w, res)
	} else {
		err = runEndToEnd(e, w, res)
	}
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	res.Attempted, res.Failed, res.Failures = e.attempted, e.failed, e.failures
	e.mu.Unlock()
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

func runEndToEnd(e *env, w workload, res *runResult) error {
	calibBefore := calibNS()

	var inst instance
	var setupS []float64
	n := e.pick(setUps, 1)
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // each set-up starts from the same heap, not the previous one's garbage
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	heap0, cpu0 := markHeap(), cpuSeconds()
	reg := inst.measure(e, time.Now().Add(time.Duration(e.seconds*float64(time.Second))))
	cpu1, heap1 := cpuSeconds(), markHeap()
	calibAfter := calibNS()

	if reg.reqs == 0 || len(reg.work) == 0 || len(reg.jobMS) == 0 || len(reg.opMS) == 0 {
		return fmt.Errorf("%s: timed region produced no samples", w.name)
	}
	bytes, objects := heap1.sub(heap0)
	reqs := float64(reg.reqs)
	values := map[string]float64{
		"setup_s":          median(setupS),
		"work_per_s":       median(reg.work),
		"job_ms_p50":       median(reg.jobMS),
		"op_ms_p50":        median(reg.opMS),
		"op_ms_p90":        quantile(reg.opMS, 0.9),
		"alloc_kb_per_req": bytes / 1024 / reqs,
		"allocs_per_req":   objects / reqs,
		"cpu_ms_per_req":   (cpu1 - cpu0) * 1e3 / reqs,
	}
	for _, m := range e.spec.EndToEnd {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which this program does not measure", m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}

	// Per-repetition series, for the noise guard and -compare. The
	// fine-grained latencies have none: a repetition holds too few of
	// them for its median to say anything about the host.
	res.Series = map[string]summary{
		"setup_s":    summarize(setupS),
		"work_per_s": summarize(reg.work),
	}
	if s := chunkMedians(reg.jobMS, min(len(reg.work), 8)); s != nil {
		res.Series["job_ms_p50"] = summarize(s)
	} else {
		res.Series["job_ms_p50"] = summarize(reg.jobMS)
	}

	// Noise guard: the same spin loop before and after the region, and
	// every series against its metric's bound.
	if e.quick {
		return nil // nothing is measured at quick sizes
	}
	if drift := math.Abs(calibAfter-calibBefore) / calibBefore; drift > 0.10 {
		res.Noisy = append(res.Noisy, fmt.Sprintf("host.calib_ns moved %.1f%% across the timed region", drift*100))
	}
	for _, name := range slices.Sorted(maps.Keys(res.Series)) {
		if name == "setup_s" {
			continue
		}
		if m, ok := e.spec.endToEnd(name); ok && res.Series[name].spread() > m.Bound {
			res.Noisy = append(res.Noisy, fmt.Sprintf("%s: interquartile range %.1f%% of median exceeds its %.0f%% bound",
				name, res.Series[name].spread()*100, m.Bound*100))
		}
	}
	return nil
}

func runTraced(e *env, w workload, res *runResult) error {
	calib := calibNS()
	values := map[string]float64{}

	// The layers pass times single layers under GOMAXPROCS=1 whatever
	// the workload pins, so its numbers compare across workloads. It
	// runs first, on a heap the traced pass has not yet filled with
	// spans.
	prev := runtime.GOMAXPROCS(1)
	layers, err := runLayers(e)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	for k, v := range layers {
		values[k] = v
	}
	runtime.GC()

	inst, err := w.setup(e)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	values["host.live_heap_after_setup_mb"] = liveHeapMB()
	e.tr = newTracer()
	pass := inst.traced(e)
	inst.close()
	spans := e.tr.snapshot()
	e.tr = nil
	res.spans = spans

	shares, conservation := selfShares(spans)
	res.Shares = shares
	var sum float64
	for _, name := range slices.Sorted(maps.Keys(shares)) {
		values["share."+name] = shares[name]
		sum += shares[name]
	}
	e.check(math.Abs(sum-100) <= 1 && math.Abs(conservation) <= 1,
		"%s: self-time shares sum to %.2f%% and miss the root spans' total by %.2f%%", w.name, sum, conservation)
	values["trace.spans"] = float64(len(spans))
	values["trace_overhead_pct"] = 0
	values["trace.replica_delta_pct"] = 0
	if pass.untracedS > 0 {
		delta := 100 * (pass.tracedS - pass.untracedS) / pass.untracedS
		values["trace_overhead_pct"] = delta
		if pass.replica {
			values["trace.replica_delta_pct"] = math.Abs(delta)
		}
		if pass.replica && math.Abs(delta) > 5 {
			res.Unrepresentative = fmt.Sprintf("replicated pipeline took %.3fs against the product call's %.3fs (%+.1f%%)",
				pass.tracedS, pass.untracedS, delta)
		}
	}
	values["host.calib_ns"] = calib
	values["host.peak_rss_mb"] = peakRSSMB()
	values["host.gomaxprocs"] = float64(res.GOMAXPROCS)

	for _, m := range e.spec.PerLayer {
		v, ok := values[m.Name]
		if !ok {
			if !strings.HasPrefix(m.Name, "share.") {
				return fmt.Errorf("BENCHMARK.json names per-layer metric %q, which this program does not measure", m.Name)
			}
			v = 0 // a layer this workload never calls into
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for _, name := range slices.Sorted(maps.Keys(values)) {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("per-layer metric %q is measured but not named in BENCHMARK.json", name)
		}
	}
	return nil
}

// repeatUntil runs rep until the deadline, at least minReps times, and
// stops early when the next repetition would overrun by more than half
// its own length.
func repeatUntil(deadline time.Time, minReps int, rep func()) {
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minReps && time.Now().Add(last/2).After(deadline) {
			return
		}
		t0 := time.Now()
		rep()
		last = time.Since(t0)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Package service exposes the Hyperion-Go simulator as a long-running
// experiment server: sweep submissions come in over HTTP as JSON
// (reusing sweep.Spec for validation and grid expansion), are admitted
// into a bounded job queue with configurable concurrency, and execute on
// sweep.Executor worker pools. Work is deduplicated two ways:
//
//   - Completed points are served straight from the content-addressed
//     sweep.Cache — resubmitting an already computed spec simulates
//     nothing.
//   - Identical points in flight at the same moment (two clients
//     submitting overlapping grids) coalesce onto one execution; the
//     followers wait for the leader's result instead of re-simulating.
//
// Progress streams per completed point over SSE, operational counters
// and a per-point latency histogram are exported in text form on
// /metrics, and shutdown is graceful: running points drain (and land in
// the cache), unstarted work is marked canceled, and the queue state is
// persisted so a restarted server picks the unfinished jobs back up.
// cmd/hyperion-server is the binary front end.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/obslog"
	"repro/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Cache, when non-nil, deduplicates completed points across jobs
	// and restarts, and backs the GET /v1/results query endpoint.
	Cache *sweep.Cache
	// Workers bounds each job's executor pool; <= 0 selects NumCPU.
	Workers int
	// MaxConcurrentJobs is the number of jobs executing at once
	// (default 2). Points within a job already run concurrently;
	// job-level concurrency is what lets a short sweep overtake a long
	// one.
	MaxConcurrentJobs int
	// QueueCap bounds the number of admitted-but-not-running jobs
	// (default 64). Submissions beyond it are rejected.
	QueueCap int
	// StatePath, when non-empty, is where Shutdown persists the ids and
	// specs of unfinished jobs, and where New restores them from.
	StatePath string
	// NewApp overrides benchmark construction for submitted specs, for
	// tests and embedders serving custom workloads. See
	// sweep.Executor.NewApp for the cache-identity caveat.
	NewApp func(name string, paperScale bool) (apps.App, error)
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// service handler. Off by default: the profiler exposes stack traces
	// and should only face operators.
	EnablePprof bool
	// TraceCapacity sizes the protocol-event ring attached to each
	// executed point of jobs whose spec sets "trace": true; <= 0 selects
	// the trace package's default capacity. Traces are downloadable per
	// point via GET /v1/sweeps/{id}/trace?point=N.
	TraceCapacity int
	// Logger receives the server's structured log stream: one access
	// line per HTTP request (via the obslog middleware wrapping
	// Handler), and the correlated job lifecycle — queue admission,
	// flight-table coalescing, per-point start/finish, cache hits,
	// panics, drain. Every line a request caused carries that request's
	// id, so one grep reconstructs a job end to end. Nil discards.
	Logger *slog.Logger
	// SlowPoint is the executed-point wall-clock duration above which
	// the per-point completion line escalates to a warning. Zero selects
	// 30s; negative disables the escalation.
	SlowPoint time.Duration
}

// defaultSlowPoint is the Config.SlowPoint zero-value threshold.
const defaultSlowPoint = 30 * time.Second

// Common submission errors, mapped to HTTP statuses by the handlers.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrStopped   = errors.New("service: server is shutting down")
)

// Server is the experiment service: job registry, bounded queue, runner
// pool and the in-flight coalescing table. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *metrics
	log     *slog.Logger
	startAt time.Time

	mu      sync.Mutex
	jobs    map[string]*Job // guarded by mu
	order   []string        // submission order (guarded by mu)
	seq     int             // guarded by mu
	stopped bool            // guarded by mu

	queue       chan *Job
	stop        chan struct{}
	wg          sync.WaitGroup
	drained     chan struct{} // closed once every runner has exited
	drainedOnce sync.Once

	flightMu sync.Mutex
	flights  map[string]*flight // point cache-key -> in-flight execution (guarded by flightMu)
}

// flight is one in-flight point execution that followers can wait on.
type flight struct {
	done chan struct{}
	once sync.Once
	pr   sweep.PointResult // valid after done is closed
}

func (f *flight) resolve(pr sweep.PointResult) {
	f.once.Do(func() {
		f.pr = pr
		close(f.done)
	})
}

// New builds a Server, restores any persisted queue state, and starts
// its job runners.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.SlowPoint == 0 {
		cfg.SlowPoint = defaultSlowPoint
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		log:     obslog.OrNop(cfg.Logger),
		startAt: time.Now(),
		jobs:    make(map[string]*Job),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
		flights: make(map[string]*flight),
	}
	restored, err := s.loadState()
	if err != nil {
		return nil, err
	}
	// The queue must at least hold everything restored, or New would
	// deadlock enqueueing it.
	capacity := cfg.QueueCap
	if len(restored) > capacity {
		capacity = len(restored)
	}
	s.queue = make(chan *Job, capacity)
	for _, j := range restored {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue <- j
		s.metrics.jobsSubmitted.Inc()
		j.log.Info("job restored from queue state",
			"points", len(j.points), "state_path", cfg.StatePath)
	}
	for i := 0; i < cfg.MaxConcurrentJobs; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Submit validates and expands a spec, admits it as a job, and returns
// it. The context's obslog request id (stamped by the AccessLog
// middleware for HTTP submissions) becomes the job's correlation id:
// every lifecycle line the job ever logs carries it. ErrQueueFull and
// ErrStopped report admission failures; any other error is a bad spec.
func (s *Server) Submit(ctx context.Context, spec sweep.Spec) (*Job, error) {
	points, err := spec.ExpandFor(s.cfg.NewApp)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, ErrStopped
	}
	j := s.newJobLocked(fmt.Sprintf("j-%06d", s.seq+1), obslog.RequestID(ctx), spec, points)
	// Registered only once actually enqueued, under the same lock, so a
	// full queue leaves no trace and ids stay dense.
	select {
	case s.queue <- j:
		s.seq++
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.metrics.jobsSubmitted.Inc()
		j.log.Info("job admitted",
			"points", len(j.points), "queue_depth", len(s.queue))
		return j, nil
	default:
		j.log.Warn("job rejected: queue full", "queue_cap", cap(s.queue))
		return nil, ErrQueueFull
	}
}

// newJobLocked builds a job whose logger is pre-scoped with the job id
// and, when known, the correlation id of the request that caused it.
func (s *Server) newJobLocked(id, requestID string, spec sweep.Spec, points []sweep.Point) *Job {
	log := s.log.With("job", id)
	if requestID != "" {
		log = log.With("request_id", requestID)
	}
	return newJob(id, requestID, spec, points, log, time.Now())
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// runner is one job slot: it executes queued jobs until Shutdown.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		// Prefer stopping over starting another job when both are ready.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job. Every point resolves through exactly one of
// three paths: led here (scheduled on this job's executor, which itself
// serves cache hits), or followed (an identical point is already in
// flight under another job — wait for that result), with the flight
// table deciding which.
func (s *Server) runJob(j *Job) {
	now := time.Now()
	j.setRunning(now)
	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	queuedFor := now.Sub(j.submitted)

	type follower struct {
		idx int
		f   *flight
	}
	// One key derivation per point per job: the flight table and the
	// executor callbacks below both read keys[i].
	keys := make([]string, len(j.points))
	var leadIdx []int // job index of each point this job leads
	var followers []follower
	leads := make(map[string]*flight)
	s.flightMu.Lock()
	for i, p := range j.points {
		key := p.Key()
		keys[i] = key
		if f, ok := s.flights[key]; ok {
			followers = append(followers, follower{i, f})
		} else if f, ours := leads[key]; ours {
			// Duplicate point within this very job: the first
			// occurrence leads, this one follows it.
			followers = append(followers, follower{i, f})
		} else {
			f := &flight{done: make(chan struct{})}
			s.flights[key] = f
			leads[key] = f
			leadIdx = append(leadIdx, i)
		}
	}
	s.flightMu.Unlock()

	// Followers are the flight table at work: identical points already
	// in flight (here or in another job) that this job will not
	// re-execute.
	j.log.Info("job started",
		"queued_for", queuedFor,
		"points", len(j.points),
		"leads", len(leadIdx),
		"coalesced", len(followers))

	// A lead flight must always resolve, or followers in other jobs
	// would hang forever: the executor reports every point through
	// OnPoint, and this net catches a service-side panic.
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("service: job %s runner panicked: %v", j.id, r)
			j.log.Error("job runner panicked", "panic", fmt.Sprint(r))
			for key, f := range leads {
				s.unregisterFlight(key, f)
				f.resolve(sweep.PointResult{Err: err})
			}
			panic(r)
		}
	}()

	if len(leadIdx) > 0 {
		leadPts := make([]sweep.Point, len(leadIdx))
		for k, i := range leadIdx {
			leadPts[k] = j.points[i]
		}
		// The executor serializes OnStart and OnPoint and hands both the
		// point's index k in leadPts, so started needs no lock. It keeps
		// the running-points gauge exact: only points that actually
		// started decrement it, however they end.
		started := make([]bool, len(leadIdx))
		traceCap := 0
		if j.spec.Trace {
			traceCap = s.cfg.TraceCapacity
			if traceCap <= 0 {
				traceCap = 1 << 16
			}
		}
		x := &sweep.Executor{
			Workers:       s.cfg.Workers,
			Cache:         s.cfg.Cache,
			NewApp:        s.cfg.NewApp,
			Cancel:        s.stop,
			TraceCapacity: traceCap,
			PageStats:     j.spec.PageStats,
			OnStart: func(k int, p sweep.Point) {
				started[k] = true
				s.metrics.pointsRunning.Add(1)
				if s.log.Enabled(context.Background(), slog.LevelDebug) {
					j.log.Debug("point started",
						"index", leadIdx[k], "point", p.String())
				}
			},
			OnPoint: func(k, _, _ int, pr sweep.PointResult) {
				i := leadIdx[k]
				key := keys[i]
				f := leads[key]
				s.unregisterFlight(key, f)
				f.resolve(pr)
				if started[k] {
					s.metrics.pointsRunning.Add(-1)
				}
				s.recordPoint(j, i, pr, false)
			},
		}
		// RunPoints never returns an error for pre-expanded points;
		// per-point problems are in the results, already recorded via
		// OnPoint.
		if _, err := x.RunPoints(leadPts); err != nil {
			panic(fmt.Sprintf("service: executor rejected pre-expanded points: %v", err))
		}
	}

	// Followers resolve as their leaders (in this or other jobs) finish.
	for _, fo := range followers {
		<-fo.f.done
		pr := fo.f.pr
		pr.Point = j.points[fo.idx] // identical key; keep our label
		s.recordPoint(j, fo.idx, pr, true)
	}
}

// logPoint emits one point's completion line, escalating failures to
// errors and slow executions to warnings.
func (s *Server) logPoint(j *Job, i int, pr sweep.PointResult, status string) {
	level := slog.LevelInfo
	msg := "point finished"
	switch {
	case status == "failed":
		level, msg = slog.LevelError, "point failed"
	case status == "canceled":
		level, msg = slog.LevelWarn, "point canceled"
	case status == "executed" && s.cfg.SlowPoint > 0 && pr.Elapsed > s.cfg.SlowPoint:
		level, msg = slog.LevelWarn, "slow point"
	}
	if !s.log.Enabled(context.Background(), level) {
		return
	}
	attrs := []any{
		"index", i,
		"point", pr.Point.String(),
		"protocol", pr.Point.Protocol,
		"status", status,
		"elapsed", pr.Elapsed,
	}
	if status == "executed" && s.cfg.SlowPoint > 0 && pr.Elapsed > s.cfg.SlowPoint {
		attrs = append(attrs, "slow_point_threshold", s.cfg.SlowPoint)
	}
	if pr.Err != nil {
		attrs = append(attrs, "error", pr.Err.Error())
	}
	j.log.Log(context.Background(), level, msg, attrs...)
}

// unregisterFlight removes a flight from the table iff it is still the
// registered one for key (a later job may have claimed the key anew).
func (s *Server) unregisterFlight(key string, f *flight) {
	s.flightMu.Lock()
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	s.flightMu.Unlock()
}

// recordPoint settles one point of a job and updates the metrics and
// log stream; when it is the job's last point it also settles the job.
func (s *Server) recordPoint(j *Job, i int, pr sweep.PointResult, coalesced bool) {
	status, finished := j.resolvePoint(i, pr, coalesced, time.Now())
	switch status {
	case "executed":
		s.metrics.pointsExecuted.Inc()
		s.metrics.observePoint(pr.Point.Protocol, pr.Elapsed.Seconds())
	case "cached":
		s.metrics.pointsCached.Inc()
	case "coalesced":
		s.metrics.pointsCoalesced.Inc()
	case "failed":
		s.metrics.pointsFailed.Inc()
	case "canceled":
		s.metrics.pointsCanceled.Inc()
	}
	s.logPoint(j, i, pr, status)
	// A full trace ring silently keeps only the newest window; surface
	// the loss where operators look (metrics + the job's log stream)
	// instead of only inside the exported file.
	if ps := pr.Result.PageStats; ps != nil && status == "executed" {
		s.metrics.pagestatsPages.Add(int64(ps.PagesTracked))
		s.metrics.pagestatsBytes.Add(ps.ProfilerBytes)
	}
	if pr.Trace != nil {
		if dropped := pr.Trace.Dropped(); dropped > 0 {
			s.metrics.traceDropped.Add(dropped)
			j.log.Warn("trace ring dropped events",
				"index", i, "point", pr.Point.String(), "dropped", dropped)
		}
	}
	if finished {
		v := j.view(false)
		elapsed := time.Duration(0)
		if v.StartedAt != nil && v.FinishedAt != nil {
			elapsed = v.FinishedAt.Sub(*v.StartedAt)
		}
		switch j.currentState() {
		case StateDone:
			s.metrics.jobsDone.Inc()
		case StateFailed:
			s.metrics.jobsFailed.Inc()
		case StateCanceled:
			s.metrics.jobsCanceled.Inc()
		}
		j.log.Info("job finished",
			"state", string(v.State),
			"elapsed", elapsed,
			"executed", v.Counts.Executed,
			"cached", v.Counts.Cached,
			"coalesced", v.Counts.Coalesced,
			"failed", v.Counts.Failed,
			"canceled", v.Counts.Canceled)
	}
}

// Shutdown stops the server gracefully: no new submissions, no new
// points; running points drain to completion (and into the cache), then
// the ids and specs of every unfinished job are persisted to StatePath.
// The context bounds the drain; on expiry Shutdown persists what it can
// and returns the context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if !already {
		s.log.Info("server draining",
			"queue_depth", len(s.queue), "uptime", time.Since(s.startAt))
		close(s.stop)
	}

	go func() {
		s.wg.Wait()
		// Also wakes every attached SSE stream: after this, no job can
		// emit another event.
		s.drainedOnce.Do(func() { close(s.drained) })
	}()
	var err error
	select {
	case <-s.drained:
		if !already {
			s.log.Info("server drained")
		}
	case <-ctx.Done():
		err = ctx.Err()
		s.log.Warn("drain timed out; persisting what settled", "error", err.Error())
	}
	if serr := s.saveState(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// --- queue-state persistence ---------------------------------------------

// stateFile is the on-disk form of the unfinished-jobs queue.
type stateFile struct {
	Version int        `json:"version"`
	NextSeq int        `json:"next_seq"`
	Jobs    []stateJob `json:"jobs"`
}

type stateJob struct {
	ID string `json:"id"`
	// RequestID keeps the job's correlation id across a restart, so a
	// grep on the original submission's id still finds the restored
	// job's lifecycle.
	RequestID string     `json:"request_id,omitempty"`
	Spec      sweep.Spec `json:"spec"`
}

// saveState writes the unfinished jobs (queued, or interrupted by this
// shutdown) to StatePath. Finished jobs are dropped: their results live
// in the cache.
func (s *Server) saveState() error {
	if s.cfg.StatePath == "" {
		return nil
	}
	s.mu.Lock()
	st := stateFile{Version: 1, NextSeq: s.seq}
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.currentState() {
		case StateQueued, StateRunning, StateCanceled:
			st.Jobs = append(st.Jobs, stateJob{ID: j.id, RequestID: j.reqID, Spec: j.spec})
		}
	}
	s.mu.Unlock()

	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding state: %w", err)
	}
	dir := filepath.Dir(s.cfg.StatePath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: saving state: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(s.cfg.StatePath)+".tmp*")
	if err != nil {
		return fmt.Errorf("service: saving state: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: saving state: write %v, close %v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.cfg.StatePath); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: saving state: %w", err)
	}
	s.log.Info("queue state persisted",
		"path", s.cfg.StatePath, "jobs", len(st.Jobs))
	return nil
}

// loadState restores persisted jobs. A spec that no longer validates
// (registry drift) fails the load rather than silently dropping work.
//
//hyperion:allow(lockguard) called only from New, before the Server is returned or its runners started
func (s *Server) loadState() ([]*Job, error) {
	if s.cfg.StatePath == "" {
		return nil, nil
	}
	data, err := os.ReadFile(s.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: loading state: %w", err)
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("service: loading state: %w", err)
	}
	if st.Version != 1 {
		return nil, fmt.Errorf("service: state version %d not supported", st.Version)
	}
	s.seq = st.NextSeq
	var jobs []*Job
	for _, sj := range st.Jobs {
		points, err := sj.Spec.ExpandFor(s.cfg.NewApp)
		if err != nil {
			return nil, fmt.Errorf("service: restoring job %s: %w", sj.ID, err)
		}
		jobs = append(jobs, s.newJobLocked(sj.ID, sj.RequestID, sj.Spec, points))
	}
	return jobs, nil
}

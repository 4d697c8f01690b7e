package harness

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps"
)

// This file is the harness's concurrent execution primitive. Every
// simulated System is fully independent — its cluster, engine, counters
// and virtual clocks are all per-run state — so independent runs can
// execute on as many host CPUs as are available. The sweep executor
// (internal/sweep) is the pool's one caller: every grid in the repo is
// scheduled through it.

// Job is one benchmark run to execute: an app factory (invoked inside the
// worker, so instances stay per-run) and its configuration.
type Job struct {
	MakeApp func() apps.App
	Config  RunConfig
}

// JobResult is the outcome of one Job.
type JobResult struct {
	Result Result
	Err    error
	// Elapsed is the host wall-clock time the job spent executing —
	// the pool's latency instrumentation. Zero for jobs that never ran
	// (see PoolHooks.Cancel).
	Elapsed time.Duration
}

// ErrCanceled marks a job that was still queued when its pool was
// canceled: the pool drained its running jobs and never started this one.
var ErrCanceled = errors.New("harness: job canceled before it started")

// PoolHooks instruments a RunJobsHooked pool. All callbacks are optional and
// are invoked serially (never concurrently with each other), so they may
// touch shared state without locking.
type PoolHooks struct {
	// OnStart fires as a worker picks up job i.
	OnStart func(i int)
	// OnDone fires as each job completes (or is canceled), with the
	// number of settled jobs so far — the progress hook. It is called
	// exactly len(jobs) times.
	OnDone func(done int, i int, jr JobResult)
	// Cancel, when non-nil and closed, stops the pool from starting
	// queued jobs. Jobs already running drain to completion; jobs never
	// started settle with ErrCanceled. This is the graceful-shutdown
	// primitive: close Cancel, wait for RunJobsHooked to return, and every
	// result is either fully computed or cleanly marked canceled.
	Cancel <-chan struct{}
	// Logger, when non-nil, reports genuinely failed jobs — including
	// isolated panics, which the pool otherwise converts into errors
	// silently — at Error level. Cancellations are not failures and are
	// not logged. Attribute construction is guarded by Logger.Enabled,
	// so a disabled logger adds no allocations to job settlement.
	Logger *slog.Logger
}

// RunJobsHooked executes jobs concurrently on a worker pool and returns
// their outcomes in input order (results[i] corresponds to jobs[i],
// whatever order the workers finished in). workers <= 0 selects
// runtime.NumCPU(). A panic inside one job (a bug in an app kernel or
// the simulator) is isolated to that job and reported as its error
// instead of tearing down the whole sweep. hooks adds start/done
// callbacks and cooperative cancellation.
func RunJobsHooked(jobs []Job, workers int, hooks PoolHooks) []JobResult {
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes the hooks and the done counter
	done := 0
	settle := func(i int, jr JobResult) {
		mu.Lock()
		results[i] = jr
		done++
		if hooks.Logger != nil && jr.Err != nil && !errors.Is(jr.Err, ErrCanceled) &&
			hooks.Logger.Enabled(context.Background(), slog.LevelError) {
			hooks.Logger.Error("pool job failed",
				"job", i, "elapsed", jr.Elapsed, "error", jr.Err.Error())
		}
		if hooks.OnDone != nil {
			hooks.OnDone(done, i, jr)
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A job can be in flight on idx when Cancel closes;
				// re-checking here guarantees no job *starts* after
				// cancellation, whatever the dispatch race decided.
				if hooks.Cancel != nil {
					select {
					case <-hooks.Cancel:
						settle(i, JobResult{Err: ErrCanceled})
						continue
					default:
					}
				}
				if hooks.OnStart != nil {
					mu.Lock()
					hooks.OnStart(i)
					mu.Unlock()
				}
				settle(i, runJob(jobs[i]))
			}
		}()
	}
	next := 0
dispatch:
	for ; next < len(jobs); next++ {
		// Checked separately first: in the combined select below an
		// idle worker's receive and a closed Cancel are both ready and
		// chosen between at random, which could keep feeding fast jobs
		// long after cancellation.
		select {
		case <-hooks.Cancel:
			break dispatch
		default:
		}
		select {
		case idx <- next:
		case <-hooks.Cancel:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	// Jobs never handed to a worker settle as canceled, after the pool
	// has drained, so OnDone still fires once per job and in a serial
	// stream.
	for i := next; i < len(jobs); i++ {
		settle(i, JobResult{Err: ErrCanceled})
	}
	return results
}

// runJob executes one job with panic isolation.
func runJob(j Job) (jr JobResult) {
	start := time.Now()
	defer func() {
		jr.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			jr.Err = fmt.Errorf("harness: run panicked: %v", r)
		}
	}()
	jr.Result, jr.Err = Run(j.MakeApp(), j.Config)
	return jr
}

package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/pi"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/threads"
)

// poolJobs builds a small grid over the barrier-synchronized benchmarks.
// Those are bit-deterministic, so concurrent and sequential execution can
// be compared for exact equality. (The monitor-based benchmarks pi and
// tsp carry the documented virtual-time jitter of host lock ordering.)
func poolJobs() []Job {
	var jobs []Job
	for _, n := range []int{1, 2, 3} {
		for _, proto := range Protocols {
			jobs = append(jobs, Job{
				MakeApp: func() apps.App { return jacobi.New(24, 2) },
				Config:  RunConfig{Cluster: model.SCI450(), Nodes: n, Protocol: proto},
			})
			jobs = append(jobs, Job{
				MakeApp: func() apps.App { return asp.New(16, 7) },
				Config:  RunConfig{Cluster: model.Myrinet200(), Nodes: n, Protocol: proto},
			})
		}
	}
	return jobs
}

func TestRunJobsMatchesSequential(t *testing.T) {
	jobs := poolJobs()
	concurrent := RunJobsHooked(jobs, 4, PoolHooks{})
	for i, j := range jobs {
		if concurrent[i].Err != nil {
			t.Fatalf("job %d: %v", i, concurrent[i].Err)
		}
		want, err := Run(j.MakeApp(), j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(concurrent[i].Result, want) {
			t.Errorf("job %d: concurrent result %+v != sequential %+v", i, concurrent[i].Result, want)
		}
	}
}

func TestRunJobsDeterministicOrderAndProgress(t *testing.T) {
	jobs := poolJobs()
	var doneSeq []int
	results := RunJobsHooked(jobs, 3, PoolHooks{OnDone: func(done, i int, jr JobResult) {
		doneSeq = append(doneSeq, done)
		if jr.Err != nil {
			t.Errorf("job %d failed: %v", i, jr.Err)
		}
	}})
	if len(doneSeq) != len(jobs) {
		t.Fatalf("onDone called %d times for %d jobs", len(doneSeq), len(jobs))
	}
	for k, d := range doneSeq {
		if d != k+1 {
			t.Fatalf("done counter out of order: %v", doneSeq)
		}
	}
	// results[i] must describe jobs[i] regardless of completion order.
	for i, j := range jobs {
		r := results[i].Result
		if r.Nodes != j.Config.Nodes || r.Protocol != j.Config.Protocol || r.Cluster != j.Config.Cluster.Name {
			t.Fatalf("result %d is %s/%s n=%d, want %s n=%d", i, r.Cluster, r.Protocol, r.Nodes, j.Config.Protocol, j.Config.Nodes)
		}
	}
}

// panicApp simulates a buggy benchmark kernel.
type panicApp struct{}

func (panicApp) Name() string { return "panic" }
func (panicApp) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	panic("kernel bug")
}

func TestRunJobsPanicIsolation(t *testing.T) {
	jobs := []Job{
		{MakeApp: func() apps.App { return pi.New(10_000) }, Config: RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "java_pf"}},
		{MakeApp: func() apps.App { return panicApp{} }, Config: RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "java_pf"}},
		{MakeApp: func() apps.App { return pi.New(10_000) }, Config: RunConfig{Cluster: model.SCI450(), Nodes: 3, Protocol: "java_ic"}},
	}
	results := RunJobsHooked(jobs, 2, PoolHooks{})
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panicking job error = %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("healthy job %d poisoned: %v", i, results[i].Err)
		}
		if !results[i].Result.Check.Valid {
			t.Errorf("healthy job %d invalid: %+v", i, results[i].Result.Check)
		}
	}
}

func TestRunJobsErrorPropagation(t *testing.T) {
	jobs := []Job{
		{MakeApp: func() apps.App { return pi.New(1000) }, Config: RunConfig{Cluster: model.SCI450(), Nodes: 2, Protocol: "bogus"}},
	}
	results := RunJobsHooked(jobs, 0, PoolHooks{})
	if results[0].Err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunJobsEmpty(t *testing.T) {
	if got := RunJobsHooked(nil, 4, PoolHooks{}); len(got) != 0 {
		t.Fatalf("RunJobsHooked(nil) = %v", got)
	}
}

// slowApp blocks until released, so tests can hold jobs "running" while
// they cancel the pool.
type slowApp struct{ release <-chan struct{} }

func (slowApp) Name() string { return "slow" }
func (a slowApp) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	<-a.release
	return apps.Check{Summary: "slow done", Valid: true}
}

func TestRunJobsHookedCancelDrains(t *testing.T) {
	release := make(chan struct{})
	cancel := make(chan struct{})
	mk := func() apps.App { return slowApp{release: release} }
	cfg := RunConfig{Cluster: model.SCI450(), Nodes: 1, Protocol: "java_pf"}
	jobs := []Job{{MakeApp: mk, Config: cfg}, {MakeApp: mk, Config: cfg}, {MakeApp: mk, Config: cfg}, {MakeApp: mk, Config: cfg}}

	started := make(chan int, len(jobs))
	var doneSeq, doneIdx []int
	var results []JobResult
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		results = RunJobsHooked(jobs, 2, PoolHooks{
			OnStart: func(i int) { started <- i },
			OnDone:  func(done, i int, jr JobResult) { doneSeq = append(doneSeq, done); doneIdx = append(doneIdx, i) },
			Cancel:  cancel,
		})
	}()

	// Two workers pick up two jobs; cancel while they are blocked, then
	// release them. The pool must finish the two running jobs and settle
	// the other two as canceled without starting them.
	<-started
	<-started
	close(cancel)
	close(release)
	<-finished

	ran, canceled := 0, 0
	for i, jr := range results {
		switch jr.Err {
		case nil:
			ran++
			if !jr.Result.Check.Valid || jr.Elapsed <= 0 {
				t.Errorf("job %d: drained job invalid or unmeasured: %+v", i, jr)
			}
		case ErrCanceled:
			canceled++
			if jr.Elapsed != 0 {
				t.Errorf("job %d: canceled job has elapsed %v", i, jr.Elapsed)
			}
		default:
			t.Errorf("job %d: err = %v", i, jr.Err)
		}
	}
	if ran != 2 || canceled != 2 {
		t.Fatalf("ran %d, canceled %d; want 2, 2", ran, canceled)
	}
	if len(doneSeq) != len(jobs) {
		t.Fatalf("OnDone called %d times for %d jobs", len(doneSeq), len(jobs))
	}
	for k, d := range doneSeq {
		if d != k+1 {
			t.Fatalf("done counter out of order: %v", doneSeq)
		}
	}
}

func TestRunJobsHookedStartBeforeDone(t *testing.T) {
	jobs := poolJobs()[:4]
	startedAt := make(map[int]bool)
	results := RunJobsHooked(jobs, 2, PoolHooks{
		OnStart: func(i int) { startedAt[i] = true },
		OnDone: func(done, i int, jr JobResult) {
			if !startedAt[i] {
				t.Errorf("job %d done before OnStart", i)
			}
		},
	})
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Elapsed <= 0 {
			t.Errorf("job %d: elapsed not recorded", i)
		}
	}
}

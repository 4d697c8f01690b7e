package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/jacobi"
	"repro/internal/jmm"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/threads"
)

// testApps substitutes scaled-down problem instances, like the sweep
// executor tests do, so server tests run in milliseconds per point.
func testApps(name string, paperScale bool) (apps.App, error) {
	switch name {
	case "jacobi":
		return jacobi.New(24, 2), nil
	case "asp":
		return asp.New(16, 7), nil
	}
	return nil, fmt.Errorf("testApps: unknown app %q", name)
}

// gateApp blocks in its kernel until released and announces each start,
// so tests can hold points "running" deterministically.
type gateApp struct {
	started chan<- struct{}
	release <-chan struct{}
}

func (gateApp) Name() string { return "gate" }
func (a gateApp) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	a.started <- struct{}{}
	<-a.release
	return apps.Check{Summary: "gate done", Valid: true}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// submit POSTs a spec and returns the accepted job id.
func submit(t *testing.T, base string, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID        string `json:"id"`
		State     State  `json:"state"`
		Total     int    `json:"total"`
		StatusURL string `json:"status_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v.ID == "" || v.StatusURL != "/v1/sweeps/"+v.ID {
		t.Fatalf("submit response %+v", v)
	}
	return v.ID
}

// getStatus fetches a job view.
func getStatus(t *testing.T, base, id string) View {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getStatus(t, base, id)
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return View{}
}

// readSSE consumes a job's event stream until its "done" event.
func readSSE(t *testing.T, base, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events %s: content-type %q", id, ct)
	}
	var events []Event
	var data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad event %q: %v", data, err)
			}
			events = append(events, e)
			data = ""
			if e.Type == "done" {
				return events
			}
		}
	}
	t.Fatalf("stream for %s ended without done event (got %d events, scan err %v)", id, len(events), sc.Err())
	return nil
}

// metricValue scrapes one metric from /metrics, summing over label sets
// (so a per-protocol histogram count aggregates across protocols).
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum float64
	found := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			if labeled, lok := strings.CutPrefix(line, name+"{"); lok {
				if _, val, vok := strings.Cut(labeled, "} "); vok {
					rest, ok = val, true
				}
			}
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, rest)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not exposed", name)
	}
	return sum
}

// TestServerEndToEnd is the acceptance flow: a real listener, the same
// small sweep submitted twice — the first executes everything, the
// second executes nothing (all cache hits) — with SSE delivering one
// event per point and /metrics matching the executed/cached split.
func TestServerEndToEnd(t *testing.T) {
	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{Cache: cache, Workers: 4, NewApp: testApps})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"apps":["jacobi"],"clusters":["sci"],"protocols":["java_ic","java_pf"],"nodes":[1,2]}`
	const points = 4

	// First submission: everything executes.
	id1 := submit(t, ts.URL, spec)
	ev1 := readSSE(t, ts.URL, id1)
	if len(ev1) != points+1 {
		t.Fatalf("first run: %d events, want %d point events + done", len(ev1), points)
	}
	for _, e := range ev1[:points] {
		if e.Type != "point" || e.Status != "executed" || e.Seconds <= 0 {
			t.Fatalf("first run event %+v", e)
		}
	}
	if last := ev1[points]; last.Type != "done" || last.State != StateDone || last.Done != points {
		t.Fatalf("first run terminal event %+v", last)
	}
	v1 := waitTerminal(t, ts.URL, id1)
	if v1.State != StateDone || v1.Counts.Executed != points || v1.Counts.Cached != 0 {
		t.Fatalf("first run view %+v", v1)
	}

	// Second submission of the identical spec: zero new simulations.
	id2 := submit(t, ts.URL, spec)
	ev2 := readSSE(t, ts.URL, id2)
	if len(ev2) != points+1 {
		t.Fatalf("second run: %d events, want %d", len(ev2), points+1)
	}
	for _, e := range ev2[:points] {
		if e.Type != "point" || e.Status != "cached" {
			t.Fatalf("second run event %+v, want cached", e)
		}
	}
	v2 := waitTerminal(t, ts.URL, id2)
	if v2.State != StateDone || v2.Counts.Executed != 0 || v2.Counts.Cached != points {
		t.Fatalf("second run view %+v", v2)
	}

	// Metrics match the executed/cached split exactly.
	checks := map[string]float64{
		"hyperion_points_executed_total":   points,
		"hyperion_points_cache_hits_total": points,
		"hyperion_points_coalesced_total":  0,
		"hyperion_points_failed_total":     0,
		"hyperion_jobs_submitted_total":    2,
		"hyperion_jobs_done_total":         2,
		"hyperion_jobs_failed_total":       0,
		"hyperion_queue_depth":             0,
		"hyperion_jobs_running":            0,
		"hyperion_point_seconds_count":     points,
	}
	for name, want := range checks {
		if got := metricValue(t, ts.URL, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if sum := metricValue(t, ts.URL, "hyperion_point_seconds_sum"); sum <= 0 {
		t.Errorf("latency sum = %g, want > 0", sum)
	}

	// The cache query endpoint sees every computed point.
	var results struct {
		Count   int                 `json:"count"`
		Results []sweep.CachedPoint `json:"results"`
	}
	getJSON := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		results = struct {
			Count   int                 `json:"count"`
			Results []sweep.CachedPoint `json:"results"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
			t.Fatal(err)
		}
	}
	getJSON("/v1/results")
	if results.Count != points {
		t.Fatalf("/v1/results count = %d, want %d", results.Count, points)
	}
	getJSON("/v1/results?app=jacobi&nodes=2")
	if results.Count != 2 {
		t.Fatalf("filtered count = %d, want 2", results.Count)
	}
	getJSON("/v1/results?protocol=java_pf&nodes=1")
	if results.Count != 1 || results.Results[0].Point.Protocol != "java_pf" {
		t.Fatalf("filtered results %+v", results)
	}

	// Liveness.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestServerCoalescesDuplicatePoints: identical points inside one
// submission execute once; the duplicates ride along as coalesced. No
// cache is configured, so the dedup is purely the in-flight table.
func TestServerCoalescesDuplicatePoints(t *testing.T) {
	s := newServer(t, Config{Workers: 2, NewApp: testApps})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, `{"apps":["jacobi","jacobi"],"clusters":["sci"],"protocols":["java_pf"],"nodes":[1]}`)
	v := waitTerminal(t, ts.URL, id)
	if v.State != StateDone || v.Counts.Executed != 1 || v.Counts.Coalesced != 1 {
		t.Fatalf("view %+v: want 1 executed + 1 coalesced", v)
	}
	for _, pv := range v.Points {
		if pv.Status != "executed" && pv.Status != "coalesced" {
			t.Fatalf("point %+v", pv)
		}
		if pv.Seconds <= 0 {
			t.Fatalf("coalesced point carries no result: %+v", pv)
		}
	}
	if got := metricValue(t, ts.URL, "hyperion_points_coalesced_total"); got != 1 {
		t.Fatalf("coalesced_total = %g", got)
	}
}

// TestServerCoalescesAcrossJobs: a second job submitted while an
// identical point is mid-simulation in another job must not simulate it
// again — it either coalesces onto the in-flight execution or, if it
// arrives just after completion, hits the cache. Either way the
// simulation count stays 1.
func TestServerCoalescesAcrossJobs(t *testing.T) {
	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	s := newServer(t, Config{
		Cache:             cache,
		Workers:           1,
		MaxConcurrentJobs: 2,
		NewApp: func(name string, paperScale bool) (apps.App, error) {
			return gateApp{started: started, release: release}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"apps":["gate"],"clusters":["sci"],"protocols":["java_pf"],"nodes":[1]}`
	idA := submit(t, ts.URL, spec)
	<-started // job A is inside the kernel, holding the flight
	idB := submit(t, ts.URL, spec)
	close(release)

	vA := waitTerminal(t, ts.URL, idA)
	vB := waitTerminal(t, ts.URL, idB)
	if vA.State != StateDone || vB.State != StateDone {
		t.Fatalf("states %s/%s", vA.State, vB.State)
	}
	if got := metricValue(t, ts.URL, "hyperion_points_executed_total"); got != 1 {
		t.Fatalf("executed_total = %g, want 1 (no duplicate simulation)", got)
	}
	if dedup := vB.Counts.Coalesced + vB.Counts.Cached + vA.Counts.Coalesced + vA.Counts.Cached; dedup != 1 {
		t.Fatalf("dedup count = %d (A %+v, B %+v)", dedup, vA.Counts, vB.Counts)
	}
}

// TestSubmitAcceptsBeforeFirstPointResolves: POST /v1/sweeps answers
// 202 once the job is queued and never waits on its runner. NewApp lets
// Submit's own validation call (the first) through and holds every
// later one — the runner's — on a channel, so while the 202 is on its
// way back no point of the job can have resolved. This pins ROADMAP
// 2(c): the benchmark's service.post_accept_ms tracks the whole cached
// job only because its layers pass runs handler and runner on one P
// (GOMAXPROCS=1), not because admission waits on the job.
func TestSubmitAcceptsBeforeFirstPointResolves(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	s := newServer(t, Config{
		Workers: 1,
		NewApp: func(name string, paperScale bool) (apps.App, error) {
			if calls.Add(1) > 1 {
				<-release
			}
			return testApps(name, paperScale)
		},
	})
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open) // runs before newServer's drain, which needs the runner back
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"apps":["jacobi"],"clusters":["sci"],"protocols":["java_pf"],"nodes":[1,2]}`))
	if err != nil {
		t.Fatalf("POST did not return while the runner was held: %v", err)
	}
	var v View
	decodeJSON(t, resp, &v)
	if resp.StatusCode != http.StatusAccepted || v.Total != 2 || v.Counts.Done != 0 {
		t.Fatalf("POST: status %d, view %+v; want 202, 2 points, none done", resp.StatusCode, v)
	}
	if v = getStatus(t, ts.URL, v.ID); v.Counts.Done != 0 || v.State.Terminal() {
		t.Fatalf("job resolved points with its runner held in NewApp: %+v", v)
	}
	open()
	if v = waitTerminal(t, ts.URL, v.ID); v.State != StateDone || v.Counts.Executed != 2 {
		t.Fatalf("after release: %+v", v)
	}
}

// TestServerQueueBounds: submissions beyond QueueCap are rejected with
// 503 and leave no job behind.
func TestServerQueueBounds(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	s := newServer(t, Config{
		Workers:           1,
		MaxConcurrentJobs: 1,
		QueueCap:          1,
		NewApp: func(name string, paperScale bool) (apps.App, error) {
			return gateApp{started: started, release: release}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"apps":["gate"],"clusters":["sci"],"protocols":["java_pf"],"nodes":[1]}`
	submit(t, ts.URL, spec) // running, blocked
	<-started
	submit(t, ts.URL, spec) // fills the queue

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("error body %+v (err %v)", eb, err)
	}
	if n := len(s.Jobs()); n != 2 {
		t.Fatalf("%d jobs registered after rejection, want 2", n)
	}
	close(release)
}

// TestServerBadRequests: malformed specs and unknown job ids map to
// client errors, not server state.
func TestServerBadRequests(t *testing.T) {
	s := newServer(t, Config{Workers: 1, NewApp: testApps})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"apps":["warp"]}`,                // unknown app
		`{"bogus_axis":[1]}`,               // unknown field
		`{"apps":["jacobi"],"nodes":[-1]}`, // bad node count
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/sweeps/j-999999", "/v1/sweeps/j-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs registered by bad submissions", n)
	}
}

// TestServerGracefulShutdownAndResume is the drain/persist/resume story:
// shutdown lets the running point finish (into the cache), marks the
// rest canceled, persists unfinished jobs, and a fresh server on the
// same state file resumes them — executing only what the cache does not
// already hold.
func TestServerGracefulShutdownAndResume(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "queue.json")
	cache, err := sweep.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	gateApps := func(release <-chan struct{}) func(string, bool) (apps.App, error) {
		return func(name string, paperScale bool) (apps.App, error) {
			switch name {
			case "gate":
				return gateApp{started: started, release: release}, nil
			default:
				return testApps(name, paperScale)
			}
		}
	}

	s1, err := New(Config{
		Cache: cache, Workers: 1, MaxConcurrentJobs: 1,
		QueueCap: 8, StatePath: statePath, NewApp: gateApps(release),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Job A: three gate points, one worker — the first blocks in the
	// kernel, two never start. Job B stays queued behind it.
	jA, err := s1.Submit(context.Background(), sweep.Spec{Apps: []string{"gate"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	jB, err := s1.Submit(context.Background(), sweep.Spec{Apps: []string{"jacobi"}, Clusters: []string{"sci"}, Protocols: []string{"java_pf"}, Nodes: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- s1.Shutdown(ctx)
	}()
	<-s1.stop      // cancellation is signaled before the gate opens...
	close(release) // ...so exactly the one running point drains
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	vA := jA.view(false)
	if vA.State != StateCanceled || vA.Counts.Executed != 1 || vA.Counts.Canceled != 2 {
		t.Fatalf("job A after shutdown: %+v", vA)
	}
	if jB.currentState() != StateQueued {
		t.Fatalf("job B state %s, want still queued", jB.currentState())
	}
	if _, err := s1.Submit(context.Background(), sweep.Spec{Apps: []string{"jacobi"}}); err != ErrStopped {
		t.Fatalf("submit after shutdown: %v, want ErrStopped", err)
	}

	// Second server, same state file: both unfinished jobs come back
	// under their ids and run to completion. The gate now opens
	// immediately, and job A's drained point is served from the cache.
	s2, err := New(Config{
		Cache: cache, Workers: 1, MaxConcurrentJobs: 1,
		QueueCap: 8, StatePath: statePath, NewApp: gateApps(closedChan()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	rA, ok := s2.Job(jA.ID())
	if !ok {
		t.Fatal("job A not restored")
	}
	rB, ok := s2.Job(jB.ID())
	if !ok {
		t.Fatal("job B not restored")
	}
	waitJob := func(j *Job) View {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if j.currentState().Terminal() {
				return j.view(false)
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("restored job %s did not finish", j.ID())
		return View{}
	}
	if v := waitJob(rA); v.State != StateDone || v.Counts.Cached != 1 || v.Counts.Executed != 2 {
		t.Fatalf("restored job A: %+v — want the drained point cached, the canceled two executed", v)
	}
	if v := waitJob(rB); v.State != StateDone || v.Counts.Executed != 2 {
		t.Fatalf("restored job B: %+v", v)
	}
}

// TestServerDrainClosesEventStreams: an SSE subscriber watching a job
// that will never finish (still queued at shutdown) must be released
// when the drain completes, not held until the HTTP server gives up.
func TestServerDrainClosesEventStreams(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	s := newServer(t, Config{
		Workers:           1,
		MaxConcurrentJobs: 1,
		NewApp: func(name string, paperScale bool) (apps.App, error) {
			return gateApp{started: started, release: release}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"apps":["gate"],"clusters":["sci"],"protocols":["java_pf"],"nodes":[1]}`
	submit(t, ts.URL, spec) // running, blocked in the kernel
	<-started
	idB := submit(t, ts.URL, spec) // queued; will never run

	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + idB + "/events")
		if err != nil {
			streamDone <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body) // blocks until the server closes the stream
		streamDone <- err
	}()
	// Give the subscriber a moment to attach, then shut down.
	time.Sleep(20 * time.Millisecond)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	<-s.stop
	close(release)
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream for queued job not closed by drain")
	}
}

// closedChan returns an already-closed channel: a gate that never blocks.
func closedChan() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestMetricsRenderShape sanity-checks the exposition format directly:
// counters and gauges carry their TYPE lines, the latency histogram is
// labeled by protocol, and the runtime block is present.
func TestMetricsRenderShape(t *testing.T) {
	m := newMetrics()
	m.jobsSubmitted.Inc()
	m.observePoint("java_pf", 0.002)
	m.observePoint("java_ic", 0.1)
	text := m.render(3, nil)
	for _, want := range []string{
		"# TYPE hyperion_jobs_submitted_total counter",
		"hyperion_jobs_submitted_total 1",
		"hyperion_queue_depth 3",
		"hyperion_sse_subscribers 0",
		`hyperion_point_seconds_bucket{protocol="java_pf",le="0.003"} 1`,
		`hyperion_point_seconds_bucket{protocol="java_pf",le="+Inf"} 1`,
		`hyperion_point_seconds_count{protocol="java_pf"} 1`,
		`hyperion_point_seconds_count{protocol="java_ic"} 1`,
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_cycles_total counter",
		"go_memstats_heap_alloc_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	perProto := len(stats.LatencyBounds()) + 1
	if got := bytes.Count([]byte(text), []byte("hyperion_point_seconds_bucket")); got != 2*perProto {
		t.Errorf("bucket line count %d, want %d", got, 2*perProto)
	}
}

// TestMetricsEveryMetricHasTypeLine walks the full exposition and
// asserts every sample's metric family is preceded by exactly one # TYPE
// line naming it — gauges declared as gauges, counters as counters (the
// regression this guards: gauges silently rendered under a counter
// TYPE).
func TestMetricsEveryMetricHasTypeLine(t *testing.T) {
	m := newMetrics()
	m.observePoint("java_pf", 0.002)
	text := m.render(0, nil)
	types := map[string]string{} // family -> declared type
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[fields[2]]; dup {
				t.Errorf("family %s declared twice", fields[2])
			}
			types[fields[2]] = fields[3]
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && types[f] == "histogram" {
				family = f
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("sample %q has no TYPE line (family %s)", line, family)
		}
	}
	// Spot-check the declared types: _total families are counters,
	// point-in-time families are gauges.
	wantTypes := map[string]string{
		"hyperion_jobs_submitted_total": "counter",
		"hyperion_jobs_running":         "gauge",
		"hyperion_queue_depth":          "gauge",
		"hyperion_points_running":       "gauge",
		"hyperion_sse_subscribers":      "gauge",
		"hyperion_point_seconds":        "histogram",
		"go_goroutines":                 "gauge",
		"go_gc_cycles_total":            "counter",
		"go_gc_pause_seconds_total":     "counter",
	}
	for fam, want := range wantTypes {
		if types[fam] != want {
			t.Errorf("family %s declared %q, want %q", fam, types[fam], want)
		}
	}
}

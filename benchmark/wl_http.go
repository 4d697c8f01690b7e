package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

// The HTTP workload's two fixed requests.
const (
	pagePath  = "/v1/results?app=jacobi&nodes=7&limit=20"
	spanHdr   = "X-Bench-Span" // "<parent span id>/<lane>/<operation id>", traced passes only
	jobChecks = 4              // check-cost overrides per submitted spec: 4 x 112 = 448 points
)

// httpInstance is an experiment server on a loopback listener, backed
// by a seeded cache, plus the (at most two) client connections that
// load it. It is also the server's outermost handler: a traced pass
// switches on spans around the product handler, and swaps the results
// endpoint for its step-by-step replica.
type httpInstance struct {
	dir       string
	cache     *sweep.Cache
	srv       *service.Server
	product   http.Handler
	hs        *http.Server
	base      string
	clients   [2]*http.Client
	pageCount int // matches of the page query among the seeded records
	nextSpec  int // distinguishes the specs this instance has submitted

	tr atomic.Pointer[tracer] // non-nil during a traced pass
}

func setupHTTP(e *env) (instance, error) {
	h := &httpInstance{}
	var err error
	if h.dir, err = e.mkdir("http-"); err != nil {
		return nil, err
	}
	if h.cache, err = sweep.OpenCache(h.dir); err != nil {
		return nil, err
	}
	records := e.pick(seededRecords, 500)
	if err := seedRecords(e, h.cache, records); err != nil {
		return nil, err
	}
	h.pageCount = seededMatches(records)
	// Re-open, so the server starts as it would on an existing cache.
	if err := h.cache.Close(); err != nil {
		return nil, err
	}
	if h.cache, err = sweep.OpenCache(h.dir); err != nil {
		return nil, err
	}
	if h.srv, err = service.New(service.Config{Cache: h.cache, Workers: e.nproc, NewApp: smallApps}); err != nil {
		return nil, err
	}
	h.product = h.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h}
	go h.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed from close
	for i := range h.clients {
		h.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	// Warm-up: a few pages on each connection and one small job.
	for i := 0; i < 3; i++ {
		for c := range h.clients {
			if _, err := h.page(nil, c); err != nil {
				h.close()
				return nil, err
			}
		}
	}
	if _, err := h.submit(nil, 0, h.newSpec(e, 1), "executed"); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *httpInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if h.hs != nil {
		h.hs.Shutdown(ctx) //nolint:errcheck // best effort at exit
	}
	for _, c := range h.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if h.srv != nil {
		h.srv.Shutdown(ctx) //nolint:errcheck
	}
	if h.cache != nil {
		h.cache.Close()
	}
	os.RemoveAll(h.dir)
}

// ServeHTTP is the listener's handler. Untraced, it is the product's.
func (h *httpInstance) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	hdr := r.Header.Get(spanHdr)
	if tr == nil || hdr == "" || strings.HasSuffix(r.URL.Path, "/events") {
		// An event stream's handler runs alongside the client's own
		// spans for as long as the job does; it gets no span of its own.
		h.product.ServeHTTP(w, r)
		return
	}
	parts := strings.SplitN(hdr, "/", 3)
	if len(parts) != 3 {
		h.product.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(parts[0])
	lane, _ := strconv.Atoi(parts[1])
	op := parts[2]
	if r.URL.Path == "/v1/results" {
		sp := tr.begin(parent, lane, "service", "results handler", op)
		h.replicaResults(tr, sp, lane, op, w, r)
		tr.end(sp)
		return
	}
	sp := tr.begin(parent, lane, "service", r.Method+" "+r.URL.Path, op)
	h.product.ServeHTTP(w, r)
	tr.end(sp)
}

// replicaResults is the results handler: parse the query, ask the
// cache, encode the page.
func (h *httpInstance) replicaResults(tr *tracer, parent, lane int, op string, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pq := pageQuery{limit: -1}
	pq.filter.App = q.Get("app")
	pq.filter.Protocol = q.Get("protocol")
	pq.filter.Nodes, _ = strconv.Atoi(q.Get("nodes"))
	if v := q.Get("limit"); v != "" {
		pq.limit, _ = strconv.Atoi(v)
	}
	pq.offset, _ = strconv.Atoi(q.Get("offset"))
	body, err := replicaQuery(tr, parent, lane, op, h.cache, pq)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // the client is gone if this fails
}

// tspan is the client side of one traced exchange: where its spans go.
type tspan struct {
	tr   *tracer
	lane int
	op   string
}

func (t *tspan) header(req *http.Request, parent int) {
	if t != nil {
		req.Header.Set(spanHdr, fmt.Sprintf("%d/%d/%s", parent, t.lane, t.op))
	}
}

func (t *tspan) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	return t.tr.begin(parent, t.lane, "http", name, t.op)
}

func (t *tspan) end(id int) {
	if t != nil {
		t.tr.end(id)
	}
}

// page issues the results-page request on connection c and checks the
// reply: status 200, the seeded match count, a full page.
func (h *httpInstance) page(t *tspan, c int) (time.Duration, error) {
	req, err := http.NewRequest("GET", h.base+pagePath, nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sp := t.begin(-1, "GET /v1/results")
	t.header(req, sp)
	resp, err := h.clients[c].Do(req)
	if err != nil {
		t.end(sp)
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.end(sp)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	var body struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("results page: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return d, fmt.Errorf("results page: %w", err)
	}
	if body.Count != h.pageCount || len(body.Results) != min(20, h.pageCount) {
		return d, fmt.Errorf("results page: count %d with %d results, want %d with %d", body.Count, len(body.Results), h.pageCount, min(20, h.pageCount))
	}
	return d, nil
}

// jobSpec is a submission: the body to POST and the points it expands
// to.
type jobSpec struct {
	spec   sweep.Spec
	body   []byte
	points int
}

// newSpec builds a spec no earlier one of this instance shares a point
// with: its check-cost overrides are new, so every point is a new cache
// key and must be simulated.
func (h *httpInstance) newSpec(e *env, overrides int) jobSpec {
	h.nextSpec++
	spec := gridSpec(fmt.Sprintf("job-%d", h.nextSpec), checkValues(e, float64(100+8*h.nextSpec), overrides))
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Spec has no unmarshalable fields
	}
	return jobSpec{spec: spec, body: body, points: overrides * pointsPerOverride}
}

// jobTiming is one job as its client saw it: total runs from the POST
// being sent to the "done" event being read, post to the 202 reply.
type jobTiming struct{ post, total time.Duration }

// submit POSTs the spec on connection c and reads the job's event
// stream to its "done" event. It checks one event per point plus the
// terminal one, every point resolved with wantStatus, final state
// "done".
func (h *httpInstance) submit(t *tspan, c int, js jobSpec, wantStatus string) (jobTiming, error) {
	var d jobTiming
	t0 := time.Now()
	root := t.begin(-1, "job (POST to done)")
	defer t.end(root)

	sp := t.begin(root, "POST /v1/sweeps")
	req, err := http.NewRequest("POST", h.base+"/v1/sweeps", bytes.NewReader(js.body))
	if err != nil {
		return d, err
	}
	t.header(req, sp)
	resp, err := h.clients[c].Do(req)
	if err != nil {
		t.end(sp)
		return d, err
	}
	var accepted struct {
		EventsURL string `json:"events_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	resp.Body.Close()
	t.end(sp)
	d.post = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return d, fmt.Errorf("POST /v1/sweeps: status %d, err %v", resp.StatusCode, err)
	}

	sp = t.begin(root, "first_event")
	req, err = http.NewRequest("GET", h.base+accepted.EventsURL, nil)
	if err != nil {
		t.end(sp)
		return d, err
	}
	resp, err = h.clients[c].Do(req)
	if err != nil {
		t.end(sp)
		return d, err
	}
	defer resp.Body.Close()
	events, withStatus := 0, 0
	var last []byte
	want := []byte(`"status":"` + wantStatus + `"`)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		if events == 0 {
			t.end(sp)
			sp = t.begin(root, "last_event")
		}
		events++
		if bytes.Contains(line, want) {
			withStatus++
		}
		last = append(last[:0], line[len("data: "):]...)
	}
	t.end(sp)
	d.total = time.Since(t0)
	if err := sc.Err(); err != nil {
		return d, fmt.Errorf("event stream: %w", err)
	}
	var done struct {
		Type  string `json:"type"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(last, &done); err != nil {
		return d, fmt.Errorf("event stream: last event: %w", err)
	}
	if events != js.points+1 || withStatus != js.points || done.Type != "done" || done.State != "done" {
		return d, fmt.Errorf("job: %d events (%d %s), last %q in state %q; want %d events (%d %s), last \"done\" in state \"done\"",
			events, withStatus, wantStatus, done.Type, done.State, js.points+1, js.points, wantStatus)
	}
	return d, nil
}

// submitInProcess is the same job without HTTP between client and
// server: Server.Submit, then the event stream served into a recorder.
func (h *httpInstance) submitInProcess(js jobSpec) (time.Duration, error) {
	t0 := time.Now()
	job, err := h.srv.Submit(context.Background(), js.spec)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.product.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sweeps/"+job.ID()+"/events", nil))
	d := time.Since(t0)
	if n := bytes.Count(rec.Body.Bytes(), []byte("\ndata: ")); n != js.points+1 {
		return d, fmt.Errorf("in-process job: %d events, want %d", n, js.points+1)
	}
	return d, nil
}

// pager issues results pages on connection c, pausing between them,
// until stop is closed, and returns their latencies: the reads that run
// beside a job's writes.
func (h *httpInstance) pager(e *env, t func(i int) *tspan, c int, stop <-chan struct{}) []float64 {
	var lat []float64
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat
		default:
		}
		var ts *tspan
		if t != nil {
			ts = t(i)
		}
		d, err := h.page(ts, c)
		if e.check(err == nil, "busy results page: %v", err) {
			lat = append(lat, ms(d))
		}
		time.Sleep(pagerPause)
	}
}

// coldJob submits a new spec on connection 0 while connection 1 pages
// through results, and returns the job's latency and the pages'.
func (h *httpInstance) coldJob(e *env, js jobSpec, jobSpan *tspan, pageSpan func(i int) *tspan) (jobTiming, []float64, error) {
	stop := make(chan struct{})
	var busy []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		busy = h.pager(e, pageSpan, 1, stop)
	}()
	d, err := h.submit(jobSpan, 0, js, "executed")
	close(stop)
	wg.Wait()
	return d, busy, err
}

// The traffic mix of a measured run, per second of --seconds. The counts
// are fixed, not the time, so that every run serves the same mix and
// the per-request costs divide by the same requests; at the baseline
// commit the three phases take about 4, 7 and 3 of 15 seconds.
const (
	quietPagesPerS = 12.0
	coldJobsPerS   = 0.6
	cachedJobsPerS = 11.0
	pagerPause     = 20 * time.Millisecond // connection 1's think time between busy pages
)

func (h *httpInstance) measure(e *env, _ time.Time) region {
	var reg region
	count := func(perS float64, quick int) int {
		if e.quick {
			return quick
		}
		return max(int(perS*e.seconds), 3)
	}

	// Quiet: results pages with nothing else running.
	for i := count(quietPagesPerS, 5); i > 0; i-- {
		d, err := h.page(nil, 0)
		if e.check(err == nil, "results page: %v", err) {
			reg.opMS = append(reg.opMS, ms(d))
		}
		reg.reqs++
	}

	// Cold: new specs, simulated and appended while connection 1 reads.
	// Three jobs make one throughput sample, the repetition of this
	// workload.
	var last jobSpec
	var points int
	var spent time.Duration
	for i := count(coldJobsPerS, 1); i > 0; i-- {
		last = h.newSpec(e, e.pick(jobChecks, 1))
		d, busy, err := h.coldJob(e, last, nil, nil)
		if e.check(err == nil, "cold job: %v", err) {
			points, spent = points+last.points, spent+d.total
		}
		if (i-1)%3 == 0 && spent > 0 {
			reg.work = append(reg.work, float64(points)/spent.Seconds())
			points, spent = 0, 0
		}
		reg.reqs += 1 + len(busy)
	}

	// Cached: the last spec again; nothing is simulated.
	for i := count(cachedJobsPerS, 3); i > 0; i-- {
		d, err := h.submit(nil, 0, last, "cached")
		if e.check(err == nil, "cached job: %v", err) {
			reg.jobMS = append(reg.jobMS, ms(d.total))
		}
		reg.reqs++
	}
	return reg
}

func (h *httpInstance) traced(e *env) tracedPass {
	pages, jobs := e.pick(40, 4), e.pick(10, 2)
	overrides := e.pick(jobChecks, 1)
	pass := tracedPass{replica: true}

	// The product's own handlers, no spans.
	js := h.newSpec(e, overrides)
	_, _, err := h.coldJob(e, js, nil, nil)
	e.check(err == nil, "cold job: %v", err)
	for i := 0; i < pages; i++ {
		d, err := h.page(nil, 0)
		e.check(err == nil, "results page: %v", err)
		pass.untracedS += d.Seconds()
	}
	for i := 0; i < jobs; i++ {
		d, err := h.submit(nil, 0, js, "cached")
		e.check(err == nil, "cached job: %v", err)
		pass.untracedS += d.total.Seconds()
	}

	// The same exchanges with spans: the client's around each exchange,
	// the server's around its handler, the results handler replaced by
	// its replica.
	h.tr.Store(e.tr)
	defer h.tr.Store(nil)
	span := func(lane int, kind string) func(i int) *tspan {
		return func(i int) *tspan {
			return &tspan{tr: e.tr, lane: lane, op: fmt.Sprintf("%s-%d", kind, i)}
		}
	}
	for i := 0; i < pages; i++ {
		d, err := h.page(span(0, "page")(i), 0)
		e.check(err == nil, "traced results page: %v", err)
		pass.tracedS += d.Seconds()
	}
	for i := 0; i < jobs; i++ {
		d, err := h.submit(span(0, "cached-job")(i), 0, js, "cached")
		e.check(err == nil, "traced cached job: %v", err)
		pass.tracedS += d.total.Seconds()
	}
	_, _, err = h.coldJob(e, h.newSpec(e, overrides), span(0, "cold-job")(0), span(1, "busy-page"))
	e.check(err == nil, "traced cold job: %v", err)
	for i := 0; i < jobs; i++ {
		sp := e.tr.begin(-1, 0, "service", "Server.Submit to done (in process)", fmt.Sprintf("inproc-job-%d", i))
		_, err := h.submitInProcess(js)
		e.tr.end(sp)
		e.check(err == nil, "in-process job: %v", err)
	}
	return pass
}

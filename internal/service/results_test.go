package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/vtime"
)

// seedApps is the app axis the seeded caches cycle through.
var seedApps = []string{"pi", "jacobi", "asp", "sor", "tsp"}

// seedCache fills a fresh cache at dir with n distinct fabricated
// points — no simulation, so tens of thousands of entries seed in well
// under a second. Index i maps bijectively onto (app, nodes, tpn), so
// every point is unique and exactly n/len(seedApps) match each app.
func seedCache(t testing.TB, dir string, n int) *sweep.Cache {
	t.Helper()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := sweep.Point{
			App:            seedApps[i%len(seedApps)],
			Cluster:        "sci",
			Protocol:       "java_pf",
			Nodes:          1 + (i/len(seedApps))%16,
			ThreadsPerNode: 1 + i/(len(seedApps)*16),
			Repeats:        1,
		}
		r := harness.Result{
			App: p.App, Cluster: p.Cluster, Nodes: p.Nodes, Protocol: p.Protocol,
			Workers: p.Nodes * p.ThreadsPerNode,
			Time:    vtime.Time(i+1) * vtime.Time(vtime.Millisecond),
			Check:   apps.Check{Summary: "seeded", Valid: true},
		}
		if err := cache.Put(p, r); err != nil {
			t.Fatal(err)
		}
	}
	return cache
}

// resultsPage is the /v1/results response envelope.
type resultsPage struct {
	Count   int                 `json:"count"`
	Offset  int                 `json:"offset"`
	Results []sweep.CachedPoint `json:"results"`
}

// TestResultsPagination: limit/offset slice the matched set without
// changing the reported total, pages tile the full selection exactly,
// and malformed pagination or filter parameters are 400s.
func TestResultsPagination(t *testing.T) {
	const n = 30
	cache := seedCache(t, filepath.Join(t.TempDir(), "cache"), n)
	s := newServer(t, Config{Workers: 1, NewApp: testApps, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(query string) resultsPage {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("GET /v1/results%s: status %d: %s", query, resp.StatusCode, body)
		}
		var page resultsPage
		decodeJSON(t, resp, &page)
		return page
	}

	if p := get("?limit=7"); p.Count != n || len(p.Results) != 7 || p.Offset != 0 {
		t.Errorf("limit=7: count %d, %d results, offset %d; want %d, 7, 0", p.Count, len(p.Results), p.Offset, n)
	}
	if p := get("?offset=28&limit=10"); p.Count != n || len(p.Results) != 2 || p.Offset != 28 {
		t.Errorf("offset=28&limit=10: count %d, %d results, offset %d; want %d, 2, 28", p.Count, len(p.Results), p.Offset, n)
	}
	if p := get("?offset=500"); p.Count != n || len(p.Results) != 0 {
		t.Errorf("offset past the end: count %d, %d results; want %d, 0", p.Count, len(p.Results), n)
	}
	if p := get("?limit=0"); p.Count != n || len(p.Results) != 0 {
		t.Errorf("limit=0: count %d, %d results; want %d, 0 (a pure count query)", p.Count, len(p.Results), n)
	}

	// Paging with offset += limit reassembles exactly the unpaginated
	// order, no duplicates, no gaps.
	full := get("")
	if full.Count != n || len(full.Results) != n {
		t.Fatalf("unpaginated: count %d, %d results, want %d", full.Count, len(full.Results), n)
	}
	var paged []sweep.CachedPoint
	for off := 0; off < full.Count; off += 8 {
		paged = append(paged, get(fmt.Sprintf("?offset=%d&limit=8", off)).Results...)
	}
	if len(paged) != n {
		t.Fatalf("pages sum to %d results, want %d", len(paged), n)
	}
	for i := range paged {
		if paged[i].Point.Key() != full.Results[i].Point.Key() {
			t.Fatalf("page order diverges from unpaginated order at %d", i)
		}
	}

	// Filters compose with pagination; count stays the filtered total.
	if p := get("?app=jacobi&limit=2"); p.Count != n/len(seedApps) || len(p.Results) != 2 {
		t.Errorf("app=jacobi&limit=2: count %d, %d results; want %d, 2", p.Count, len(p.Results), n/len(seedApps))
	}

	// Malformed parameters — the negative-filter bugfix included — are
	// rejected, not silently coerced into empty or full selections.
	for _, q := range []string{
		"?nodes=-2", "?nodes=0", "?tpn=-1", "?tpn=0",
		"?limit=-1", "?limit=x", "?offset=-5", "?offset=z",
		"?stream=websocket",
	} {
		resp, err := http.Get(ts.URL + "/v1/results" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/results%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestResultsStreamSSE: ?stream=sse delivers the same selection as the
// JSON body, one "result" event per point plus a terminal "done" event
// — across more points than one internal chunk, so the incremental
// path is actually exercised.
func TestResultsStreamSSE(t *testing.T) {
	const n = 600 // > resultsChunk, forces at least three chunks
	cache := seedCache(t, filepath.Join(t.TempDir(), "cache"), n)
	s := newServer(t, Config{Workers: 1, NewApp: testApps, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stream := func(query string) (results []sweep.CachedPoint, done map[string]int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/results%s: status %d", query, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content-type %q, want text/event-stream", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data := strings.TrimPrefix(line, "data: ")
				switch event {
				case "result":
					var cp sweep.CachedPoint
					if err := json.Unmarshal([]byte(data), &cp); err != nil {
						t.Fatalf("result event %q: %v", data, err)
					}
					results = append(results, cp)
				case "done":
					done = map[string]int{}
					if err := json.Unmarshal([]byte(data), &done); err != nil {
						t.Fatalf("done event %q: %v", data, err)
					}
				default:
					t.Fatalf("unexpected event %q", event)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return results, done
	}

	results, done := stream("?stream=sse")
	if len(results) != n {
		t.Fatalf("streamed %d results, want %d", len(results), n)
	}
	if done == nil || done["count"] != n || done["streamed"] != n {
		t.Fatalf("done event %v, want count=%d streamed=%d", done, n, n)
	}
	// Stream order is the same grid order as the JSON body.
	resp, err := http.Get(ts.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	var body resultsPage
	decodeJSON(t, resp, &body)
	for i := range results {
		if results[i].Point.Key() != body.Results[i].Point.Key() {
			t.Fatalf("stream order diverges from JSON order at %d", i)
		}
	}

	// Filters and pagination apply to streams too.
	results, done = stream("?stream=sse&app=asp&limit=10&offset=5")
	if len(results) != 10 || done["count"] != n/len(seedApps) || done["streamed"] != 10 {
		t.Fatalf("filtered stream: %d results, done %v; want 10 results, count=%d", len(results), done, n/len(seedApps))
	}
	for _, cp := range results {
		if cp.Point.App != "asp" {
			t.Fatalf("streamed point has app %q, want asp", cp.Point.App)
		}
	}
}

// TestResultsQueryPushdownAtScale is the ISSUE acceptance criterion:
// on a store of >= 10k points, a filtered, limited query answers from
// the in-memory index, reading only the returned page's payloads from
// disk — measured with the store's own read counters.
func TestResultsQueryPushdownAtScale(t *testing.T) {
	const n = 10_000
	cache := seedCache(t, filepath.Join(t.TempDir(), "cache"), n)
	s := newServer(t, Config{Workers: 1, NewApp: testApps, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := cache.Store().ReadCounters()
	resp, err := http.Get(ts.URL + "/v1/results?app=jacobi&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var page resultsPage
	decodeJSON(t, resp, &page)
	after := cache.Store().ReadCounters()

	if want := n / len(seedApps); page.Count != want {
		t.Errorf("count = %d, want %d", page.Count, want)
	}
	if len(page.Results) != 5 {
		t.Fatalf("%d results, want 5", len(page.Results))
	}
	for _, cp := range page.Results {
		if cp.Point.App != "jacobi" {
			t.Errorf("result has app %q, want jacobi", cp.Point.App)
		}
	}
	// The heart of the criterion: 5 records served, 5 records read —
	// the other 9,995 (1,995 of them matching) never touched disk.
	if got := after.RecordsRead - before.RecordsRead; got != 5 {
		t.Errorf("query read %d records from the store, want exactly 5 (the page)", got)
	}
	if after.BytesRead == before.BytesRead {
		t.Error("read counters report zero payload bytes for a non-empty page")
	}
}

// TestResultsStreamReadsEachRowOnce: a ?stream=sse selection of 1,000
// rows, delivered in resultsChunk-sized queries, reads each selected
// payload from the store exactly once and none of the other 4,000.
func TestResultsStreamReadsEachRowOnce(t *testing.T) {
	const n = 5_000
	cache := seedCache(t, filepath.Join(t.TempDir(), "cache"), n)
	s := newServer(t, Config{Workers: 1, NewApp: testApps, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := cache.Store().ReadCounters()
	resp, err := http.Get(ts.URL + "/v1/results?stream=sse&app=jacobi")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Store().ReadCounters()

	const want = n / 5 // seedApps has five apps
	if got := strings.Count(string(body), "event: result\n"); got != want {
		t.Fatalf("streamed %d result events, want %d", got, want)
	}
	if done := fmt.Sprintf("event: done\ndata: {\"count\": %d, \"streamed\": %d}\n\n", want, want); !strings.HasSuffix(string(body), done) {
		t.Errorf("stream does not end with %q", done)
	}
	if got := after.RecordsRead - before.RecordsRead; got != want {
		t.Errorf("stream read %d payloads from the store, want %d (each selected row once)", got, want)
	}
}

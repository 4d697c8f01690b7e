package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obslog"
	"repro/internal/sweep"
)

// maxSpecBytes bounds a submission body; the largest realistic spec is
// a few KB.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP surface:
//
//	POST /v1/sweeps            submit a sweep.Spec, get a job id (202)
//	GET  /v1/sweeps            list jobs
//	GET  /v1/sweeps/{id}       job status + partial results
//	GET  /v1/sweeps/{id}/events  SSE: one event per completed point
//	GET  /v1/sweeps/{id}/trace   Perfetto trace of one traced point
//	GET  /v1/sweeps/{id}/pagestats  per-page sharing report of one point
//	GET  /v1/results           query the result cache by axis
//	GET  /healthz              liveness
//	GET  /metrics              text-format operational counters
//	GET  /debug/dashboard      live ops dashboard (embedded single page)
//	GET  /debug/pprof/...      Go profiler (only with Config.EnablePprof)
//
// The whole surface is wrapped in the obslog access-log middleware:
// every request gets a correlation id (X-Request-Id, minted or adopted)
// and exactly one structured access line; /v1 traffic logs at Info,
// scrape and probe paths at Debug.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/sweeps/{id}/pagestats", s.handlePageStats)
	mux.HandleFunc("GET /v1/results", s.handleResults)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/dashboard", s.handleDashboard)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return obslog.AccessLog(s.log, mux)
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec larger than %d bytes", maxSpecBytes)
		return
	}
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.Submit(r.Context(), spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v := j.view(false)
	writeJSON(w, http.StatusAccepted, struct {
		View
		StatusURL string `json:"status_url"`
		EventsURL string `json:"events_url"`
	}{v, "/v1/sweeps/" + j.id, "/v1/sweeps/" + j.id + "/events"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

// handleEvents streams a job's progress as Server-Sent Events: every
// already-resolved point is replayed, then live completions follow, and
// the stream closes after the terminal "done" event. Each SSE message is
//
//	event: point | done
//	data:  <Event JSON>
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.metrics.sseSubscribers.Add(1)
	defer s.metrics.sseSubscribers.Add(-1)

	sent := 0
	for {
		events, update, complete := j.eventsSince(sent)
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data); err != nil {
				return
			}
			sent++
		}
		fl.Flush()
		if complete {
			return
		}
		select {
		case <-update:
		case <-r.Context().Done():
			return
		case <-s.drained:
			// The server has fully drained: no further events can ever
			// arrive for this job (it was queued or interrupted), so
			// holding the stream open would only stall the HTTP
			// listener's own shutdown. The loop iterates once more to
			// flush anything appended just before the drain completed,
			// then lands here again and closes.
			if events, _, _ := j.eventsSince(sent); len(events) == 0 {
				return
			}
		}
	}
}

// handleTrace serves the Perfetto (Chrome trace-event JSON) rendering of
// one point's recorded protocol trace. The point is selected by its
// 0-based index in the job's point list (?point=N, default 0); 404 means
// the point was not traced — the job's spec lacked "trace": true, the
// point hit the cache, or it has not executed yet.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	point := 0
	if v := r.URL.Query().Get("point"); v != "" {
		var err error
		// A negative index is malformed, not merely absent: 400, like
		// every other unparsable parameter, not 404.
		if point, err = strconv.Atoi(v); err != nil || point < 0 {
			writeError(w, http.StatusBadRequest, "bad point %q: want a non-negative index", v)
			return
		}
	}
	buf := j.pointTrace(point)
	if buf == nil {
		writeError(w, http.StatusNotFound, "job %s has no trace for point %d (traced jobs need \"trace\": true in the spec; cache hits carry no trace)", j.id, point)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("%s-point%d.trace.json", j.id, point)))
	buf.WritePerfetto(w) //nolint:errcheck // the client is gone if this fails
}

// handlePageStats serves one point's per-page sharing report (the
// pagestats.Report JSON the CLI's -pagestats flag writes). The point is
// selected by its 0-based index (?point=N, default 0); 404 means no
// report exists there — the job's spec lacked "page_stats": true and
// the cache holds no profiled result for the point, or it has not
// resolved yet. Unlike traces, cache hits of previously profiled
// points do carry their report: it is part of the stored Result.
func (s *Server) handlePageStats(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	point := 0
	if v := r.URL.Query().Get("point"); v != "" {
		var err error
		if point, err = strconv.Atoi(v); err != nil || point < 0 {
			writeError(w, http.StatusBadRequest, "bad point %q: want a non-negative index", v)
			return
		}
	}
	rep := j.pointPageStats(point)
	if rep == nil {
		writeError(w, http.StatusNotFound, "job %s has no page stats for point %d (profiled jobs need \"page_stats\": true in the spec)", j.id, point)
		return
	}
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("%s-point%d.pagestats.json", j.id, point)))
	writeJSON(w, http.StatusOK, rep)
}

// handleResults queries the content-addressed result cache. Filters
// (all optional, ANDed): app, cluster, protocol, nodes, tpn,
// paperscale. The filter is a walk over the cache's point index; only
// the returned page's payloads are read from disk. Pagination: ?limit=N
// caps the returned page (default: everything), ?offset=M skips the
// first M matches; "count" in the response is always the total number
// of matches, so a client pages with offset += limit until offset >=
// count. With ?stream=sse the selection is instead delivered
// incrementally as Server-Sent Events — one "result" event per point,
// then a terminal "done" event — so arbitrarily large result sets
// never materialize in one response body.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		writeError(w, http.StatusServiceUnavailable, "server runs without a result cache")
		return
	}
	q := r.URL.Query()
	var f sweep.Filter
	f.App = q.Get("app")
	f.Protocol = q.Get("protocol")
	var err error
	if v := q.Get("nodes"); v != "" {
		// Zero or negative node counts exist in no grid: they are
		// malformed filters (previously accepted, matching nothing or —
		// worse, for 0 — everything), not empty selections.
		if f.Nodes, err = strconv.Atoi(v); err != nil || f.Nodes <= 0 {
			writeError(w, http.StatusBadRequest, "bad nodes %q: want a positive integer", v)
			return
		}
	}
	if v := q.Get("tpn"); v != "" {
		if f.ThreadsPerNode, err = strconv.Atoi(v); err != nil || f.ThreadsPerNode <= 0 {
			writeError(w, http.StatusBadRequest, "bad tpn %q: want a positive integer", v)
			return
		}
	}
	if v := q.Get("paperscale"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad paperscale %q", v)
			return
		}
		f.PaperScale = &b
	}
	if v := q.Get("cluster"); v != "" {
		if f.Cluster, err = sweep.CanonicalCluster(v); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	offset, limit := 0, -1
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q: want a non-negative integer", v)
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", v)
			return
		}
	}
	s.metrics.resultsQueries.Add(1)

	switch q.Get("stream") {
	case "":
	case "sse":
		s.streamResults(w, r, f, offset, limit)
		return
	default:
		writeError(w, http.StatusBadRequest, "bad stream %q: only \"sse\" is supported", q.Get("stream"))
		return
	}

	total, page, err := s.cfg.Cache.Query(f, offset, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Count   int                 `json:"count"`
		Offset  int                 `json:"offset"`
		Results []sweep.CachedPoint `json:"results"`
	}{total, offset, page})
}

// resultsChunk bounds how many cached points a results stream reads
// from the store (and holds in memory) at once.
const resultsChunk = 256

// streamResults serves a results query as an SSE stream, reusing the
// /events idiom: one "result" event per matching cached point, then a
// terminal "done" event carrying the match total. The selection is
// read from the store in resultsChunk-sized pages and flushed as each
// page is written, so the stream is incremental end to end.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, f sweep.Filter, offset, limit int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.metrics.sseSubscribers.Add(1)
	defer s.metrics.sseSubscribers.Add(-1)

	sent, total := 0, 0
	for {
		want := resultsChunk
		if limit >= 0 && limit-sent < want {
			want = limit - sent
		}
		t, page, err := s.cfg.Cache.Query(f, offset+sent, want)
		if err != nil {
			// Headers are gone; all that is left is to end the stream
			// without its terminal event, which clients read as failure.
			return
		}
		total = t
		for _, cp := range page {
			data, err := json.Marshal(cp)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: result\ndata: %s\n\n", data); err != nil {
				return
			}
			sent++
		}
		fl.Flush()
		if len(page) < want || want == 0 {
			break
		}
		if r.Context().Err() != nil {
			return
		}
	}
	fmt.Fprintf(w, "event: done\ndata: {\"count\": %d, \"streamed\": %d}\n\n", total, sent) //nolint:errcheck
	fl.Flush()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}{"ok", time.Since(s.startAt).Seconds()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.metrics.render(len(s.queue), s.cfg.Cache)) //nolint:errcheck
}

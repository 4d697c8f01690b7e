package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files, around the calls into each
// package's public functions; the program under test carries none.
type span struct {
	Name   string // the call, e.g. "core.NewEngine"
	Pkg    string // the layer the call's self time is charged to
	Op     string // the point/job id shared by all spans of one operation
	Lane   int    // goroutine lane, the trace file's tid
	Parent int    // index of the causing span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the same code runs traced and untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; -1 from a nil tracer.
func (tr *tracer) begin(parent, lane int, pkg, name, op string) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Pkg: pkg, Op: op, Lane: lane, Parent: parent, Start: now, End: -1})
	tr.mu.Unlock()
	return id
}

func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// selfShares charges each span's self time (its duration minus the part
// its children cover) to its layer and returns the layers' shares in
// percent of all self time, plus the conservation error: how far the
// self times are from summing to the root spans' total, in percent.
// Spans nest within a lane and a lane's roots do not overlap, so the
// two agree unless a child outlasts its parent.
func selfShares(spans []span) (shares map[string]float64, conservationPct float64) {
	child := make([]time.Duration, len(spans))
	var roots time.Duration
	for _, s := range spans {
		d := s.End - s.Start
		if s.End < 0 {
			d = 0
		}
		if s.Parent >= 0 {
			child[s.Parent] += d
		} else {
			roots += d
		}
	}
	self := make(map[string]time.Duration)
	var total time.Duration
	for i, s := range spans {
		d := s.End - s.Start - child[i]
		if s.End < 0 {
			continue
		}
		if d < 0 {
			d = 0 // shows up as a conservation error
		}
		self[s.Pkg] += d
		total += d
	}
	shares = make(map[string]float64, len(self))
	if total == 0 {
		return shares, 0
	}
	for pkg, d := range self {
		shares[pkg] = 100 * float64(d) / float64(total)
	}
	return shares, 100 * float64(total-roots) / float64(roots)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeFile is a trace-event JSON file.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// writeChrome writes one workload's spans as a trace-event JSON file,
// as process 1 named after the workload. Each event's args carry the
// span id, its parent's id and the operation id.
func writeChrome(path, workload string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Pkg, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": workload}})
	return writeChromeFile(path, chromeFile{events})
}

// mergeChrome joins per-workload trace files into one, each workload a
// process of its own (span ids stay relative to their process).
func mergeChrome(path string, parts []string) error {
	var all chromeFile
	for i, part := range parts {
		data, err := os.ReadFile(part)
		if err != nil {
			return fmt.Errorf("reading trace: %w", err)
		}
		var f chromeFile
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", part, err)
		}
		for _, ev := range f.TraceEvents {
			ev.PID = i + 1
			all.TraceEvents = append(all.TraceEvents, ev)
		}
	}
	return writeChromeFile(path, all)
}

func writeChromeFile(path string, f chromeFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

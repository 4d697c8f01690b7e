package core

import (
	"sync/atomic"

	"repro/internal/vtime"
)

// NodeStats is one node's protocol-event counters for one run. Fields
// are plain int64s updated with atomic adds into a per-node array the
// engine pre-allocates, so counting is allocation-free on every path;
// the events themselves are deterministic simulation actions, so
// repeated runs of the same configuration produce identical counts.
type NodeStats struct {
	// Faults counts simulated page faults (the page-fault protocols'
	// access detection).
	Faults int64 `json:"faults"`
	// Fetches counts pages fetched from their home node, including the
	// update protocol's refreshes.
	Fetches int64 `json:"fetches"`
	// CacheHits counts accesses resolved from an already-cached page on
	// a protocol slow path.
	CacheHits int64 `json:"cache_hits"`
	// InvalidatedPages counts cached pages dropped by monitor-entry
	// invalidations and capacity evictions.
	InvalidatedPages int64 `json:"invalidated_pages"`
	// FlushMessages and FlushBytes count the aggregated diff messages a
	// node ships to home nodes, and their payload bytes.
	FlushMessages int64 `json:"flush_messages"`
	FlushBytes    int64 `json:"flush_bytes"`
	// BatchedFlushes counts the flush messages shipped under java_hlrc's
	// batched-diff cost model (a subset of FlushMessages).
	BatchedFlushes int64 `json:"batched_flushes"`
	// MonitorAcquires counts monitor entries by threads on this node;
	// RemoteAcquires is the subset whose lock word is homed elsewhere.
	MonitorAcquires int64 `json:"monitor_acquires"`
	RemoteAcquires  int64 `json:"remote_acquires"`
	// BarrierWaitCycles is the virtual CPU cycles this node's threads
	// spent blocked in barriers (release broadcast minus own arrival).
	BarrierWaitCycles int64 `json:"barrier_wait_cycles"`
	// Migrations counts threads that migrated away from this node.
	Migrations int64 `json:"migrations"`
	// LocalityChecks counts java_ic's in-line access checks.
	LocalityChecks int64 `json:"locality_checks"`
	// MprotectCalls counts simulated mprotect system calls (mapping
	// fetched pages, re-protecting invalidated ones).
	MprotectCalls int64 `json:"mprotect_calls"`
}

// addNodeStats sums two counter snapshots. Value semantics on purpose:
// the engine's live counters are all-atomic, and summing through a
// pointer receiver would be a plain access to atomically-updated
// memory. Snapshots (from loadNodeStats) are private copies and safe
// to read plainly.
func addNodeStats(a, b NodeStats) NodeStats {
	a.Faults += b.Faults
	a.Fetches += b.Fetches
	a.CacheHits += b.CacheHits
	a.InvalidatedPages += b.InvalidatedPages
	a.FlushMessages += b.FlushMessages
	a.FlushBytes += b.FlushBytes
	a.BatchedFlushes += b.BatchedFlushes
	a.MonitorAcquires += b.MonitorAcquires
	a.RemoteAcquires += b.RemoteAcquires
	a.BarrierWaitCycles += b.BarrierWaitCycles
	a.Migrations += b.Migrations
	a.LocalityChecks += b.LocalityChecks
	a.MprotectCalls += b.MprotectCalls
	return a
}

// nodeStatNames is the canonical counter order, matching the JSON tags.
var nodeStatNames = []string{
	"faults", "fetches", "cache_hits", "invalidated_pages",
	"flush_messages", "flush_bytes", "batched_flushes",
	"monitor_acquires", "remote_acquires", "barrier_wait_cycles",
	"migrations", "locality_checks", "mprotect_calls",
}

// NodeStatNames lists the NodeStats counter names (the JSON tags) in
// canonical order — the vocabulary of hyperion-sweep's -columns flag.
func NodeStatNames() []string { return append([]string(nil), nodeStatNames...) }

// Get returns a counter by its canonical name.
func (s NodeStats) Get(name string) (int64, bool) {
	switch name {
	case "faults":
		return s.Faults, true
	case "fetches":
		return s.Fetches, true
	case "cache_hits":
		return s.CacheHits, true
	case "invalidated_pages":
		return s.InvalidatedPages, true
	case "flush_messages":
		return s.FlushMessages, true
	case "flush_bytes":
		return s.FlushBytes, true
	case "batched_flushes":
		return s.BatchedFlushes, true
	case "monitor_acquires":
		return s.MonitorAcquires, true
	case "remote_acquires":
		return s.RemoteAcquires, true
	case "barrier_wait_cycles":
		return s.BarrierWaitCycles, true
	case "migrations":
		return s.Migrations, true
	case "locality_checks":
		return s.LocalityChecks, true
	case "mprotect_calls":
		return s.MprotectCalls, true
	}
	return 0, false
}

// loadNodeStats snapshots one node's live counters with atomic loads.
func loadNodeStats(src *NodeStats) NodeStats {
	return NodeStats{
		Faults:            atomic.LoadInt64(&src.Faults),
		Fetches:           atomic.LoadInt64(&src.Fetches),
		CacheHits:         atomic.LoadInt64(&src.CacheHits),
		InvalidatedPages:  atomic.LoadInt64(&src.InvalidatedPages),
		FlushMessages:     atomic.LoadInt64(&src.FlushMessages),
		FlushBytes:        atomic.LoadInt64(&src.FlushBytes),
		BatchedFlushes:    atomic.LoadInt64(&src.BatchedFlushes),
		MonitorAcquires:   atomic.LoadInt64(&src.MonitorAcquires),
		RemoteAcquires:    atomic.LoadInt64(&src.RemoteAcquires),
		BarrierWaitCycles: atomic.LoadInt64(&src.BarrierWaitCycles),
		Migrations:        atomic.LoadInt64(&src.Migrations),
		LocalityChecks:    atomic.LoadInt64(&src.LocalityChecks),
		MprotectCalls:     atomic.LoadInt64(&src.MprotectCalls),
	}
}

// RunStats is the per-run engine counter report: one NodeStats per node
// plus their sum, labeled with the protocol that produced them. It
// travels on harness.Result into sweep results, the on-disk cache and
// the experiment server's /v1/results, so protocol behavior is
// explainable from stored data alone.
type RunStats struct {
	Protocol string      `json:"protocol"`
	Nodes    int         `json:"nodes"`
	PerNode  []NodeStats `json:"per_node"`
	Total    NodeStats   `json:"total"`
}

// RunStats snapshots the engine's per-node counters. Safe to call
// concurrently with a running simulation; call after the run for final
// numbers.
func (e *Engine) RunStats() RunStats {
	rs := RunStats{
		Protocol: e.proto.Name(),
		Nodes:    len(e.runStats),
		PerNode:  make([]NodeStats, len(e.runStats)),
	}
	for i := range e.runStats {
		rs.PerNode[i] = loadNodeStats(&e.runStats[i])
		rs.Total = addNodeStats(rs.Total, rs.PerNode[i])
	}
	return rs
}

// NoteMonitorAcquire counts a monitor entry by a thread on node; remote
// marks a lock word homed on another node. Exported for the jmm package.
func (e *Engine) NoteMonitorAcquire(node int, remote bool) {
	atomic.AddInt64(&e.runStats[node].MonitorAcquires, 1)
	if remote {
		atomic.AddInt64(&e.runStats[node].RemoteAcquires, 1)
	}
}

// NoteBarrierWait charges virtual time a thread on node spent blocked in
// a barrier, converted to CPU cycles. Exported for the jmm package.
func (e *Engine) NoteBarrierWait(node int, d vtime.Duration) {
	if d <= 0 {
		return
	}
	cyc := int64(d) / int64(e.mach.Cycle())
	atomic.AddInt64(&e.runStats[node].BarrierWaitCycles, cyc)
}

// NoteMigration counts a thread migrating away from node. Exported for
// the threads package.
func (e *Engine) NoteMigration(node int) {
	atomic.AddInt64(&e.runStats[node].Migrations, 1)
}

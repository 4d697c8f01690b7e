package core

import (
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// NodeStats is one node's protocol-event counters; the live copies are
// owned by the cluster's stats.Counters.
type NodeStats = stats.NodeStats

// NodeStatNames lists the NodeStats counter names (the JSON tags) in
// canonical order — the vocabulary of hyperion-sweep's -columns flag.
func NodeStatNames() []string { return stats.NodeStatNames() }

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

// RunStats snapshots the run's per-node counters. Safe to call
// concurrently with a running simulation; call after the run for final
// numbers.
func (e *Engine) RunStats() RunStats {
	perNode := e.cnt.PerNode()
	return RunStats{
		Protocol: e.proto.Name(),
		Nodes:    len(perNode),
		PerNode:  perNode,
		Total:    stats.Total(perNode),
	}
}

// NoteMonitorAcquire counts a monitor entry by a thread on node; remote
// marks a lock word homed on another node. Exported for the jmm package.
func (e *Engine) NoteMonitorAcquire(node int, remote bool) {
	ns := e.cnt.Node(node)
	atomic.AddInt64(&ns.MonitorAcquires, 1)
	if remote {
		atomic.AddInt64(&ns.RemoteAcquires, 1)
	}
}

// NoteBarrierWait charges virtual time a thread on node spent blocked in
// a barrier, converted to CPU cycles. Exported for the jmm package.
func (e *Engine) NoteBarrierWait(node int, d vtime.Duration) {
	if d <= 0 {
		return
	}
	cyc := int64(d) / int64(e.mach.Cycle())
	atomic.AddInt64(&e.cnt.Node(node).BarrierWaitCycles, cyc)
}

// NoteMigration counts a thread migrating away from node. Exported for
// the threads package.
func (e *Engine) NoteMigration(node int) {
	atomic.AddInt64(&e.cnt.Node(node).Migrations, 1)
}

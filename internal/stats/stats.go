// Package stats holds the protocol-event counters that the paper's
// discussion section (§4.3) reasons about: locality checks performed by
// java_ic, page faults and mprotect calls performed by java_pf, page
// fetches, diff traffic, and monitor activity. A run has one store of
// them (Counters): one NodeStats per node, which every event site
// increments, and two cluster-level counts. The per-node report
// (core.RunStats) and the cluster-wide one (Snapshot) are both read
// from it.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"
)

// NodeStats is one node's protocol-event counters for one run. Fields
// are plain int64s; the live copies inside a Counters are updated and
// read with sync/atomic only, so counting is allocation-free on every
// path. The events themselves are deterministic simulation actions, so
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

// nodeField is one row of the counter table: everything the repo knows
// about a per-node counter besides its declaration in NodeStats.
type nodeField struct {
	// name is the counter's canonical name: its JSON tag, its CSV column
	// and its row in hyperion-run -counters.
	name string
	// statsName is its name in the cluster-wide Snapshot ("" when the
	// Snapshot does not carry it), csv its legacy short CSV column.
	statsName, csv string
	// node and sum locate the counter in a NodeStats and its sum in a
	// Snapshot (noSum exactly when statsName is ""). Offsets rather than
	// accessor funcs: a pointer handed to a func value escapes, which
	// would put one allocation into every Get, Total and Snapshot.
	node, sum uintptr
}

const noSum = ^uintptr(0)

// in returns the row's counter inside n; sumIn its sum inside s. Every
// field of both structs is an int64 (TestFieldTableCoversStructs).
func (f nodeField) in(n *NodeStats) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(n), f.node))
}

func (f nodeField) sumIn(s *Snapshot) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(s), f.sum))
}

// nodeFields lists the per-node counters in canonical order. Get,
// NodeStatNames, the per-node read-out, the cluster-wide sum and its
// names are all loops over it; README's counter glossary is checked
// against it.
var nodeFields = []nodeField{
	{"faults", "page_faults", "faults", unsafe.Offsetof(NodeStats{}.Faults), unsafe.Offsetof(Snapshot{}.PageFaults)},
	{"fetches", "page_fetches", "fetches", unsafe.Offsetof(NodeStats{}.Fetches), unsafe.Offsetof(Snapshot{}.PageFetches)},
	{"cache_hits", "cache_hits", "", unsafe.Offsetof(NodeStats{}.CacheHits), unsafe.Offsetof(Snapshot{}.CacheHits)},
	{"invalidated_pages", "invalidations", "", unsafe.Offsetof(NodeStats{}.InvalidatedPages), unsafe.Offsetof(Snapshot{}.Invalidations)},
	{"flush_messages", "diff_messages", "", unsafe.Offsetof(NodeStats{}.FlushMessages), unsafe.Offsetof(Snapshot{}.DiffMessages)},
	{"flush_bytes", "diff_bytes", "", unsafe.Offsetof(NodeStats{}.FlushBytes), unsafe.Offsetof(Snapshot{}.DiffBytes)},
	{"batched_flushes", "", "", unsafe.Offsetof(NodeStats{}.BatchedFlushes), noSum},
	{"monitor_acquires", "monitor_acquires", "", unsafe.Offsetof(NodeStats{}.MonitorAcquires), unsafe.Offsetof(Snapshot{}.MonitorAcquires)},
	{"remote_acquires", "remote_acquires", "", unsafe.Offsetof(NodeStats{}.RemoteAcquires), unsafe.Offsetof(Snapshot{}.RemoteAcquires)},
	{"barrier_wait_cycles", "", "", unsafe.Offsetof(NodeStats{}.BarrierWaitCycles), noSum},
	{"migrations", "migrations", "", unsafe.Offsetof(NodeStats{}.Migrations), unsafe.Offsetof(Snapshot{}.Migrations)},
	{"locality_checks", "locality_checks", "checks", unsafe.Offsetof(NodeStats{}.LocalityChecks), unsafe.Offsetof(Snapshot{}.LocalityChecks)},
	{"mprotect_calls", "mprotect_calls", "mprotects", unsafe.Offsetof(NodeStats{}.MprotectCalls), unsafe.Offsetof(Snapshot{}.MprotectCalls)},
}

// NodeStatNames lists the NodeStats counter names (the JSON tags) in
// canonical order — the vocabulary of hyperion-sweep's -columns flag.
func NodeStatNames() []string {
	names := make([]string, len(nodeFields))
	for i, f := range nodeFields {
		names[i] = f.name
	}
	return names
}

// Get returns a counter by its canonical name or its legacy CSV alias
// (checks, faults, mprotects, fetches).
func (s NodeStats) Get(name string) (int64, bool) {
	for _, f := range nodeFields {
		if name == f.name || (f.csv != "" && name == f.csv) {
			return *f.in(&s), true
		}
	}
	return 0, false
}

// Total sums per-node snapshots field by field.
func Total(nodes []NodeStats) NodeStats {
	var t NodeStats
	for i := range nodes {
		for _, f := range nodeFields {
			*f.in(&t) += *f.in(&nodes[i])
		}
	}
	return t
}

// Counters is the counter store of one run: the live per-node counters
// and the two events that belong to no node. The zero value is ready to
// hand to cluster.New, which sizes it. All methods are safe for
// concurrent use once sized.
type Counters struct {
	nodes  []NodeStats // live: sync/atomic access only
	rpcs   atomic.Int64
	spawns atomic.Int64
}

// SetNodes allocates the per-node counters. A store counts for one
// cluster, so sizing it twice is an error.
func (c *Counters) SetNodes(n int) error {
	if c.nodes != nil {
		return fmt.Errorf("stats: counters already count for a %d-node cluster", len(c.nodes))
	}
	c.nodes = make([]NodeStats, n)
	return nil
}

// Node returns node i's live counters. They are shared with every
// thread of the run: update and read them through sync/atomic only
// (hyperion-vet's atomicfield check holds each package to that).
func (c *Counters) Node(i int) *NodeStats { return &c.nodes[i] }

// AddRPCs and AddSpawns record the cluster-level events.
func (c *Counters) AddRPCs(n int64)   { c.rpcs.Add(n) }
func (c *Counters) AddSpawns(n int64) { c.spawns.Add(n) }

// PerNode copies every node's counters out with atomic loads.
func (c *Counters) PerNode() []NodeStats {
	out := make([]NodeStats, len(c.nodes))
	for i := range c.nodes {
		for _, f := range nodeFields {
			*f.in(&out[i]) = atomic.LoadInt64(f.in(&c.nodes[i]))
		}
	}
	return out
}

// Snapshot is the cluster-wide view of the counters at one instant: the
// per-node counters summed over the nodes, under the names the public
// Stats API has always used, plus the RPC and spawn counts.
type Snapshot struct {
	LocalityChecks  int64
	PageFaults      int64
	MprotectCalls   int64
	PageFetches     int64
	CacheHits       int64
	Invalidations   int64 // cache entries dropped
	DiffMessages    int64
	DiffBytes       int64
	MonitorAcquires int64
	RemoteAcquires  int64
	RPCs            int64
	Spawns          int64
	Migrations      int64
}

// Snapshot sums the current counter values over the nodes.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{RPCs: c.rpcs.Load(), Spawns: c.spawns.Load()}
	for i := range c.nodes {
		for _, f := range nodeFields {
			if f.sum != noSum {
				*f.sumIn(&s) += atomic.LoadInt64(f.in(&c.nodes[i]))
			}
		}
	}
	return s
}

// Sub returns the per-field difference s - o, for measuring one phase of
// a run.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	s.RPCs -= o.RPCs
	s.Spawns -= o.Spawns
	for _, f := range nodeFields {
		if f.sum != noSum {
			*f.sumIn(&s) -= *f.sumIn(&o)
		}
	}
	return s
}

// Field is one named value of a Snapshot.
type Field struct {
	Name  string
	Value int64
}

// Fields returns the snapshot as name/value pairs sorted by name, for
// table output.
func (s Snapshot) Fields() []Field {
	out := []Field{{"rpcs", s.RPCs}, {"spawns", s.Spawns}}
	for _, f := range nodeFields {
		if f.sum != noSum {
			out = append(out, Field{f.statsName, *f.sumIn(&s)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the non-zero counters compactly.
func (s Snapshot) String() string {
	var b strings.Builder
	first := true
	for _, f := range s.Fields() {
		if f.Value == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", f.Name, f.Value)
		first = false
	}
	if first {
		return "(no events)"
	}
	return b.String()
}

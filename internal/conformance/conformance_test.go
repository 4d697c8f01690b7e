package conformance

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pagestats"
	"repro/internal/stats"
)

// Every registered protocol must be observationally equivalent on every
// workload of the suite. The protocol axis is the live registry, so a
// protocol registered tomorrow is covered here without editing this
// file.
func TestProtocolsAreObservationallyEquivalent(t *testing.T) {
	protos := core.ProtocolNames()
	if len(protos) < 4 {
		t.Fatalf("registry has %d protocols (%v), want at least the four shipped ones", len(protos), protos)
	}
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base, err := Execute(w, protos[0])
			if err != nil {
				t.Fatalf("%s: %v", protos[0], err)
			}
			if !base.Valid {
				t.Fatalf("%s failed its own validation: %s", protos[0], base.Summary)
			}
			for _, p := range protos[1:] {
				obs, err := Execute(w, p)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if diffs := Diff(w, base, obs); len(diffs) > 0 {
					for _, d := range diffs {
						t.Errorf("%s vs %s: %s", base.Protocol, obs.Protocol, d)
					}
				}
			}
		})
	}
}

// A protocol must also be equivalent to itself across repeated runs:
// if a workload is not reproducible under one protocol, its cross-
// protocol comparisons are meaningless. Guards the suite against
// accidentally introducing scheduler-dependent workloads.
func TestWorkloadsAreReproducible(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a, err := Execute(w, "java_pf")
			if err != nil {
				t.Fatal(err)
			}
			b, err := Execute(w, "java_pf")
			if err != nil {
				t.Fatal(err)
			}
			if diffs := Diff(w, a, b); len(diffs) > 0 {
				for _, d := range diffs {
					t.Errorf("run-to-run: %s", d)
				}
			}
		})
	}
}

// The engine counters are not observationally protocol-independent
// (they measure cost, which is the whole point of having four
// protocols), but for a fixed protocol the *event* counters must
// reproduce exactly: each fault, fetch, flush and invalidation is
// determined by the workload's data flow. The one exception is
// BarrierWaitCycles, which measures virtual-time gaps — and monitor
// acquisition order under contention follows host scheduling (the same
// reason Pi compares rounded summaries and Figure 4 takes medians), so
// the waits shift a few percent run to run. Where threads of one node
// contend for a monitor (Workload.HostScheduledMonitors) the same grant
// order also decides how many cached pages each entry finds, so there
// the invalidation and mprotect counts are left out too; ROADMAP item 1
// removes both exclusions. Every counter surface downstream — cache
// JSON, CSV, /v1/results — inherits its trustworthiness from this
// property.
func TestRunStatsAreReproducible(t *testing.T) {
	protos := core.ProtocolNames()
	for _, w := range Workloads() {
		w := w
		// strip zeroes the counters that depend on host scheduling,
		// keeping every other one for exact comparison.
		strip := func(ns *core.NodeStats) {
			ns.BarrierWaitCycles = 0
			if w.HostScheduledMonitors {
				ns.InvalidatedPages, ns.MprotectCalls = 0, 0
			}
		}
		eventCounters := func(rs core.RunStats) core.RunStats {
			strip(&rs.Total)
			rs.PerNode = append([]core.NodeStats(nil), rs.PerNode...)
			for i := range rs.PerNode {
				strip(&rs.PerNode[i])
			}
			return rs
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range protos {
				a, err := Execute(w, p)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				b, err := Execute(w, p)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if !reflect.DeepEqual(eventCounters(a.Stats), eventCounters(b.Stats)) {
					t.Errorf("%s: run-to-run counter drift:\n  run1 total %+v\n  run2 total %+v",
						p, a.Stats.Total, b.Stats.Total)
				}
				if a.Stats.Total.BarrierWaitCycles < 0 || b.Stats.Total.BarrierWaitCycles < 0 {
					t.Errorf("%s: negative barrier wait cycles", p)
				}
				if a.Stats.Protocol != p || a.Stats.Nodes != w.Nodes || len(a.Stats.PerNode) != w.Nodes {
					t.Errorf("%s: stats shape %q/%d nodes, want %q/%d", p, a.Stats.Protocol, a.Stats.Nodes, p, w.Nodes)
				}
				// A run that did real cross-node work must show it.
				if a.Stats.Total.Fetches == 0 {
					t.Errorf("%s: zero page fetches recorded for a distributed workload", p)
				}
			}
		})
	}
}

// TestSnapshotIsSumOfNodes holds the two read-outs of the counter store
// against each other for every workload under every protocol: each
// cluster-wide Stats field is the sum of one per-node counter (the
// pairing is spelled out here, independently of the stats package's
// table), and the two counts that belong to no node agree with what
// they count — one spawn per worker, and two network messages (request
// and reply) per RPC, every RPC being a page fetch, a diff flush or a
// volatile access.
func TestSnapshotIsSumOfNodes(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range core.ProtocolNames() {
				o, err := Execute(w, p)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				var sum core.NodeStats
				for _, ns := range o.Stats.PerNode {
					sum.Faults += ns.Faults
					sum.Fetches += ns.Fetches
					sum.CacheHits += ns.CacheHits
					sum.InvalidatedPages += ns.InvalidatedPages
					sum.FlushMessages += ns.FlushMessages
					sum.FlushBytes += ns.FlushBytes
					sum.BatchedFlushes += ns.BatchedFlushes
					sum.MonitorAcquires += ns.MonitorAcquires
					sum.RemoteAcquires += ns.RemoteAcquires
					sum.BarrierWaitCycles += ns.BarrierWaitCycles
					sum.Migrations += ns.Migrations
					sum.LocalityChecks += ns.LocalityChecks
					sum.MprotectCalls += ns.MprotectCalls
				}
				if o.Stats.Total != sum {
					t.Errorf("%s: RunStats.Total %+v is not the per-node sum %+v", p, o.Stats.Total, sum)
				}
				ev := o.Events
				want := stats.Snapshot{
					LocalityChecks:  sum.LocalityChecks,
					PageFaults:      sum.Faults,
					MprotectCalls:   sum.MprotectCalls,
					PageFetches:     sum.Fetches,
					CacheHits:       sum.CacheHits,
					Invalidations:   sum.InvalidatedPages,
					DiffMessages:    sum.FlushMessages,
					DiffBytes:       sum.FlushBytes,
					MonitorAcquires: sum.MonitorAcquires,
					RemoteAcquires:  sum.RemoteAcquires,
					Migrations:      sum.Migrations,
					RPCs:            ev.RPCs,
					Spawns:          int64(w.Workers),
				}
				if ev != want {
					t.Errorf("%s: Stats %+v, want the per-node sums and one spawn per worker %+v", p, ev, want)
				}
				if ev.RPCs < sum.Fetches+sum.FlushMessages || o.Messages < 2*ev.RPCs {
					t.Errorf("%s: %d rpcs for %d fetches + %d flushes over %d network messages",
						p, ev.RPCs, sum.Fetches, sum.FlushMessages, o.Messages)
				}
			}
		})
	}
}

// The per-page sharing reports inherit the same intra-protocol
// contract as the counters, in its strongest form: every page-event
// tally, node bitmask and write envelope is determined by the
// workload's data flow, so two runs must serialize to bit-identical
// JSON — the reproducibility claim hyperion-run -pagestats makes, here
// for every workload under every registered protocol. Each report must
// also pass the schema validator the CLI and CI apply to exports. For
// Workload.HostScheduledMonitors the per-page invalidation tally is the
// one field left out of the comparison (not of the validation).
func TestPageStatsAreBitIdentical(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		// comparable serializes the fields of a report that must repeat.
		comparable := func(t *testing.T, r *pagestats.Report) []byte {
			c := *r
			if w.HostScheduledMonitors {
				c.Pages = append([]pagestats.PageStat(nil), r.Pages...)
				for i := range c.Pages {
					c.Pages[i].Invalidations = 0
				}
			}
			out, err := json.Marshal(&c)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range core.ProtocolNames() {
				a, err := Execute(w, p)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				b, err := Execute(w, p)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if ja, jb := comparable(t, a.PageStats), comparable(t, b.PageStats); !bytes.Equal(ja, jb) {
					t.Errorf("%s: page reports differ run to run:\n  run1 %s\n  run2 %s", p, ja, jb)
				}
				full, err := json.Marshal(a.PageStats)
				if err != nil {
					t.Fatal(err)
				}
				if err := pagestats.Validate(full); err != nil {
					t.Errorf("%s: report fails schema validation: %v", p, err)
				}
				if a.PageStats.PagesTracked == 0 {
					t.Errorf("%s: distributed workload tracked no pages", p)
				}
			}
		})
	}
}

// The suite must actually have teeth: a deliberately perturbed
// observation may not pass Diff.
func TestDiffDetectsMismatches(t *testing.T) {
	w := Workloads()[0]
	for _, w2 := range Workloads() {
		if w2.Name == "pi-slots" {
			w = w2
		}
	}
	a, err := Execute(w, "java_ic")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(w, "java_pf")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one heap byte and one read.
	for p, img := range b.Heap {
		if len(img) > 0 {
			img[0] ^= 0xff
			b.Heap[p] = img
			break
		}
	}
	if len(b.Reads) > 0 && len(b.Reads[0]) > 0 {
		b.Reads[0][0] += 1
	}
	if diffs := Diff(w, a, b); len(diffs) == 0 {
		t.Fatal("Diff reported no mismatch on corrupted observation")
	}
}

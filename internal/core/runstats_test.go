package core

import (
	"encoding/json"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

func TestNodeStatNamesAndGet(t *testing.T) {
	names := NodeStatNames()
	if len(names) == 0 {
		t.Fatal("no counter names")
	}
	// Every advertised name resolves, and distinct fields stay distinct.
	s := NodeStats{Faults: 1, Fetches: 2, CacheHits: 3, InvalidatedPages: 4,
		FlushMessages: 5, FlushBytes: 6, BatchedFlushes: 7, MonitorAcquires: 8,
		RemoteAcquires: 9, BarrierWaitCycles: 10, Migrations: 11,
		LocalityChecks: 12, MprotectCalls: 13}
	seen := map[int64]string{}
	for _, n := range names {
		v, ok := s.Get(n)
		if !ok {
			t.Fatalf("Get(%q) not found", n)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("counters %q and %q map to the same field", prev, n)
		}
		seen[v] = n
	}
	if len(seen) != 13 {
		t.Fatalf("NodeStatNames covers %d of 13 fields", len(seen))
	}
	if _, ok := s.Get("bogus"); ok {
		t.Error("unknown counter name resolved")
	}
	// The JSON field names are exactly the advertised counter names — the
	// contract that makes cache JSON, CSV columns and /v1/results agree.
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		want, _ := s.Get(n)
		if m[n] != want {
			t.Errorf("JSON field %q = %d, want %d", n, m[n], want)
		}
	}
}

func TestRunStatsCountsEngineEvents(t *testing.T) {
	e := newTestEngine(t, 2, "java_pf")
	home := e.NewCtx(0, 0)
	addr, err := e.Alloc(home, 0, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	remote := e.NewCtx(1, 0)
	remote.PutI64(addr, 777) // fault + fetch + mprotect on node 1
	// A second thread on the same node misses its own fast path but finds
	// the page resident in the node cache: that is the cache-hit counter.
	remote2 := e.NewCtx(1, 1)
	remote2.GetI64(addr)
	e.Release(remote) // one flush message home
	e.Acquire(remote) // invalidates the cached page

	rs := e.RunStats()
	if rs.Protocol != "java_pf" || rs.Nodes != 2 || len(rs.PerNode) != 2 {
		t.Fatalf("RunStats shape %+v", rs)
	}
	n1 := rs.PerNode[1]
	if n1.Faults != 1 || n1.Fetches != 1 || n1.CacheHits != 1 {
		t.Errorf("node1 access counters %+v", n1)
	}
	if n1.FlushMessages != 1 || n1.FlushBytes <= 0 {
		t.Errorf("node1 flush counters %+v", n1)
	}
	if n1.InvalidatedPages != 1 {
		t.Errorf("node1 invalidated = %d", n1.InvalidatedPages)
	}
	// The home node did nothing remote.
	if rs.PerNode[0].Faults != 0 || rs.PerNode[0].FlushMessages != 0 {
		t.Errorf("node0 counters %+v", rs.PerNode[0])
	}
	// Total is the per-node sum.
	if rs.Total != n1 {
		t.Errorf("Total %+v != node 1's counters %+v, the only non-zero ones", rs.Total, n1)
	}
	// The snapshot is a copy: later events must not mutate it.
	before := rs.Total.Fetches
	remote.GetI64(addr)
	if rs.Total.Fetches != before {
		t.Error("RunStats snapshot aliases live counters")
	}
}

func TestRunStatsMonitorBarrierMigrationNotes(t *testing.T) {
	e := newTestEngine(t, 2, "java_ic")
	e.NoteMonitorAcquire(0, false)
	e.NoteMonitorAcquire(1, true)
	e.NoteMigration(1)
	cycle := e.Machine().Cycle()
	e.NoteBarrierWait(0, 10*vtime.Duration(cycle))
	e.NoteBarrierWait(0, -5) // negative gaps are dropped, not subtracted
	rs := e.RunStats()
	if rs.PerNode[0].MonitorAcquires != 1 || rs.PerNode[0].RemoteAcquires != 0 {
		t.Errorf("node0 monitor counters %+v", rs.PerNode[0])
	}
	if rs.PerNode[1].MonitorAcquires != 1 || rs.PerNode[1].RemoteAcquires != 1 {
		t.Errorf("node1 monitor counters %+v", rs.PerNode[1])
	}
	if rs.PerNode[1].Migrations != 1 {
		t.Errorf("migrations = %d", rs.PerNode[1].Migrations)
	}
	if rs.PerNode[0].BarrierWaitCycles != 10 {
		t.Errorf("barrier wait cycles = %d, want 10", rs.PerNode[0].BarrierWaitCycles)
	}
}

// TestDisabledTracerAllocatesNothing pins the observability bargain:
// with no tracer attached, the counter and trace hooks on the hot access
// path must not allocate. A regression here would show up as a
// simulation slowdown on every untraced run.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	e := newTestEngine(t, 2, "java_pf")
	ctx := e.NewCtx(0, 0)
	if e.Tracer() != nil {
		t.Fatal("fresh engine has a tracer")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.traceEvent(ctx.clock.Now(), 0, ctx.tid, trace.EvFault, 1, 0)
		e.NoteMonitorAcquire(0, true)
		e.NoteBarrierWait(0, 100)
		e.NoteMigration(0)
	}); avg != 0 {
		t.Fatalf("disabled-tracer hooks allocate %.1f per run", avg)
	}
}

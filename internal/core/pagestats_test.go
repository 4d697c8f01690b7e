package core

import (
	"testing"

	"repro/internal/pages"
	"repro/internal/pagestats"
)

// TestPageProfilerObservesEngineEvents drives the same little scenario
// as the RunStats test with a profiler attached and checks that every
// hook site reported: fault, fetch, diff-write and invalidation all
// land on the right page with the right attribution.
func TestPageProfilerObservesEngineEvents(t *testing.T) {
	e := newTestEngine(t, 2, "java_pf")
	prof := pagestats.New()
	if err := e.SetPageProfiler(prof); err != nil {
		t.Fatal(err)
	}
	if e.PageProfiler() != prof {
		t.Fatal("PageProfiler did not return the attached profiler")
	}
	home := e.NewCtx(0, 0)
	addr, err := e.Alloc(home, 0, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	remote := e.NewCtx(1, 0)
	remote.PutI64(addr, 777) // fault + fetch on node 1
	e.Release(remote)        // flush: node 1 wrote bytes [off,off+8) of the page
	e.Acquire(remote)        // invalidates node 1's cached copy

	r := prof.Report()
	if r.Nodes != 2 || r.PageSize != e.Space().PageSize() {
		t.Fatalf("report geometry %+v", r)
	}
	if len(r.Pages) != 1 {
		t.Fatalf("tracked %d pages, want 1", len(r.Pages))
	}
	s := r.Pages[0]
	if s.Page != uint64(e.Space().PageOf(addr)) {
		t.Errorf("tracked page %d, want %d", s.Page, e.Space().PageOf(addr))
	}
	if s.Home != 0 {
		t.Errorf("home = %d, want 0", s.Home)
	}
	if s.Faults != 1 || s.Fetches != 1 || s.Invalidations != 1 {
		t.Errorf("counters %+v", s)
	}
	if s.DiffBytes != 8 {
		t.Errorf("diff bytes = %d, want 8", s.DiffBytes)
	}
	if len(s.Writers) != 1 || s.Writers[0] != 1 {
		t.Errorf("writers %v, want [1]", s.Writers)
	}
	if len(s.WriteRanges) != 1 || s.WriteRanges[0].Hi-s.WriteRanges[0].Lo != 8 {
		t.Errorf("write ranges %+v", s.WriteRanges)
	}
	// One remote node: the page is private from the DSM's point of view.
	if s.Class != pagestats.ClassPrivate {
		t.Errorf("class %q, want private", s.Class)
	}
}

// TestPageProfilerSeesEvictions covers the capacity-eviction
// invalidation path, which bypasses InvalidateCache.
func TestPageProfilerSeesEvictions(t *testing.T) {
	e := newCappedEngine(t, 2, "java_pf") // cache capacity: 2 pages
	prof := pagestats.New()
	if err := e.SetPageProfiler(prof); err != nil {
		t.Fatal(err)
	}
	home := e.NewCtx(0, 0)
	ps := e.Space().PageSize()
	addr, err := e.Alloc(home, 0, 3*ps, ps)
	if err != nil {
		t.Fatal(err)
	}
	remote := e.NewCtx(1, 0)
	for i := 0; i < 3; i++ {
		remote.GetI64(addr + pages.Addr(i*ps)) // third fetch evicts the first page
	}
	r := prof.Report()
	var invals int64
	for _, s := range r.Pages {
		invals += s.Invalidations
	}
	if invals != 1 {
		t.Fatalf("eviction invalidations = %d, want 1 (report %+v)", invals, r.Pages)
	}
}

// TestDisabledPageProfilerAllocatesNothing pins the opt-in bargain: a
// run with no profiler attached must not allocate at the hook sites.
// The loop exercises the hottest instrumented paths — the cache-hit
// access path and the empty-log flush — with profiling disabled.
func TestDisabledPageProfilerAllocatesNothing(t *testing.T) {
	e := newTestEngine(t, 2, "java_pf")
	if e.PageProfiler() != nil {
		t.Fatal("fresh engine has a page profiler")
	}
	home := e.NewCtx(0, 0)
	addr, err := e.Alloc(home, 0, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	remote := e.NewCtx(1, 0)
	remote.GetI64(addr) // fault once so later accesses are cache hits
	pg := e.Space().PageOf(addr)
	if avg := testing.AllocsPerRun(1000, func() {
		e.proto.Access(remote, pg, false) // cache-hit path
		e.proto.Access(home, pg, true)    // home fast path
		e.flushHomes(remote, false)       // empty write log
	}); avg != 0 {
		t.Fatalf("disabled-profiler hooks allocate %.1f per run", avg)
	}
}

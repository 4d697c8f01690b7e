package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/vtime"
)

func fakeResult(p Point, seconds float64) harness.Result {
	r := harness.Result{
		App:      p.App,
		Cluster:  p.Cluster,
		Nodes:    p.Nodes,
		Workers:  p.Nodes * p.ThreadsPerNode,
		Protocol: p.Protocol,
		Time:     vtime.Time(seconds * float64(vtime.Second)),
		Check:    apps.Check{Summary: "ok", Valid: true},
		Stats:    stats.Snapshot{PageFetches: 7, DiffBytes: 1234},
		Messages: 42,
		Bytes:    9000,
	}
	r.RunStats.PerNode = []core.NodeStats{{Faults: 11, Fetches: 7, FlushBytes: 512}}
	r.RunStats.Total = core.NodeStats{Faults: 11, Fetches: 7, FlushBytes: 512}
	return r
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := Point{App: "jacobi", Cluster: "myrinet", Protocol: "java_pf", Nodes: 4, ThreadsPerNode: 1, Repeats: 1,
		Override: Override{Label: "cap=16", CacheCapacityPages: intp(16)}}
	if _, ok := c.Get(p); ok {
		t.Fatal("hit on empty cache")
	}
	want := fakeResult(p, 1.5)
	if err := c.Put(p, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(p)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache changed the result:\ngot  %#v\nwant %#v", got, want)
	}
	// The label is not part of the identity: a differently-labeled but
	// otherwise identical point hits the same entry.
	relabeled := p
	relabeled.Override.Label = "capacity-sixteen"
	if _, ok := c.Get(relabeled); !ok {
		t.Error("relabeled point missed")
	}
	// A genuinely different point misses.
	other := p
	other.Nodes = 5
	if _, ok := c.Get(other); ok {
		t.Error("different point hit")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestCacheSurvivesReopen is the resumability contract on the packed
// layout: everything Put before a close is served after a reopen.
func TestCacheSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := Point{App: "pi", Cluster: "sci", Protocol: "java_ic", Nodes: 2, ThreadsPerNode: 1, Repeats: 1}
	want := fakeResult(p, 0.5)
	if err := c.Put(p, want); err != nil {
		t.Fatal(err)
	}
	c.Close()

	r, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Get(p)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen: ok %v, result equal %v", ok, reflect.DeepEqual(got, want))
	}
}

func TestCacheRejectsCorruptAndStaleEntries(t *testing.T) {
	dir := t.TempDir()

	// Stale format version: written by a store speaking an older cache
	// version, invisible to today's cache.
	old, err := resultstore.Open(dir, resultstore.Options{Version: "hyperion-sweep-v0"})
	if err != nil {
		t.Fatal(err)
	}
	p := Point{App: "pi", Cluster: "sci", Protocol: "java_ic", Nodes: 2, ThreadsPerNode: 1, Repeats: 1}
	if err := old.Put(p.Key(), nil, []byte(`{"version":"hyperion-sweep-v0"}`)); err != nil {
		t.Fatal(err)
	}
	old.Close()

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(p); ok {
		t.Error("stale-version entry served")
	}

	// A torn append (crash mid-write) must surface as a miss after
	// reopen, not a crash — and must not take earlier entries with it.
	q := p
	q.Nodes = 4
	if err := c.Put(p, fakeResult(p, 0.25)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(q, fakeResult(q, 0.25)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get(q); ok {
		t.Error("torn entry served")
	}
	if _, ok := r.Get(p); !ok {
		t.Error("entry before the torn tail lost")
	}
}

func TestCacheEntries(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.Entries(); err != nil || len(got) != 0 {
		t.Fatalf("empty cache: entries %v, err %v", got, err)
	}
	// Insert out of natural order; Entries must come back sorted.
	pts := []Point{
		{App: "pi", Cluster: "sci", Protocol: "java_pf", Nodes: 4, ThreadsPerNode: 1, Repeats: 1},
		{App: "jacobi", Cluster: "sci", Protocol: "java_ic", Nodes: 2, ThreadsPerNode: 1, Repeats: 1},
		{App: "jacobi", Cluster: "myrinet", Protocol: "java_ic", Nodes: 8, ThreadsPerNode: 1, Repeats: 1},
		{App: "jacobi", Cluster: "myrinet", Protocol: "java_ic", Nodes: 2, ThreadsPerNode: 1, Repeats: 1},
	}
	for _, p := range pts {
		if err := c.Put(p, fakeResult(p, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// An entry whose payload does not decode must be skipped, not fail
	// the scan (mirrors the legacy cache's tolerance of corrupt files).
	bad := pts[0]
	bad.Nodes = 99
	badMeta := []byte(`{"app":"pi","cluster":"sci","protocol":"java_pf","nodes":99,"threads_per_node":1,"paper_scale":false,"repeats":1,"override":{}}`)
	if err := c.Store().Put(bad.Key(), badMeta, []byte("not json")); err != nil {
		t.Fatal(err)
	}

	got, err := c.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("Entries returned %d points, want %d", len(got), len(pts))
	}
	wantOrder := []string{"jacobi/myrinet/2", "jacobi/myrinet/8", "jacobi/sci/2", "pi/sci/4"}
	for i, e := range got {
		key := e.Point.App + "/" + e.Point.Cluster + "/" + strconv.Itoa(e.Point.Nodes)
		if key != wantOrder[i] {
			t.Fatalf("entry %d is %s, want %s", i, key, wantOrder[i])
		}
		if !reflect.DeepEqual(e.Result, fakeResult(e.Point, 1)) {
			t.Fatalf("entry %d result mutated", i)
		}
	}
}

func TestCacheQueryPushdown(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	apps := []string{"pi", "jacobi", "asp"}
	for _, app := range apps {
		for n := 1; n <= 8; n++ {
			p := Point{App: app, Cluster: "sci", Protocol: "java_pf", Nodes: n, ThreadsPerNode: 1, Repeats: 1}
			if err := c.Put(p, fakeResult(p, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := c.Store().ReadCounters()

	total, page, err := c.Query(Filter{App: "jacobi"}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 || len(page) != 3 {
		t.Fatalf("Query = total %d, page %d; want 8, 3", total, len(page))
	}
	for i, e := range page {
		if e.Point.App != "jacobi" || e.Point.Nodes != i+1 {
			t.Errorf("page[%d] = %s/%d, want jacobi/%d", i, e.Point.App, e.Point.Nodes, i+1)
		}
	}
	// Pushdown: only the page's 3 payloads were read, not the 24 records.
	after := c.Store().ReadCounters()
	if reads := after.RecordsRead - before.RecordsRead; reads != 3 {
		t.Errorf("query read %d payloads, want 3 (index pushdown)", reads)
	}

	// Offset walks the same ordering.
	_, page2, err := c.Query(Filter{App: "jacobi"}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2) != 3 || page2[0].Point.Nodes != 4 {
		t.Fatalf("offset page starts at nodes=%d, want 4", page2[0].Point.Nodes)
	}
	// Out-of-range offset is an empty page, not an error.
	total3, page3, err := c.Query(Filter{App: "jacobi"}, 100, 5)
	if err != nil || total3 != 8 || len(page3) != 0 {
		t.Fatalf("past-the-end Query = %d, %d, %v", total3, len(page3), err)
	}
}

func TestCacheConcurrentPutGetEntries(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n <= 16; n++ {
				p := Point{App: "pi", Cluster: "sci", Protocol: "java_ic",
					Nodes: w*100 + n, ThreadsPerNode: 1, Repeats: 1}
				if err := c.Put(p, fakeResult(p, 1)); err != nil {
					t.Error(err)
					return
				}
				if _, ok := c.Get(p); !ok {
					t.Errorf("miss after put: %s", p)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := c.Entries(); err != nil {
				t.Error(err)
				return
			}
			c.Len()
		}
	}()
	wg.Wait()
	if c.Len() != writers*16 {
		t.Errorf("Len = %d, want %d", c.Len(), writers*16)
	}
	if n, err := c.Verify(); err != nil || n != writers*16 {
		t.Errorf("Verify = %d, %v", n, err)
	}
}

func TestOpenCacheErrors(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Error("empty dir accepted")
	}
	// A file where the directory should be.
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(path); err == nil {
		t.Error("file-as-dir accepted")
	}
	// An unreadable store (directory squatting on a segment name) must
	// fail OpenCache loudly instead of opening a cache whose Len reads
	// 0 — the old Len-swallows-errors bug made /healthz report an
	// empty-but-healthy cache on exactly this kind of root.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "00000001.seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(dir); err == nil {
		t.Error("corrupt store root accepted; Len would silently report 0")
	}
}

package sweep

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// referenceQuery answers a query the way Cache.Query did before it kept
// a point index: decode every record's meta, filter, sort the whole
// match set (record key as the tie-break), slice the page, read its
// rows. It is the oracle of TestCacheQueryDifferential and the only
// place that per-request decode-and-sort survives.
func referenceQuery(t *testing.T, c *Cache, f Filter, offset, limit int) (int, []CachedPoint) {
	t.Helper()
	type match struct {
		key   string
		point Point
	}
	var matched []match
	c.store.Range(func(key string, meta []byte) bool {
		var p Point
		if json.Unmarshal(meta, &p) == nil && f.matches(&p) {
			matched = append(matched, match{key, p})
		}
		return true
	})
	sort.Slice(matched, func(i, j int) bool {
		a, b := matched[i].point, matched[j].point
		switch {
		case a.App != b.App:
			return a.App < b.App
		case a.Cluster != b.Cluster:
			return a.Cluster < b.Cluster
		case a.Protocol != b.Protocol:
			return a.Protocol < b.Protocol
		case a.Nodes != b.Nodes:
			return a.Nodes < b.Nodes
		case a.ThreadsPerNode != b.ThreadsPerNode:
			return a.ThreadsPerNode < b.ThreadsPerNode
		case a.Override.Fingerprint() != b.Override.Fingerprint():
			return a.Override.Fingerprint() < b.Override.Fingerprint()
		}
		return matched[i].key < matched[j].key
	})
	total := len(matched)
	offset = min(max(offset, 0), total)
	end := total
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	page := make([]CachedPoint, 0, end-offset)
	for _, m := range matched[offset:end] {
		payload, ok, err := c.store.Get(m.key)
		if err != nil || !ok {
			t.Fatalf("reference: reading %s: ok %v, err %v", m.key, ok, err)
		}
		var e cacheEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		page = append(page, CachedPoint{Point: e.Point, Result: e.Result})
	}
	return total, page
}

// randomPoint draws from a universe small enough (864 keys) that a few
// hundred Puts hit every case: new keys, supersedes, label-only changes
// of a known key, and points that differ only in paper_scale or repeats
// and so tie under the grid's column order.
func randomPoint(rng *rand.Rand) Point {
	p := Point{
		App:            []string{"asp", "jacobi", "pi"}[rng.Intn(3)],
		Cluster:        []string{"myrinet", "sci"}[rng.Intn(2)],
		Protocol:       []string{"java_ic", "java_pf"}[rng.Intn(2)],
		Nodes:          1 + rng.Intn(3),
		ThreadsPerNode: 1 + rng.Intn(2),
		PaperScale:     rng.Intn(2) == 0,
		Repeats:        []int{1, 3}[rng.Intn(2)],
	}
	if c := rng.Intn(3); c > 0 {
		p.Override.CheckCycles = f64p(float64(c))
	}
	p.Override.Label = []string{"", "a", "b"}[rng.Intn(3)]
	return p
}

func randomFilter(rng *rand.Rand) Filter {
	var f Filter
	if rng.Intn(2) == 0 {
		f.App = []string{"asp", "jacobi", "pi", "absent"}[rng.Intn(4)]
	}
	if rng.Intn(3) == 0 {
		f.Cluster = []string{"myrinet", "sci"}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		f.Protocol = []string{"java_ic", "java_pf"}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		f.Nodes = 1 + rng.Intn(3)
	}
	if rng.Intn(4) == 0 {
		f.ThreadsPerNode = 1 + rng.Intn(2)
	}
	if rng.Intn(4) == 0 {
		b := rng.Intn(2) == 0
		f.PaperScale = &b
	}
	return f
}

// TestCacheQueryDifferential drives a seeded random sequence of Puts,
// Queries and one close-and-reopen through the cache and compares every
// Query, row for row, with referenceQuery.
func TestCacheQueryDifferential(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close() }()
	rng := rand.New(rand.NewSource(16))
	check := func(step int) {
		t.Helper()
		f := randomFilter(rng)
		offset, limit := rng.Intn(40)-2, rng.Intn(30)-3
		wantTotal, wantPage := referenceQuery(t, c, f, offset, limit)
		total, page, err := c.Query(f, offset, limit)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(page)
		want, _ := json.Marshal(wantPage)
		if total != wantTotal || !bytes.Equal(got, want) {
			t.Fatalf("step %d: Query(%+v, %d, %d) = total %d, %d rows; reference total %d, %d rows\ngot  %s\nwant %s",
				step, f, offset, limit, total, len(page), wantTotal, len(wantPage), got, want)
		}
	}
	const steps = 1500
	for step := 0; step < steps; step++ {
		switch {
		case step == steps/2:
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c, err = OpenCache(dir); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(4) == 0:
			check(step)
		default:
			p := randomPoint(rng)
			if err := c.Put(p, fakeResult(p, rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(steps)
	if total, _, _ := c.Query(Filter{}, 0, 0); total != c.Len() {
		t.Errorf("index holds %d rows, store %d records", total, c.Len())
	}
}

// TestCacheQueryOrderIsDeterministic: records that differ only in
// paper_scale or repeats tie under the grid's column order, and the
// record key must break the tie — the same query returns the same
// bytes every time, whichever order the store's map hands the index
// its records in.
func TestCacheQueryOrderIsDeterministic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []bool{false, true} {
		for repeats := 1; repeats <= 6; repeats++ {
			p := Point{App: "tsp", Cluster: "sci", Protocol: "java_pf", Nodes: 4, ThreadsPerNode: 1,
				PaperScale: scale, Repeats: repeats}
			if err := c.Put(p, fakeResult(p, float64(repeats))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var first []byte
	for i := 0; i < 50; i++ {
		// Reopen each round: the index is rebuilt from a fresh map walk.
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = OpenCache(dir); err != nil {
			t.Fatal(err)
		}
		total, page, err := c.Query(Filter{App: "tsp"}, 2, 7)
		if err != nil || total != 12 || len(page) != 7 {
			t.Fatalf("round %d: total %d, %d rows, err %v", i, total, len(page), err)
		}
		got, _ := json.Marshal(page)
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("round %d returned a different page:\n%s\nfirst:\n%s", i, got, first)
		}
	}
	c.Close()
}

// TestCacheIndexOneRowPerKey: however Puts of one point race — the
// executor and a second writer in the same process — the point index
// gains exactly one row per key, and a superseding Put (new result, new
// label) gains none. Run under -race.
func TestCacheIndexOneRowPerKey(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	point := func(n int) Point {
		return Point{App: "pi", Cluster: "sci", Protocol: "java_ic", Nodes: n, ThreadsPerNode: 1, Repeats: 1}
	}
	// Build the index first, so every Put below goes through it.
	if total, _, err := c.Query(Filter{}, 0, 0); err != nil || total != 0 {
		t.Fatalf("empty cache: total %d, err %v", total, err)
	}
	const writers, points = 8, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n <= points; n++ {
				p := point(n)
				if err := c.Put(p, fakeResult(p, float64(w+1))); err != nil {
					t.Error(err)
					return
				}
				if n%8 == 0 {
					if _, _, err := c.Query(Filter{App: "pi"}, 0, 4); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total, _, err := c.Query(Filter{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != points || total != c.Store().Len() {
		t.Fatalf("after %d racing writers: index %d rows, store %d records, want %d", writers, total, c.Store().Len(), points)
	}
	relabeled := point(3)
	relabeled.Override.Label = "again"
	if err := c.Put(relabeled, fakeResult(relabeled, 9)); err != nil {
		t.Fatal(err)
	}
	total, page, err := c.Query(Filter{Nodes: 3}, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if all, _, _ := c.Query(Filter{}, 0, 0); all != c.Store().Len() || all != points {
		t.Errorf("after a label-only supersede: index %d rows, store %d records, want %d", all, c.Store().Len(), points)
	}
	// The row is read back by key, so the page carries the new label.
	if total != 1 || len(page) != 1 || page[0].Point.Override.Label != "again" {
		t.Errorf("superseded point: total %d, page %+v", total, page)
	}
}

// TestCacheQueryAllocationBudget: a steady-state page costs its rows,
// not the store — the same 20-row Query allocates the same over 1k and
// over 10k records.
func TestCacheQueryAllocationBudget(t *testing.T) {
	pageAllocs := func(records int) float64 {
		c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < records; i++ {
			p := Point{App: []string{"asp", "jacobi", "pi", "sor", "tsp"}[i%5], Cluster: "sci", Protocol: "java_pf",
				Nodes: 1 + i/5, ThreadsPerNode: 1, Repeats: 1}
			if err := c.Put(p, fakeResult(p, 1)); err != nil {
				t.Fatal(err)
			}
		}
		query := func() {
			total, page, err := c.Query(Filter{App: "jacobi"}, 40, 20)
			if err != nil || total != records/5 || len(page) != 20 {
				t.Fatalf("%d records: total %d, %d rows, err %v", records, total, len(page), err)
			}
		}
		query() // builds the index
		return testing.AllocsPerRun(20, query)
	}
	small, large := pageAllocs(1_000), pageAllocs(10_000)
	if small != large {
		t.Errorf("a 20-row page allocates %.0f times over 1k records and %.0f over 10k; want the same", small, large)
	}
}

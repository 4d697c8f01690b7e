package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/harness"
	"repro/internal/resultstore"
)

// Cache is the content-addressed result store: one entry per grid
// point, keyed by the SHA-256 of the canonicalized point (Point.Key),
// so a result is found again exactly when the whole experiment
// configuration — app, platform, protocol, node count, problem scale,
// cost overrides — is identical. Re-running a sweep therefore only
// executes new or changed points, and a sweep interrupted halfway
// resumes from what it already computed.
//
// Storage is a packed, indexed, append-only resultstore.Store: a
// handful of large segment files instead of one JSON file per point,
// so the cache survives millions of points where a directory tree
// falls over on inodes and scan latency. The index (point identity
// included) lives in memory, which is what lets Query answer filtered,
// paginated lookups without reading unmatched records from disk.
//
// A Cache is safe for concurrent use within a process. Distinct
// processes may share a directory — each appends to its own segment —
// but see a snapshot taken at OpenCache; the worst case of the race is
// one point computed twice, never a corrupt entry.
type Cache struct {
	store *resultstore.Store
}

// cacheEntry is the serialized form of one cached point — the record
// payload in the packed store.
type cacheEntry struct {
	Version string         `json:"version"`
	Point   Point          `json:"point"`
	Result  harness.Result `json:"result"`
}

// OpenCache opens (creating if needed) a cache rooted at dir. An
// unreadable or corrupt store root fails here, loudly, instead of
// surfacing later as an empty-but-healthy cache.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	store, err := resultstore.Open(dir, resultstore.Options{Version: cacheKeyVersion})
	if err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return &Cache{store: store}, nil
}

// Dir reports the cache's root directory.
func (c *Cache) Dir() string { return c.store.Dir() }

// Store exposes the packed store under the cache, for integrity
// tooling (hyperion-cachectl) and read-counter assertions.
func (c *Cache) Store() *resultstore.Store { return c.store }

// Close releases the cache's file handles.
func (c *Cache) Close() error { return c.store.Close() }

// Get returns the cached result for a point, if present. A stale or
// malformed entry (older format version, hash collision) is treated as
// a miss.
func (c *Cache) Get(p Point) (harness.Result, bool) {
	payload, ok, err := c.store.Get(p.Key())
	if err != nil || !ok {
		return harness.Result{}, false
	}
	var e cacheEntry
	if json.Unmarshal(payload, &e) != nil || e.Version != cacheKeyVersion {
		return harness.Result{}, false
	}
	// Paranoia over hash collisions and format drift: the stored point
	// must canonicalize back to this point's key. (Point holds pointer
	// fields, so compare canonical keys, not struct values.)
	if e.Point.Key() != p.Key() {
		return harness.Result{}, false
	}
	return e.Result, true
}

// Put stores a point's result, superseding any previous entry for the
// same point. The append is atomic at the record level: a reader (or a
// crash) sees either the complete checksummed entry or none.
func (c *Cache) Put(p Point, r harness.Result) error {
	payload, err := json.Marshal(cacheEntry{Version: cacheKeyVersion, Point: p, Result: r})
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	meta, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := c.store.Put(p.Key(), meta, payload); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	return nil
}

// CachedPoint pairs a cached grid point with its stored result — one
// entry of the cache's query interface.
type CachedPoint struct {
	Point  Point          `json:"point"`
	Result harness.Result `json:"result"`
}

// Filter selects cached points by experiment axes. Zero-valued fields
// match everything; set fields AND together.
type Filter struct {
	App      string
	Cluster  string // canonical key (see CanonicalCluster)
	Protocol string
	// Nodes and ThreadsPerNode filter when > 0.
	Nodes          int
	ThreadsPerNode int
	// PaperScale filters when non-nil.
	PaperScale *bool
}

func (f Filter) matches(p *Point) bool {
	if f.App != "" && p.App != f.App {
		return false
	}
	if f.Cluster != "" && p.Cluster != f.Cluster {
		return false
	}
	if f.Protocol != "" && p.Protocol != f.Protocol {
		return false
	}
	if f.Nodes > 0 && p.Nodes != f.Nodes {
		return false
	}
	if f.ThreadsPerNode > 0 && p.ThreadsPerNode != f.ThreadsPerNode {
		return false
	}
	if f.PaperScale != nil && p.PaperScale != *f.PaperScale {
		return false
	}
	return true
}

// Query answers a filtered, paginated lookup over the cache: total is
// the number of entries matching the filter, page holds the matches in
// the grid's natural column order from offset, at most limit long
// (limit < 0 means no bound). Filtering and ordering run entirely on
// the in-memory index — only the returned page's payloads are read
// from disk, which is what keeps a narrow query over a huge store
// cheap (assert with Store().ReadCounters). This is the engine behind
// the experiment server's GET /v1/results.
func (c *Cache) Query(f Filter, offset, limit int) (total int, page []CachedPoint, err error) {
	type match struct {
		key   string
		point Point
	}
	var matched []match
	c.store.Range(func(key string, meta []byte) bool {
		var p Point
		if json.Unmarshal(meta, &p) != nil {
			return true // undecodable index meta: skip, exactly like Get's miss
		}
		if f.matches(&p) {
			matched = append(matched, match{key, p})
		}
		return true
	})
	sort.Slice(matched, func(i, j int) bool { return pointLess(matched[i].point, matched[j].point) })
	total = len(matched)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := total
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	page = make([]CachedPoint, 0, end-offset)
	for _, m := range matched[offset:end] {
		payload, ok, err := c.store.Get(m.key)
		if err != nil {
			return 0, nil, fmt.Errorf("sweep: querying cache: %w", err)
		}
		if !ok {
			continue // raced with a concurrent writer's supersede; skip
		}
		var e cacheEntry
		if json.Unmarshal(payload, &e) != nil || e.Version != cacheKeyVersion {
			continue
		}
		page = append(page, CachedPoint{Point: e.Point, Result: e.Result})
	}
	return total, page, nil
}

// Entries returns every valid entry, sorted by the grid's natural
// column order (app, cluster, protocol, nodes, threads per node,
// override fingerprint). Stale or malformed entries are skipped,
// exactly as Get treats them.
func (c *Cache) Entries() ([]CachedPoint, error) {
	_, page, err := c.Query(Filter{}, 0, -1)
	return page, err
}

// pointLess orders points by the grid's column order.
func pointLess(a, b Point) bool {
	if a.App != b.App {
		return a.App < b.App
	}
	if a.Cluster != b.Cluster {
		return a.Cluster < b.Cluster
	}
	if a.Protocol != b.Protocol {
		return a.Protocol < b.Protocol
	}
	if a.Nodes != b.Nodes {
		return a.Nodes < b.Nodes
	}
	if a.ThreadsPerNode != b.ThreadsPerNode {
		return a.ThreadsPerNode < b.ThreadsPerNode
	}
	return a.Override.Fingerprint() < b.Override.Fingerprint()
}

// Len reports the number of entries currently in the cache. The count
// comes from the store's in-memory index, so it is exact and cannot
// silently read 0 on an unreadable root — that failure mode now
// surfaces as an OpenCache error instead.
func (c *Cache) Len() int {
	return c.store.Len()
}

// Verify checks the cache end to end: the store's segment framing and
// checksums (resultstore.Store.Verify), then every live entry's
// payload — it must decode, carry the current format version, and
// canonicalize back to the key it is filed under. It returns the
// number of verified entries.
func (c *Cache) Verify() (int, error) {
	if _, _, err := c.store.Verify(); err != nil {
		return 0, fmt.Errorf("sweep: verifying cache: %w", err)
	}
	verified := 0
	var keys []string
	c.store.Range(func(key string, _ []byte) bool {
		keys = append(keys, key)
		return true
	})
	sort.Strings(keys)
	for _, key := range keys {
		payload, ok, err := c.store.Get(key)
		if err != nil {
			return verified, fmt.Errorf("sweep: verifying cache: %w", err)
		}
		if !ok {
			continue
		}
		var e cacheEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return verified, fmt.Errorf("sweep: verifying cache: entry %s: %w", key, err)
		}
		if e.Version != cacheKeyVersion {
			return verified, fmt.Errorf("sweep: verifying cache: entry %s has version %q, want %q", key, e.Version, cacheKeyVersion)
		}
		if e.Point.Key() != key {
			return verified, fmt.Errorf("sweep: verifying cache: entry %s does not canonicalize to its key", key)
		}
		verified++
	}
	return verified, nil
}

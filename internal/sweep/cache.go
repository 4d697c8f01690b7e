package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

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
// falls over on inodes and scan latency. The store keeps every record's
// key and encoded point (its meta) in memory, so no lookup reads an
// unmatched record from disk.
//
// Query additionally keeps a point index: every record's decoded Point
// and override fingerprint, in the grid's column order. It is built
// from the store's metas by the first Query — a process that never
// queries (a CLI sweep) pays nothing for it at OpenCache, Put or Get —
// and kept up to date by Put from then on. Its cost is memory: one
// decoded Point plus fingerprint per record (about 250 bytes), for as
// long as the cache stays open.
//
// A Cache is safe for concurrent use within a process. Distinct
// processes may share a directory — each appends to its own segment —
// but see a snapshot taken at OpenCache; the worst case of the race is
// one point computed twice, never a corrupt entry.
type Cache struct {
	store *resultstore.Store

	// mu makes Put's exists-check, store append and index append one
	// step, and orders them against Query's build and merge.
	mu      sync.RWMutex
	indexed bool       // guarded by mu; the first Query has built rows
	rows    []indexRow // guarded by mu; in rowLess order
	tail    []indexRow // guarded by mu; keys Put since the last Query, unordered
}

// indexRow is one record in the point index. Label, Repeats and the
// override's fields ride along unused: order and filter read the axes
// and fp only, and a page's rows are re-read from the store by key.
type indexRow struct {
	key   string
	point Point
	fp    string // point.Override.Fingerprint(), computed once
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
// tooling (hyperion-cachectl) and read-counter assertions. Cache.Put is
// the only supported writer once a cache is open: a record appended
// through Store().Put after the first Query never reaches the point
// index, so Query would not list it.
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
	key := p.Key()
	// One step under the lock, so two concurrent Puts of a new point
	// leave one index row. A superseding Put leaves the index as it is:
	// the key's order and filter axes cannot have changed.
	c.mu.Lock()
	defer c.mu.Unlock()
	newRow := false
	if c.indexed {
		_, known := c.store.Meta(key)
		newRow = !known
	}
	if err := c.store.Put(key, meta, payload); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if newRow {
		c.tail = append(c.tail, indexRow{key, p, p.Override.Fingerprint()})
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
// (limit < 0 means no bound). Filtering, counting and ordering are one
// walk over the point index, which is already in page order; only the
// returned page's payloads are read from disk and decoded, which is
// what keeps a narrow query over a huge store cheap (assert with
// Store().ReadCounters). The first Query of a process builds the index
// (one decode per record); a Query after Puts merges the new keys in.
// This is the engine behind the experiment server's GET /v1/results.
func (c *Cache) Query(f Filter, offset, limit int) (total int, page []CachedPoint, err error) {
	total, keys := c.selectKeys(f, offset, limit)
	page = make([]CachedPoint, 0, len(keys))
	for _, key := range keys {
		payload, ok, err := c.store.Get(key)
		if err != nil {
			return 0, nil, fmt.Errorf("sweep: querying cache: %w", err)
		}
		if !ok {
			continue // gone from the store (closed under the query): skip
		}
		var e cacheEntry
		if json.Unmarshal(payload, &e) != nil || e.Version != cacheKeyVersion {
			continue
		}
		page = append(page, CachedPoint{Point: e.Point, Result: e.Result})
	}
	return total, page, nil
}

// selectKeys walks the point index once: it counts the rows matching f
// and collects the record keys of matches offset..offset+limit (a
// negative offset reads as 0, a negative limit as no bound).
func (c *Cache) selectKeys(f Filter, offset, limit int) (total int, keys []string) {
	c.mu.RLock()
	if c.indexed && len(c.tail) == 0 {
		defer c.mu.RUnlock()
	} else {
		c.mu.RUnlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.refreshIndexLocked()
	}
	if limit < 0 {
		limit = len(c.rows)
	} else {
		keys = make([]string, 0, min(limit, len(c.rows)))
	}
	for i := range c.rows {
		r := &c.rows[i]
		if !f.matches(&r.point) {
			continue
		}
		if total >= offset && len(keys) < limit {
			keys = append(keys, r.key)
		}
		total++
	}
	return total, keys
}

// refreshIndexLocked brings rows up to date with the store. The first
// call decodes every record's meta and sorts; later calls sort the keys
// Put since the last one and merge them in, in place: O(n + t log t).
func (c *Cache) refreshIndexLocked() {
	if !c.indexed {
		c.indexed = true
		c.rows = make([]indexRow, 0, c.store.Len())
		c.store.Range(func(key string, meta []byte) bool {
			var p Point
			if json.Unmarshal(meta, &p) == nil { // undecodable meta: skip, like Get's miss
				c.rows = append(c.rows, indexRow{key, p, p.Override.Fingerprint()})
			}
			return true
		})
		sortRows(c.rows)
		return
	}
	tail := c.tail
	sortRows(tail)
	// Merge from the back: rows grows by len(tail), then the largest
	// unsettled row of either run moves to k.
	i := len(c.rows) - 1
	c.rows = append(c.rows, tail...)
	for j, k := len(tail)-1, len(c.rows)-1; j >= 0; k-- {
		if i >= 0 && rowLess(&tail[j], &c.rows[i]) {
			c.rows[k] = c.rows[i]
			i--
		} else {
			c.rows[k] = tail[j]
			j--
		}
	}
	c.tail = tail[:0]
}

func sortRows(rows []indexRow) {
	sort.Slice(rows, func(i, j int) bool { return rowLess(&rows[i], &rows[j]) })
}

// Entries returns every valid entry, sorted by the grid's natural
// column order (app, cluster, protocol, nodes, threads per node,
// override fingerprint, record key). Stale or malformed entries are
// skipped, exactly as Get treats them.
func (c *Cache) Entries() ([]CachedPoint, error) {
	_, page, err := c.Query(Filter{}, 0, -1)
	return page, err
}

// rowLess orders index rows by the grid's column order. The column
// order ignores paper_scale and repeats, so two records may tie on it;
// the record key breaks the tie and makes the order total.
func rowLess(a, b *indexRow) bool {
	p, q := &a.point, &b.point
	if p.App != q.App {
		return p.App < q.App
	}
	if p.Cluster != q.Cluster {
		return p.Cluster < q.Cluster
	}
	if p.Protocol != q.Protocol {
		return p.Protocol < q.Protocol
	}
	if p.Nodes != q.Nodes {
		return p.Nodes < q.Nodes
	}
	if p.ThreadsPerNode != q.ThreadsPerNode {
		return p.ThreadsPerNode < q.ThreadsPerNode
	}
	if a.fp != b.fp {
		return a.fp < b.fp
	}
	return a.key < b.key
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

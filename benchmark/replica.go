package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/threads"
)

// The functions in this file re-implement, step by step and from public
// functions only, what the product does inside one call (harness.Run,
// Executor.Run, Cache.Get, Cache.Query), with a span around each step.
// A traced pass runs them in place of the product call; runTraced holds
// their total to within 5% of the product call's, so the shares they
// yield describe the program and not the replica.

// replicaPoint is harness.Run: cluster, engine, runtime, heap, the
// program itself, then the statistics read-out.
func replicaPoint(tr *tracer, parent, lane int, op string, app apps.App, cfg harness.RunConfig) (harness.Result, error) {
	root := tr.begin(parent, lane, "harness", "harness.Run", op)
	defer tr.end(root)
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}

	sp := tr.begin(root, lane, "cluster", "cluster.New", op)
	cnt := &stats.Counters{}
	cl, err := cluster.New(cfg.Cluster, cfg.Nodes, cnt)
	tr.end(sp)
	if err != nil {
		return harness.Result{}, err
	}

	sp = tr.begin(root, lane, "core", "core.NewEngine", op)
	proto, err := core.NewProtocol(cfg.Protocol)
	if err != nil {
		tr.end(sp)
		return harness.Result{}, err
	}
	costs := model.DefaultDSMCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	eng := core.NewEngine(cl, costs, proto)
	tr.end(sp)

	sp = tr.begin(root, lane, "threads", "threads.NewRuntime", op)
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	tr.end(sp)

	sp = tr.begin(root, lane, "jmm", "jmm.NewHeap", op)
	h := jmm.NewHeap(eng)
	tr.end(sp)

	// From outside, the program's run is one call: its get/put, fetch,
	// flush and monitor work is all inside it. Spans inside the program
	// are a later change; until then the layers pass prices those paths.
	sp = tr.begin(root, lane, "apps", "app.Run", op)
	workers := cfg.Nodes * cfg.ThreadsPerNode
	check := app.Run(rt, h, workers)
	tr.end(sp)

	sp = tr.begin(root, lane, "core", "stats read", op)
	msgs, bytes := cl.Network().Stats()
	res := harness.Result{
		App: app.Name(), Cluster: cfg.Cluster.Name, Nodes: cfg.Nodes, Workers: workers, Protocol: cfg.Protocol,
		Time: rt.LastEnd(), Check: check, Stats: cnt.Snapshot(), RunStats: eng.RunStats(),
		Messages: msgs, Bytes: bytes,
	}
	tr.end(sp)
	return res, nil
}

// storedEntry mirrors the JSON the sweep cache stores per point, as far
// as reading it back needs.
type storedEntry struct {
	Point  sweep.Point    `json:"point"`
	Result harness.Result `json:"result"`
}

// replicaCacheGet is Cache.Get: hash the point, read the record, decode
// it, and check it is filed under its own key.
func replicaCacheGet(tr *tracer, parent, lane int, op string, c *sweep.Cache, p sweep.Point) (harness.Result, bool) {
	root := tr.begin(parent, lane, "sweep", "Cache.Get", op)
	defer tr.end(root)

	sp := tr.begin(root, lane, "sweep", "Point.Key", op)
	key := p.Key()
	tr.end(sp)

	sp = tr.begin(root, lane, "resultstore", "Store.Get", op)
	payload, ok, err := c.Store().Get(key)
	tr.end(sp)
	if err != nil || !ok {
		return harness.Result{}, false
	}

	sp = tr.begin(root, lane, "sweep", "decode entry", op)
	var entry storedEntry
	bad := json.Unmarshal(payload, &entry) != nil || entry.Point.Key() != key
	tr.end(sp)
	if bad {
		return harness.Result{}, false
	}
	return entry.Result, true
}

// replicaSweep is Executor.Run with a cache: expand the spec, resolve
// every point against the cache on the calling goroutine, then run the
// misses on a pool of workers, storing each as it finishes. Each worker
// is its own lane with its own root span, so no span covers time spent
// only waiting for another goroutine.
func replicaSweep(tr *tracer, spec sweep.Spec, c *sweep.Cache, newApp func(string, bool) (apps.App, error), workers int) (executed, hits int, results []sweep.PointResult, err error) {
	root := tr.begin(-1, 0, "sweep", "Executor.Run resolve", "sweep")
	sp := tr.begin(root, 0, "sweep", "Spec.Expand", "sweep")
	points, err := spec.ExpandFor(newApp)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return 0, 0, nil, err
	}
	results = make([]sweep.PointResult, len(points))
	cfgs := make([]harness.RunConfig, len(points))
	var misses []int
	for i, p := range points {
		results[i].Point = p
		if res, ok := replicaCacheGet(tr, root, 0, pointOp(i), c, p); ok {
			results[i].Result, results[i].Cached = res, true
			hits++
			continue
		}
		sp := tr.begin(root, 0, "sweep", "Point.Config", pointOp(i))
		cfg, cerr := p.Config()
		if cerr == nil {
			_, cerr = newApp(p.App, p.PaperScale)
		}
		tr.end(sp)
		if cerr != nil {
			results[i].Err = cerr
			continue
		}
		cfgs[i] = cfg
		misses = append(misses, i)
	}
	tr.end(root)

	var mu sync.Mutex // serialises Cache.Put and the tallies, as the pool's done hook does
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				p, op := points[i], pointOp(i)
				wroot := tr.begin(-1, lane, "sweep", "sweep point", op)

				var res harness.Result
				app, cerr := newApp(p.App, p.PaperScale)
				if cerr == nil {
					res, cerr = replicaPoint(tr, wroot, lane, op, app, cfgs[i])
				}

				mu.Lock()
				if cerr == nil {
					sp := tr.begin(wroot, lane, "sweep", "Cache.Put", op)
					cerr = c.Put(p, res)
					tr.end(sp)
				}
				results[i].Result, results[i].Err = res, cerr
				if cerr == nil {
					executed++
				}
				mu.Unlock()
				tr.end(wroot)
			}
		}(w + 1)
	}
	for _, i := range misses {
		next <- i
	}
	close(next)
	wg.Wait()
	return executed, hits, results, nil
}

func pointOp(i int) string { return fmt.Sprintf("point-%04d", i) }

// pageQuery is the parsed form of a /v1/results query.
type pageQuery struct {
	filter        sweep.Filter
	offset, limit int
}

// pageBody is the /v1/results response envelope.
type pageBody struct {
	Count   int                 `json:"count"`
	Offset  int                 `json:"offset"`
	Results []sweep.CachedPoint `json:"results"`
}

// replicaQuery is Cache.Query: walk the store's index, decode and
// filter each record's meta, order the matches, then read and decode
// only the page's payloads.
func replicaQuery(tr *tracer, parent, lane int, op string, c *sweep.Cache, q pageQuery) (pageBody, error) {
	root := tr.begin(parent, lane, "sweep", "Cache.Query", op)
	defer tr.end(root)

	type indexed struct {
		key  string
		meta []byte
	}
	sp := tr.begin(root, lane, "resultstore", "Store.Range", op)
	var all []indexed
	c.Store().Range(func(key string, meta []byte) bool {
		all = append(all, indexed{key, meta})
		return true
	})
	tr.end(sp)

	type match struct {
		key   string
		point sweep.Point
	}
	sp = tr.begin(root, lane, "sweep", "decode+filter+sort", op)
	var matched []match
	for _, it := range all {
		var p sweep.Point
		if json.Unmarshal(it.meta, &p) != nil {
			continue
		}
		f := q.filter
		if (f.App != "" && p.App != f.App) || (f.Nodes > 0 && p.Nodes != f.Nodes) ||
			(f.Cluster != "" && p.Cluster != f.Cluster) || (f.Protocol != "" && p.Protocol != f.Protocol) {
			continue
		}
		matched = append(matched, match{it.key, p})
	}
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
		}
		return a.Override.Fingerprint() < b.Override.Fingerprint()
	})
	tr.end(sp)

	body := pageBody{Count: len(matched), Offset: q.offset}
	lo := min(q.offset, len(matched))
	hi := len(matched)
	if q.limit >= 0 && lo+q.limit < hi {
		hi = lo + q.limit
	}
	for _, m := range matched[lo:hi] {
		sp = tr.begin(root, lane, "resultstore", "Store.Get", op)
		payload, ok, err := c.Store().Get(m.key)
		tr.end(sp)
		if err != nil {
			return pageBody{}, err
		}
		if !ok {
			continue
		}
		sp = tr.begin(root, lane, "sweep", "decode entry", op)
		var entry storedEntry
		err = json.Unmarshal(payload, &entry)
		tr.end(sp)
		if err != nil {
			continue
		}
		body.Results = append(body.Results, sweep.CachedPoint{Point: entry.Point, Result: entry.Result})
	}
	return body, nil
}

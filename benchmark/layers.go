package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	hyperion "repro"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/pages"
	"repro/internal/pagestats"
	"repro/internal/resultstore"
	"repro/internal/sweep"
	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// The layers pass times single layers from outside, by calling each
// package's public functions a fixed number of times under GOMAXPROCS=1.
// It is the same in every workload's traced run, so its numbers compare
// across workloads and commits; BENCHMARK.json's README table says
// which end-to-end metric each should move.

// layerSink keeps timed results alive.
var layerSink float64

// perOp runs body(n) three times and returns the median time per
// iteration in nanoseconds.
func perOp(n int, body func(n int)) float64 {
	var runs []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		body(n)
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(runs)
}

// inMain runs f as the main thread of a fresh four-node Myrinet system.
func inMain(e *env, proto string, f func(sys *hyperion.System, t *hyperion.Thread)) {
	sys, err := hyperion.New(hyperion.Options{Cluster: hyperion.Myrinet200(), Nodes: 4, Protocol: proto})
	if !e.check(err == nil, "layers: hyperion.New(%s): %v", proto, err) {
		return
	}
	sys.Main(func(t *hyperion.Thread) { f(sys, t) })
}

// noopApp is a program that does nothing: harness.Run of it is the
// per-point set-up and tear-down alone.
type noopApp struct{}

func (noopApp) Name() string { return "noop" }
func (noopApp) Run(rt *threads.Runtime, _ *jmm.Heap, _ int) apps.Check {
	rt.Main(func(*threads.Thread) {})
	return apps.Check{Summary: "noop", Valid: true}
}

func runLayers(e *env) (map[string]float64, error) {
	L := map[string]float64{}
	// n scales every fixed iteration count down in quick mode.
	n := func(full int) int { return max(full/e.pick(1, 400), 8) }

	layersPrimitives(L, n)
	for _, proto := range protocols {
		layersCore(e, L, n, proto)
	}
	layersFlush(e, L, n)
	layersJMM(e, L, n)
	layersPoints(e, L)
	layersKernels(e, L)
	if err := layersStore(e, L, n); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	if err := layersService(e, L, n); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	return L, nil
}

// layersPrimitives: the packages under the engine, called directly.
func layersPrimitives(L map[string]float64, n func(int) int) {
	f := pages.NewFrame(1, 4096, pages.ReadWrite)
	g := pages.NewFrame(2, 4096, pages.ReadWrite)
	buf := make([]byte, 8)
	L["pages.frame_read_ns"] = perOp(n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			f.Read((i&511)*8, buf)
		}
	})
	L["pages.frame_write_ns"] = perOp(n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			f.Write((i&511)*8, buf)
		}
	})
	tab := pages.NewTable()
	for p := 0; p < 64; p++ {
		tab.Install(pages.NewFrame(pages.PageID(p), 4096, pages.ReadWrite))
	}
	L["pages.table_lookup_ns"] = perOp(n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			fr, _ := tab.Lookup(pages.PageID(i & 63))
			layerSink += float64(fr.Page())
		}
	})
	L["pages.snapshot_load_ns_4k"] = perOp(n(100_000), func(n int) {
		for i := 0; i < n; i++ {
			g.Load(f.Snapshot())
		}
	})

	clock := vtime.NewClock(0)
	L["vtime.clock_advance_ns"] = perOp(n(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			clock.Advance(3)
		}
	})
	res := vtime.NewResource()
	L["vtime.resource_acquire_ns"] = perOp(n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			res.Acquire(vtime.Time(i), 10)
		}
	})

	net := netsim.NewNetwork(4, netsim.BIPMyrinet())
	L["netsim.send_ns"] = perOp(n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			net.Send(0, 1+i%3, 64, vtime.Time(i))
		}
	})
	cl, err := cluster.New(model.Myrinet200(), 4, nil)
	if err != nil {
		panic(err) // the preset with four nodes is always valid
	}
	const echo cluster.ServiceID = 100
	cl.Register(echo, "bench.echo", func(*cluster.Call) []byte { return nil })
	rpcClock := vtime.NewClock(0)
	arg := make([]byte, 8)
	L["cluster.invoke_ns"] = perOp(n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			cl.Invoke(rpcClock, 0, 1, echo, arg)
		}
	})
	L["core.engine_new_us"] = perOp(n(2000), func(n int) {
		for i := 0; i < n; i++ {
			c, _ := cluster.New(model.Myrinet200(), 4, nil)
			proto, _ := core.NewProtocol("java_pf")
			core.NewEngine(c, model.DefaultDSMCosts(), proto)
		}
	}) / 1e3
}

// layersCore: the engine's access and fetch paths under one protocol,
// through core.Ctx.
func layersCore(e *env, L map[string]float64, n func(int) int, proto string) {
	inMain(e, proto, func(sys *hyperion.System, t *hyperion.Thread) {
		ctx := t.Ctx()
		home := sys.NewF64ArrayAligned(t, 0, pageWords).Addr()
		remote := sys.NewF64ArrayAligned(t, 1, pageWords).Addr()
		L["core.get_home_ns."+proto] = perOp(n(1_000_000), func(n int) {
			for i := 0; i < n; i++ {
				layerSink += ctx.GetF64(home + pages.Addr((i&63)*8))
			}
		})
		ctx.GetF64(remote) // the one miss; every read below hits the cached copy
		L["core.get_cached_ns."+proto] = perOp(n(1_000_000), func(n int) {
			for i := 0; i < n; i++ {
				layerSink += ctx.GetF64(remote + pages.Addr((i&63)*8))
			}
		})
		// Writes to a cached remote page are value-logged; the log is
		// drained, untimed, after every page's worth.
		var spent time.Duration
		rounds := n(2000)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < pageWords; i++ {
				ctx.PutF64(remote+pages.Addr(i*8), float64(r))
			}
			spent += time.Since(t0)
			sys.Heap().Engine().UpdateMainMemory(ctx)
		}
		L["core.put_remote_ns."+proto] = float64(spent.Nanoseconds()) / float64(rounds*pageWords)

		// A cold remote read: monitor entry invalidates, the read
		// re-fetches (cf. BenchmarkRemoteLoad).
		mon := sys.NewMonitor(0)
		var bytes0 heapMark
		loads := n(20_000)
		if proto == "java_pf" {
			runtime.GC()
			bytes0 = markHeap()
		}
		us := perOp(loads, func(n int) {
			for i := 0; i < n; i++ {
				mon.Enter(t)
				mon.Exit(t)
				layerSink += ctx.GetF64(remote)
			}
		}) / 1e3
		L["core.remote_load_us."+proto] = us
		if proto == "java_pf" {
			b, o := markHeap().sub(bytes0)
			L["core.remote_load_bytes"] = b / float64(3*loads)
			L["core.remote_load_allocs"] = o / float64(3*loads)
		}
	})
}

// layersFlush: diff shipping and invalidation, each call timed on its
// own because the work that sets it up is not part of it.
func layersFlush(e *env, L map[string]float64, n func(int) int) {
	inMain(e, "java_ic", func(sys *hyperion.System, t *hyperion.Thread) {
		ctx, eng := t.Ctx(), sys.Heap().Engine()
		remote := sys.NewF64ArrayAligned(t, 1, pageWords).Addr()
		var spent time.Duration
		rounds := n(20_000)
		for r := 0; r < rounds; r++ {
			for i := 0; i < 64; i++ {
				ctx.PutF64(remote+pages.Addr(((i*37+r)&511)*8), float64(r))
			}
			t0 := time.Now()
			eng.UpdateMainMemory(ctx)
			spent += time.Since(t0)
		}
		L["core.flush_us_per_page"] = float64(spent.Nanoseconds()) / float64(rounds) / 1e3

		var pgs [16]pages.Addr
		for i := range pgs {
			pgs[i] = sys.NewF64ArrayAligned(t, 1+i%3, pageWords).Addr()
		}
		spent = 0
		rounds = n(5000)
		for r := 0; r < rounds; r++ {
			for _, a := range pgs {
				layerSink += ctx.GetF64(a)
			}
			t0 := time.Now()
			eng.InvalidateCache(ctx)
			spent += time.Since(t0)
		}
		L["core.invalidate_us_16p"] = float64(spent.Nanoseconds()) / float64(rounds) / 1e3
	})
	inMain(e, "java_hlrc", func(sys *hyperion.System, t *hyperion.Thread) {
		ctx, eng := t.Ctx(), sys.Heap().Engine()
		var pgs [4]pages.Addr
		for i := range pgs {
			pgs[i] = sys.NewF64ArrayAligned(t, 1+i%2, pageWords).Addr()
		}
		var spent time.Duration
		rounds := n(10_000)
		for r := 0; r < rounds; r++ {
			for _, a := range pgs {
				for i := 0; i < 16; i++ {
					ctx.PutF64(a+pages.Addr(((i*37+r)&511)*8), float64(r))
				}
			}
			t0 := time.Now()
			eng.FlushBatched(ctx)
			spent += time.Since(t0)
		}
		L["core.flush_batched_us"] = float64(spent.Nanoseconds()) / float64(rounds) / 1e3
	})
}

// layersJMM: the Java-level objects and the threads under them.
func layersJMM(e *env, L map[string]float64, n func(int) int) {
	inMain(e, "java_pf", func(sys *hyperion.System, t *hyperion.Thread) {
		arr := sys.NewF64Array(t, 0, 64)
		L["jmm.array_get_ns"] = perOp(n(1_000_000), func(n int) {
			for i := 0; i < n; i++ {
				layerSink += arr.Get(t, i&63)
			}
		})
		local, remote := sys.NewMonitor(0), sys.NewMonitor(1)
		L["jmm.monitor_local_ns"] = perOp(n(500_000), func(n int) {
			for i := 0; i < n; i++ {
				local.Enter(t)
				local.Exit(t)
			}
		})
		L["jmm.monitor_remote_us"] = perOp(n(500_000), func(n int) {
			for i := 0; i < n; i++ {
				remote.Enter(t)
				remote.Exit(t)
			}
		}) / 1e3
		v := sys.Heap().NewVolatileI64(t, 0)
		L["jmm.volatile_rw_ns"] = perOp(n(500_000), func(n int) {
			for i := 0; i < n; i++ {
				v.Set(t, int64(i))
				layerSink += float64(v.Get(t))
			}
		})
		L["threads.migrate_us"] = perOp(n(100_000), func(n int) {
			for i := 0; i < n; i++ {
				t.Migrate(1 + i&1)
			}
		}) / 1e3
	})
	inMain(e, "java_pf", func(sys *hyperion.System, t *hyperion.Thread) {
		bar := sys.NewBarrier(0, 4)
		L["jmm.barrier_await_us_4"] = perOp(n(50_000), func(n int) {
			ws := make([]*hyperion.Thread, 4)
			for w := range ws {
				ws[w] = sys.SpawnOn(t, w, func(t *hyperion.Thread) {
					for i := 0; i < n; i++ {
						bar.Await(t)
					}
				})
			}
			for _, w := range ws {
				sys.Join(t, w)
			}
		}) / 1e3
	})
	sys, err := hyperion.New(hyperion.Options{Cluster: hyperion.Myrinet200(), Nodes: 4, Protocol: "java_pf"})
	if e.check(err == nil, "layers: hyperion.New: %v", err) {
		L["threads.main_us"] = perOp(n(50_000), func(n int) {
			for i := 0; i < n; i++ {
				sys.Main(func(*hyperion.Thread) {})
			}
		}) / 1e3
	}

	runtime.GC()
	h0 := markHeap()
	runs := n(2000)
	L["harness.setup_us"] = perOp(runs, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := harness.Run(noopApp{}, pointCfg("java_pf")); err != nil {
				panic(err) // the fixed configuration is valid
			}
		}
	}) / 1e3
	_, objects := markHeap().sub(h0)
	L["harness.setup_allocs"] = objects / float64(3*runs)
}

// layersPoints: the access_bound batch's points once each, the paper's
// java_pf-over-java_ic improvement they imply, and what switching the
// two observers on costs.
func layersPoints(e *env, L map[string]float64) {
	virt := map[string]float64{}
	for _, app := range barrierApps(e.quick) {
		name := app.name
		if e.quick {
			name = name[len("quick."):]
		}
		for _, proto := range protocols {
			t0 := time.Now()
			res, err := harness.Run(app.make(), pointCfg(proto))
			L["harness.point_ms."+name+"."+proto] = ms(time.Since(t0))
			e.check(err == nil && res.Check.Valid, "layers: point %s/%s: err=%v check=%q", name, proto, err, res.Check.Summary)
			virt[name+"."+proto] = res.Seconds()
		}
		L["sim.pf_vs_ic_improvement_pct."+name] = 100 * (virt[name+".java_ic"] - virt[name+".java_pf"]) / virt[name+".java_ic"]
	}

	app := barrierApps(e.quick)[0]
	timed := func(cfg func(*harness.RunConfig)) float64 {
		var runs []float64
		for r := 0; r < 3; r++ {
			c := pointCfg("java_pf")
			cfg(&c)
			t0 := time.Now()
			if _, err := harness.Run(app.make(), c); err != nil {
				panic(err) // the fixed configuration is valid
			}
			runs = append(runs, ms(time.Since(t0)))
		}
		return median(runs)
	}
	base := timed(func(*harness.RunConfig) {})
	traced := timed(func(c *harness.RunConfig) { c.Tracer = trace.NewBuffer(0) })
	profiled := timed(func(c *harness.RunConfig) { c.PageProfiler = pagestats.New() })
	L["trace.enabled_overhead_pct"] = 100 * (traced - base) / base
	L["pagestats.enabled_overhead_pct"] = 100 * (profiled - base) / base
}

// layersKernels: each sync_bound kernel's own rate under java_pf, the
// per-operation costs two of them define, and the virtual times of the
// two whose monitor grant order the host scheduler decides, with their
// run-to-run spread: the number a deterministic scheduler brings to 0.
func layersKernels(e *env, L map[string]float64) {
	scale := e.pick(1, 50)
	for _, kn := range kernels() {
		r := runKernel(e, nil, kn, "java_pf", scale)
		if r.ops == 0 {
			continue
		}
		L["sync."+kn.name+"_kops_per_s"] = float64(r.ops) / r.wall.Seconds() / 1e3
		switch kn.name {
		case "wait_notify":
			L["jmm.wait_notify_us"] = float64(r.wall.Microseconds()) / float64(r.ops)
		case "spawn_join":
			L["threads.spawn_join_us"] = float64(r.wall.Microseconds()) / float64(r.ops)
		}
		if !kn.repeats {
			virt := []float64{float64(r.virtPS) / 1e9}
			for i := 0; i < 2; i++ {
				virt = append(virt, float64(runKernel(e, nil, kn, "java_pf", scale).virtPS)/1e9)
			}
			sort.Float64s(virt)
			L["sim.virt_ms."+kn.name] = virt[1]
			L["sim.virt_spread_pct."+kn.name] = 100 * (virt[2] - virt[0]) / virt[1]
		}
	}
}

// layersStore: the sweep cache and the packed store under it, against
// an index of 10 000 records (and of 100 000 for the page query, which
// is linear in the index today).
func layersStore(e *env, L map[string]float64, n func(int) int) error {
	spec := gridSpec("layers", checkValues(e, 60, e.pick(10, 1)))
	var points []sweep.Point
	L["sweep.expand_us_per_point"] = perOp(n(20), func(n int) {
		for i := 0; i < n; i++ {
			points, _ = spec.ExpandFor(smallApps)
		}
	}) / 1e3 / float64(len(spec.Costs)*pointsPerOverride)
	L["sweep.point_key_ns"] = perOp(n(20_000), func(n int) {
		for i := 0; i < n; i++ {
			layerSink += float64(len(points[i%len(points)].Key()))
		}
	})

	dir, err := e.mkdir("layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return err
	}
	defer func() { cache.Close() }()
	records := e.pick(seededRecords, 500)
	if err := seedRecords(e, cache, records); err != nil {
		return err
	}
	st := cache.Store().Stats()
	L["resultstore.bytes_per_record"] = float64(st.SizeBytes) / float64(st.LiveRecords)

	// One override's worth of real points, simulated once.
	real := points[:pointsPerOverride]
	x := &sweep.Executor{Workers: 1, Cache: cache, NewApp: smallApps}
	out, err := x.RunPoints(real)
	if err != nil {
		return err
	}
	checkOutcome(e, "layers fill", out.Points, out.Executed, out.CacheHits, len(real), 0)

	// Re-open: index replay of the seeded records.
	if err := cache.Close(); err != nil {
		return err
	}
	var opens []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		c, err := sweep.OpenCache(dir)
		opens = append(opens, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if r < 2 {
			c.Close()
		} else {
			cache = c
		}
	}
	L["resultstore.open_ms_10k"] = median(opens)
	x.Cache = cache

	keys := make([]string, len(real))
	for i, p := range real {
		keys[i] = p.Key()
	}
	L["sweep.cache_get_us"] = perOp(n(2000), func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cache.Get(real[i%len(real)]); !ok {
				panic("layers: cached point missing")
			}
		}
	}) / 1e3
	L["resultstore.get_us"] = perOp(n(20_000), func(n int) {
		for i := 0; i < n; i++ {
			if _, ok, _ := cache.Store().Get(keys[i%len(keys)]); !ok {
				panic("layers: stored record missing")
			}
		}
	}) / 1e3
	passUS := perOp(n(20), func(n int) {
		for i := 0; i < n; i++ {
			if out, _ := x.RunPoints(real); out.CacheHits != len(real) {
				panic("layers: cached pass missed")
			}
		}
	}) / 1e3
	L["sweep.executor_overhead_us_per_cached_point"] = passUS/float64(len(real)) - L["sweep.cache_get_us"]

	// Appends go to scratch copies so the 10k index stays 10k.
	res, _ := cache.Get(real[0])
	putDir, err := e.mkdir("layers-put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	putCache, err := sweep.OpenCache(putDir)
	if err != nil {
		return err
	}
	defer putCache.Close()
	fresh := 0
	L["sweep.cache_put_us"] = perOp(n(5000), func(n int) {
		for i := 0; i < n; i++ {
			p := real[i%len(real)]
			fresh++
			p.Repeats = 1 + fresh // a key the cache has not seen
			if err := putCache.Put(p, res); err != nil {
				panic(err)
			}
		}
	}) / 1e3
	payload, _, _ := cache.Store().Get(keys[0])
	meta, _ := cache.Store().Meta(keys[0])
	store, err := resultstore.Open(putDir+"/raw", resultstore.Options{Version: "bench"})
	if err != nil {
		return err
	}
	defer store.Close()
	L["resultstore.put_us"] = perOp(n(20_000), func(n int) {
		for i := 0; i < n; i++ {
			fresh++
			if err := store.Put(fmt.Sprintf("%064d", fresh), meta, payload); err != nil {
				panic(err)
			}
		}
	}) / 1e3

	L["resultstore.range_ms_10k"] = perOp(n(300), func(n int) {
		for i := 0; i < n; i++ {
			cache.Store().Range(func(string, []byte) bool { return true })
		}
	}) / 1e6
	page := func(c *sweep.Cache, want int) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				total, rows, err := c.Query(sweep.Filter{App: "jacobi", Nodes: 7}, 0, 20)
				if err != nil || total != want || len(rows) != min(20, want) {
					panic(fmt.Sprintf("layers: query returned %d rows of %d (want %d), err %v", len(rows), total, want, err))
				}
			}
		}
	}
	L["sweep.query_page_ms_10k"] = perOp(n(10), page(cache, seededMatches(records))) / 1e6

	bigDir, err := e.mkdir("layers-100k-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bigDir)
	big, err := sweep.OpenCache(bigDir)
	if err != nil {
		return err
	}
	defer big.Close()
	bigRecords := 10 * records
	if err := seedRecords(e, big, bigRecords); err != nil {
		return err
	}
	L["sweep.query_page_ms_100k"] = perOp(1, page(big, seededMatches(bigRecords))) / 1e6
	return nil
}

// layersService: the experiment server's handlers with and without the
// HTTP stack between client and server.
func layersService(e *env, L map[string]float64, n func(int) int) error {
	inst, err := setupHTTP(e)
	if err != nil {
		return err
	}
	h := inst.(*httpInstance)
	defer h.close()

	handler := func(path string) float64 {
		return perOp(n(8), func(n int) {
			for i := 0; i < n; i++ {
				rec := httptest.NewRecorder()
				h.product.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("layers: GET %s: status %d", path, rec.Code))
				}
			}
		}) / 1e6
	}
	L["service.results_handler_ms"] = handler(pagePath)
	L["service.metrics_ms"] = handler("/metrics")

	overrides := e.pick(jobChecks, 1)
	js := h.newSpec(e, overrides)
	_, busy, err := h.coldJob(e, js, nil, nil)
	if !e.check(err == nil, "layers: cold job: %v", err) || len(busy) == 0 {
		busy = []float64{0}
	}
	L["service.results_page_busy_ms_p50"] = median(busy)

	var post, total, stream, inproc []float64
	for i := 0; i < n(20); i++ {
		d, err := h.submit(nil, 0, js, "cached")
		if e.check(err == nil, "layers: cached job: %v", err) {
			post = append(post, ms(d.post))
			total = append(total, ms(d.total))
			stream = append(stream, float64(js.points+1)/(d.total-d.post).Seconds())
		}
		di, err := h.submitInProcess(js)
		if e.check(err == nil, "layers: in-process job: %v", err) {
			inproc = append(inproc, ms(di))
		}
	}
	L["service.post_accept_ms"] = median(post)
	L["service.submit_inproc_cached_ms"] = median(inproc)
	L["service.http_overhead_cached_ms"] = median(total) - median(inproc)
	L["service.sse_events_per_s"] = median(stream)
	return nil
}

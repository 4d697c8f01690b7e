// Package core implements the paper's primary contribution: Hyperion's
// memory subsystem — a home-based, page-granularity distributed shared
// memory implementing Java consistency, with pluggable remote-object
// access-detection protocols (the java_ic in-line-check protocol and the
// java_pf page-fault protocol of §3).
//
// The package exposes the key DSM primitives of the paper's Table 2:
//
//	loadIntoCache     — Engine.LoadIntoCache
//	invalidateCache   — Engine.InvalidateCache
//	updateMainMemory  — Engine.UpdateMainMemory
//	get               — Ctx.GetF64 / GetI32 / GetI64 / GetBytes ...
//	put               — Ctx.PutF64 / PutI32 / PutI64 / PutBytes ...
//
// Objects are stored on pages located at the same virtual (global) address
// on every node (iso-address scheme, package pages); each page has a home
// node holding the reference copy. Pages are replicated into per-node
// caches on access; monitor entry invalidates the node cache and monitor
// exit ships field-granularity modification records to the home nodes,
// per the Java Memory Model.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pages"
	"repro/internal/pagestats"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// RPC service ids used by the memory subsystem.
const (
	svcFetchPage cluster.ServiceID = 1
	svcApplyDiff cluster.ServiceID = 2
)

// nodeMem is the per-node state of the memory subsystem.
type nodeMem struct {
	home  *pages.Table // reference copies of pages homed here
	cache *pages.Table // replicated copies of remote pages
	log   *WriteLog    // pending modifications to remote pages

	// fifo orders cached pages by arrival for capacity eviction.
	fifoMu sync.Mutex
	fifo   []pages.PageID // guarded by fifoMu

	// spares are page images RefreshCache swapped out of this node's
	// frames; the next page shipped to this node is copied into one
	// instead of a fresh allocation.
	spareMu sync.Mutex
	spares  [][]byte // guarded by spareMu
}

// putSpare adds a page image that nothing references any more to the
// node's spare list.
func (nm *nodeMem) putSpare(img []byte) {
	nm.spareMu.Lock()
	nm.spares = append(nm.spares, img)
	nm.spareMu.Unlock()
}

// takeSpare removes and returns a spare page image, or nil if there is
// none.
func (nm *nodeMem) takeSpare() []byte {
	nm.spareMu.Lock()
	defer nm.spareMu.Unlock()
	n := len(nm.spares)
	if n == 0 {
		return nil
	}
	img := nm.spares[n-1]
	nm.spares[n-1] = nil
	nm.spares = nm.spares[:n-1]
	return img
}

// Engine is the memory subsystem of one simulated Hyperion run.
type Engine struct {
	cl    *cluster.Cluster
	space *pages.Space
	alloc *pages.Allocator
	mach  model.Machine
	costs model.DSMCosts
	proto Protocol
	nodes []*nodeMem
	// cnt is the cluster's counter store; an event is one atomic add
	// into the acting node's pre-allocated NodeStats, no allocations.
	cnt *stats.Counters

	// ctxSeq hands out per-run thread track ids (Ctx.TID).
	ctxSeq atomic.Int64

	// tracer, when non-nil, records protocol events with virtual
	// timestamps. Set once before the run via SetTracer.
	tracer *trace.Buffer

	// prof, when non-nil, accumulates per-page sharing statistics. Set
	// once before the run via SetPageProfiler; every hook site is a
	// single nil check when disabled, same bargain as tracer.
	prof *pagestats.Profiler

	// Precomputed at NewEngine so the fault, flush and RPC-service paths
	// neither copy the cluster model nor redo the same arithmetic per
	// message. cycle stays a float64 factor (not folded into the per-byte
	// costs) so the per-byte charges round exactly as they always have.
	serviceCost vtime.Duration // ServiceCycles
	batchSetup  vtime.Duration // BatchSetupCycles
	cycle       float64        // one CPU cycle, in vtime units
}

// SetTracer attaches an event recorder. Call before spawning threads.
func (e *Engine) SetTracer(b *trace.Buffer) { e.tracer = b }

// Tracer returns the attached recorder, if any.
func (e *Engine) Tracer() *trace.Buffer { return e.tracer }

// SetPageProfiler attaches a per-page sharing profiler and configures
// it with the engine's cluster geometry. Call before spawning threads;
// attach a fresh profiler per run.
func (e *Engine) SetPageProfiler(p *pagestats.Profiler) error {
	if p != nil {
		if err := p.Configure(e.cl.Size(), e.space.PageSize(), e.space.Home); err != nil {
			return err
		}
	}
	e.prof = p
	return nil
}

// PageProfiler returns the attached profiler, if any.
func (e *Engine) PageProfiler() *pagestats.Profiler { return e.prof }

// traceEvent records an event when tracing is enabled. With no tracer
// attached this is one nil check and no allocations.
//
//hyperion:hotpath
func (e *Engine) traceEvent(at vtime.Time, node int, tid int64, kind trace.Kind, arg, aux int64) {
	if e.tracer != nil {
		e.tracer.Record(trace.Event{At: at, Node: node, TID: tid, Kind: kind, Arg: arg, Aux: aux})
	}
}

// NewEngine builds the memory subsystem for a cluster and binds the given
// protocol to it.
func NewEngine(cl *cluster.Cluster, costs model.DSMCosts, proto Protocol) *Engine {
	cfg := cl.Config()
	e := &Engine{
		cl:    cl,
		space: pages.NewSpace(cl.Size(), cfg.PageSize),
		mach:  cfg.Machine,
		costs: costs,
		proto: proto,
		nodes: make([]*nodeMem, cl.Size()),
		cnt:   cl.Counters(),
	}
	e.alloc = pages.NewAllocator(e.space)
	homeOf := e.space.Home
	for i := range e.nodes {
		e.nodes[i] = &nodeMem{home: pages.NewTable(), cache: pages.NewTable(), log: NewWriteLog(homeOf)}
	}
	e.serviceCost = e.mach.Cycles(costs.ServiceCycles)
	e.batchSetup = e.mach.Cycles(costs.BatchSetupCycles)
	e.cycle = float64(e.mach.Cycle())

	cl.Register(svcFetchPage, "dsm.fetchPage", e.handleFetchPage)
	cl.Register(svcApplyDiff, "dsm.applyDiff", e.handleApplyDiff)
	e.registerVolatileServices()
	proto.Bind(e)
	return e
}

// Cluster returns the underlying cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Space returns the paged global address space.
func (e *Engine) Space() *pages.Space { return e.space }

// Protocol returns the bound consistency protocol.
func (e *Engine) Protocol() Protocol { return e.proto }

// Costs returns the engine cost parameters.
func (e *Engine) Costs() model.DSMCosts { return e.costs }

// Machine returns the per-node machine model.
func (e *Engine) Machine() model.Machine { return e.mach }

// Alloc reserves size bytes of shared memory homed at the given node with
// the given alignment and installs zeroed reference frames for every page
// the range touches. The accessing context is charged a small allocation
// cost.
func (e *Engine) Alloc(ctx *Ctx, homeNode, size, align int) (pages.Addr, error) {
	addr, err := e.alloc.Alloc(homeNode, size, align)
	if err != nil {
		return 0, err
	}
	e.installHomeFrames(homeNode, addr, size)
	ctx.clock.Advance(e.mach.Cycles(60)) // allocator bookkeeping
	return addr, nil
}

// AllocPageAligned is Alloc with page alignment, used for thread-owned
// blocks so that different threads' data never shares a page.
func (e *Engine) AllocPageAligned(ctx *Ctx, homeNode, size int) (pages.Addr, error) {
	return e.Alloc(ctx, homeNode, size, e.space.PageSize())
}

func (e *Engine) installHomeFrames(node int, addr pages.Addr, size int) {
	first := e.space.PageOf(addr)
	last := e.space.PageOf(addr + pages.Addr(size-1))
	home := e.nodes[node].home
	for p := first; p <= last; p++ {
		if f, _ := home.Lookup(p); f == nil {
			home.Install(pages.NewFrame(p, e.space.PageSize(), pages.ReadWrite))
		}
	}
}

// homeFrame returns the reference frame of page p, which must exist.
func (e *Engine) homeFrame(p pages.PageID) *pages.Frame {
	h := e.space.Home(p)
	f, _ := e.nodes[h].home.Lookup(p)
	if f == nil {
		panic(fmt.Sprintf("core: page %d has no home frame (unallocated address?)", p))
	}
	return f
}

// --- Table 2 primitives -------------------------------------------------

// LoadIntoCache fetches page p from its home node into ctx's node cache
// (the loadIntoCache primitive). The returned frame is installed with the
// given access mode. The whole page travels, which gives the pre-fetching
// effect for other objects on the same page noted in §3.1.
func (e *Engine) LoadIntoCache(ctx *Ctx, p pages.PageID, access pages.Access) *pages.Frame {
	nm := e.nodes[ctx.node]
	f := e.fetch(ctx, nm, p, nil, access)
	if cap := e.costs.CacheCapacityPages; cap > 0 {
		e.recordAndMaybeEvict(ctx, nm, p, cap)
	}
	return f
}

// fetch moves page p's home image into ctx's node cache, copying it
// exactly once: the home's reply is a private copy (see handleFetchPage)
// that is adopted as the cached frame's backing store — of f when the
// page's frame must keep its identity (RefreshCache), of a new installed
// frame when f is nil. The request is built in a buffer ctx owns.
//
// Images are recycled only where ownership is certain. A refresh swaps
// the frame's old image out under the frame's write lock, after which
// nothing can reference it, so it goes on the node's spare list for the
// next reply. The images of dropped frames are not recycled: with more
// than one thread per node, a thread may still be reading a
// *pages.Frame that another thread's monitor entry has just dropped,
// and only the garbage collector keeps that read on the right (if
// stale) page. Pooling those needs ROADMAP item 7's scheduler first.
func (e *Engine) fetch(ctx *Ctx, nm *nodeMem, p pages.PageID, f *pages.Frame, access pages.Access) *pages.Frame {
	binary.LittleEndian.PutUint64(ctx.req[:], uint64(p))
	img := e.cl.Invoke(ctx.clock, ctx.node, e.space.Home(p), svcFetchPage, ctx.req[:])
	if f == nil {
		f = pages.NewFrameFromImage(p, img, access)
		nm.cache.Install(f)
	} else {
		nm.putSpare(f.Adopt(img, access))
	}
	atomic.AddInt64(&e.cnt.Node(ctx.node).Fetches, 1)
	if e.tracer != nil {
		e.traceEvent(ctx.clock.Now(), ctx.node, ctx.tid, trace.EvFetch, int64(p), int64(nm.cache.Len()))
	}
	if e.prof != nil {
		e.prof.NoteFetch(ctx.node, p)
	}
	return f
}

// recordAndMaybeEvict appends the fetched page to the node's FIFO and, if
// the cache exceeds its capacity, evicts the oldest cached page. Pending
// modifications are flushed home first (value-logged writes make this
// safe), then the victim frame is dropped and the protocol charges its
// unmapping cost.
//
// A page may be re-fetched while a frame for it is still installed (a
// protocol re-loading a cached copy it no longer trusts, e.g. a
// write-upgrade). The re-fetch replaces the frame, so the page keeps its
// original FIFO position rather than gaining a second entry: one cached
// page must occupy exactly one capacity slot.
func (e *Engine) recordAndMaybeEvict(ctx *Ctx, nm *nodeMem, p pages.PageID, capacity int) {
	var victim pages.PageID
	evict := false
	nm.fifoMu.Lock()
	present := false
	for _, q := range nm.fifo {
		if q == p {
			present = true
			break
		}
	}
	if !present {
		nm.fifo = append(nm.fifo, p)
	}
	if len(nm.fifo) > capacity {
		victim, nm.fifo = nm.fifo[0], nm.fifo[1:]
		evict = true
	}
	nm.fifoMu.Unlock()
	if !evict || victim == p {
		return
	}
	e.UpdateMainMemory(ctx)
	if nm.cache.Drop(victim) {
		atomic.AddInt64(&e.cnt.Node(ctx.node).InvalidatedPages, 1)
		if e.prof != nil {
			e.prof.NoteInvalidate(ctx.node, victim)
		}
		e.proto.OnInvalidate(ctx, 1)
	}
}

// InvalidateCache drops every cached page on ctx's node (the
// invalidateCache primitive, run on monitor entry) and returns the number
// of entries dropped. The protocol's OnInvalidate hook charges its
// re-protection or bookkeeping cost.
func (e *Engine) InvalidateCache(ctx *Ctx) int {
	nm := e.nodes[ctx.node]
	nm.fifoMu.Lock()
	nm.fifo = nm.fifo[:0]
	nm.fifoMu.Unlock()
	var n int
	if prof := e.prof; prof != nil {
		node := ctx.node
		n = nm.cache.DropAll(func(f *pages.Frame) bool {
			prof.NoteInvalidate(node, f.Page())
			return false
		})
	} else {
		n = nm.cache.DropAll(nil)
	}
	ctx.invalidateFastPath()
	atomic.AddInt64(&e.cnt.Node(ctx.node).InvalidatedPages, int64(n))
	e.proto.OnInvalidate(ctx, n)
	e.traceEvent(ctx.clock.Now(), ctx.node, ctx.tid, trace.EvInvalidate, int64(n), 0)
	return n
}

// UpdateMainMemory ships all pending modification records of ctx's node
// to the home nodes of the modified pages (the updateMainMemory
// primitive, run on monitor exit). The RPCs are synchronous: Java
// consistency requires the main memory to be up to date before the lock
// is released.
func (e *Engine) UpdateMainMemory(ctx *Ctx) {
	e.flushHomes(ctx, false)
}

// FlushBatched is the home-based lazy-diffing release flush used by
// java_hlrc: the same per-home aggregation as UpdateMainMemory, but
// charged under the batched-diff cost model — a fixed per-home-message
// assembly cost (BatchSetupCycles) plus a cheaper per-byte cost
// (BatchPerByteCycles), because the twin-free write log already is the
// diff and needs no per-record comparison work.
func (e *Engine) FlushBatched(ctx *Ctx) {
	e.flushHomes(ctx, true)
}

// flushHomes drains the node's write log and ships one aggregated
// svcApplyDiff message per home node, in ascending home order so runs
// are deterministic. In the steady state it allocates the messages and
// nothing else: the list of them lives in ctx.
func (e *Engine) flushHomes(ctx *Ctx, batched bool) {
	var note func(pages.PageID, int, int)
	if prof := e.prof; prof != nil {
		// Every flushed record attributes its modified byte range to this
		// node — the raw material of the false-sharing detector.
		node := ctx.node
		note = func(p pages.PageID, off, n int) { prof.NoteWrite(node, p, off, n) }
	}
	ctx.diffs = e.nodes[ctx.node].log.TakeDiffs(ctx.diffs[:0], note)
	perByte := e.costs.DiffPerByteCycles
	if batched {
		perByte = e.costs.BatchPerByteCycles
	}
	ns := e.cnt.Node(ctx.node)
	for _, d := range ctx.diffs {
		if batched {
			ctx.clock.Advance(e.batchSetup)
			atomic.AddInt64(&ns.BatchedFlushes, 1)
		}
		ctx.clock.Advance(vtime.Duration(float64(len(d.msg)) * perByte * e.cycle))
		e.traceEvent(ctx.clock.Now(), ctx.node, ctx.tid, trace.EvFlush, int64(len(d.msg)), int64(d.home))
		e.cl.Invoke(ctx.clock, ctx.node, d.home, svcApplyDiff, d.msg)
		atomic.AddInt64(&ns.FlushMessages, 1)
		atomic.AddInt64(&ns.FlushBytes, int64(len(d.msg)))
	}
}

// Acquire implements the memory semantics of monitor entry by delegating
// to the bound protocol: the invalidation-based protocols flush pending
// modifications and invalidate the node cache; the update-based protocol
// refreshes cached pages instead.
func (e *Engine) Acquire(ctx *Ctx) {
	e.proto.Acquire(ctx)
}

// FlushAndInvalidate is the default acquire action shared by the
// invalidation-based protocols: flush pending modifications (so no dirty
// data is lost), then invalidate the node cache so subsequent reads
// observe main memory.
func (e *Engine) FlushAndInvalidate(ctx *Ctx) {
	e.UpdateMainMemory(ctx)
	e.InvalidateCache(ctx)
}

// RefreshCache re-fetches the content of every cached page from its home
// without dropping the frames — the update-based acquire. The refreshed
// copies are mapped READ/WRITE, so no faults follow.
func (e *Engine) RefreshCache(ctx *Ctx) int {
	nm := e.nodes[ctx.node]
	var cached []*pages.Frame
	nm.cache.ForEach(func(f *pages.Frame) { cached = append(cached, f) })
	for _, f := range cached {
		e.fetch(ctx, nm, f.Page(), f, pages.ReadWrite)
	}
	return len(cached)
}

// Release implements the memory semantics of monitor exit by delegating
// to the bound protocol: the eager protocols transmit all local
// modifications to the central memory immediately; java_hlrc ships them
// as aggregated batched diffs.
func (e *Engine) Release(ctx *Ctx) {
	e.proto.Release(ctx)
}

// --- RPC handlers (run at the page's home node) --------------------------

// handleFetchPage replies with a copy of the home image taken under the
// home frame's read lock, into one of the requester's spare images when
// it has one. Ownership rule of the fetch path: the reply is never
// aliased to the home frame and never retained here, because the
// requester adopts it as its cached frame's backing store — writes at
// home must not show in that copy, nor its writes at home.
func (e *Engine) handleFetchPage(call *cluster.Call) []byte {
	p := pages.PageID(binary.LittleEndian.Uint64(call.Arg))
	call.Clock.Advance(e.serviceCost)
	return e.homeFrame(p).SnapshotInto(e.nodes[call.From].takeSpare())
}

func (e *Engine) handleApplyDiff(call *cluster.Call) []byte {
	call.Clock.Advance(e.serviceCost)
	call.Clock.Advance(vtime.Duration(float64(len(call.Arg)) * e.costs.DiffPerByteCycles * e.cycle))
	var f *pages.Frame // a page's records are contiguous: look its frame up once
	err := walkDiff(call.Arg, func(p pages.PageID, off int, data []byte) {
		if f == nil || f.Page() != p {
			f = e.homeFrame(p)
		}
		f.Write(off, data)
	})
	if err != nil {
		panic(err) // a malformed diff is a bug in the engine itself
	}
	e.traceEvent(call.Clock.Now(), call.Node.ID(), trace.ServiceTID, trace.EvApply, int64(len(call.Arg)), int64(call.From))
	return nil
}

// HomeSnapshot returns a copy of every reference (home) page image in
// the system, keyed by page id. This is the "main memory" observable the
// conformance suite compares across protocols: after a fully
// synchronized quiescent point, every protocol must have produced
// byte-identical reference copies.
func (e *Engine) HomeSnapshot() map[pages.PageID][]byte {
	out := make(map[pages.PageID][]byte)
	for _, nm := range e.nodes {
		nm.home.ForEach(func(f *pages.Frame) { out[f.Page()] = f.Snapshot() })
	}
	return out
}

// CacheLen reports the number of cached pages on a node (for tests and
// diagnostics).
func (e *Engine) CacheLen(node int) int { return e.nodes[node].cache.Len() }

// PendingWrites reports the pending modification records on a node.
func (e *Engine) PendingWrites(node int) (records, bytes int) {
	return e.nodes[node].log.Pending()
}

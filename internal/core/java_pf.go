package core

import (
	"sync/atomic"

	"repro/internal/pages"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// pageFault is the access detection that java_pf, java_up and java_hlrc
// share: pages are mapped READ/WRITE only where they are home or have
// been faulted in, so mapped pages cost nothing to access and a miss
// traps. The three protocols embed it and differ only in what monitor
// entry and exit do.
type pageFault struct {
	eng *Engine
}

// Bind implements Protocol.
func (p *pageFault) Bind(e *Engine) { p.eng = e }

// FastCost implements Protocol: once a page is mapped, the hardware does
// the access detection for free — the whole point of the protocol.
func (p *pageFault) FastCost() vtime.Duration { return 0 }

// Access implements Protocol: mapped pages resolve for free; a miss traps
// (fault cost), fetches the page from home, and pays one mprotect call
// to map it READ/WRITE.
//
//hyperion:hotpath
func (p *pageFault) Access(ctx *Ctx, pg pages.PageID, isHome bool) *pages.Frame {
	e := p.eng
	if isHome {
		return e.homeFrame(pg)
	}
	if f, _ := e.nodes[ctx.node].cache.Lookup(pg); f != nil && f.Access() == pages.ReadWrite {
		atomic.AddInt64(&e.cnt.Node(ctx.node).CacheHits, 1)
		return f
	}
	ctx.clock.Advance(e.mach.PageFault)
	atomic.AddInt64(&e.cnt.Node(ctx.node).Faults, 1)
	e.traceEvent(ctx.clock.Now(), ctx.node, ctx.tid, trace.EvFault, int64(pg), 0)
	if e.prof != nil {
		e.prof.NoteFault(ctx.node, pg)
	}
	f := e.LoadIntoCache(ctx, pg, pages.ReadWrite)
	p.mprotect(ctx, 1)
	return f
}

// OnInvalidate implements Protocol: re-protecting the n dropped pages
// costs one mprotect call per page — the overhead §4.3 observes growing
// with the node count for Barnes. (java_up drops pages only on capacity
// eviction.)
func (p *pageFault) OnInvalidate(ctx *Ctx, n int) { p.mprotect(ctx, n) }

// OnCtxClose implements Protocol: page faults need no per-access
// bookkeeping.
func (p *pageFault) OnCtxClose(ctx *Ctx) {}

// mprotect charges n mprotect calls to ctx.
func (p *pageFault) mprotect(ctx *Ctx, n int) {
	if n == 0 {
		return
	}
	ctx.clock.Advance(vtime.Duration(n) * p.eng.mach.Mprotect)
	atomic.AddInt64(&p.eng.cnt.Node(ctx.node).MprotectCalls, int64(n))
}

// JavaPF is the page-fault protocol of §3.3 (java_pf). Pages are mapped
// READ/WRITE only on their home node; everywhere else they are protected,
// and the protection is re-established on each monitor entry. The first
// access to a non-resident page traps: the simulated fault charges the
// platform's measured fault cost (22 us on the paper's Myrinet machines,
// 12 us on its SCI machines), fetches the page from its home, and pays an
// mprotect call to map it READ/WRITE.
//
// Its cost profile is the mirror image of java_ic's: local and
// already-cached accesses are entirely free of overhead, while remote
// object loading is more expensive (fault + mprotect on top of the
// fetch), and each monitor entry pays mprotect calls to re-protect the
// cached pages it drops.
type JavaPF struct{ pageFault }

// Name implements Protocol.
func (p *JavaPF) Name() string { return "java_pf" }

// Acquire implements Protocol: flush, then invalidate; the dropped pages
// are re-protected by OnInvalidate.
func (p *JavaPF) Acquire(ctx *Ctx) { p.eng.FlushAndInvalidate(ctx) }

// Release implements Protocol: eager shipment of the node's pending
// modifications under the standard diff cost model.
func (p *JavaPF) Release(ctx *Ctx) { p.eng.UpdateMainMemory(ctx) }

package core

import (
	"sync/atomic"

	"repro/internal/pages"
	"repro/internal/vtime"
)

// JavaIC is the in-line-check protocol of §3.2 (java_ic). Every access to
// an object — local or remote — performs an explicit locality check; if
// the object has no copy on the node, the page holding it is loaded into
// the cache. No page is ever protected: shared memory is mapped
// READ/WRITE on all nodes for the whole run, so the protocol performs no
// page faults and no mprotect calls at all.
//
// Its cost profile is therefore: a constant per-access overhead (the
// check), a cheap miss path (just the fetch), and a cheap invalidation
// (clearing presence entries).
type JavaIC struct {
	eng        *Engine
	checkCost  vtime.Duration
	lookupCost vtime.Duration
	invalEntry vtime.Duration
}

// Name implements Protocol.
func (p *JavaIC) Name() string { return "java_ic" }

// Bind implements Protocol.
func (p *JavaIC) Bind(e *Engine) {
	p.eng = e
	m := e.mach
	p.checkCost = m.Cycles(m.CheckCycles)
	p.lookupCost = m.Cycles(e.costs.CacheLookupCycles)
	p.invalEntry = m.Cycles(e.costs.InvalidateEntryCycles)
}

// FastCost implements Protocol: the in-line check is paid on every single
// access, which is precisely the overhead the paper measures against
// java_pf.
func (p *JavaIC) FastCost() vtime.Duration { return p.checkCost }

// Access implements Protocol.
func (p *JavaIC) Access(ctx *Ctx, pg pages.PageID, isHome bool) *pages.Frame {
	ctx.clock.Advance(p.checkCost)
	if isHome {
		return p.eng.homeFrame(pg)
	}
	ctx.clock.Advance(p.lookupCost)
	if f, _ := p.eng.nodes[ctx.node].cache.Lookup(pg); f != nil {
		atomic.AddInt64(&p.eng.cnt.Node(ctx.node).CacheHits, 1)
		return f
	}
	// Miss: bring the page in. Under java_ic the copy needs no
	// protection state — accesses are mediated by checks, not traps.
	return p.eng.LoadIntoCache(ctx, pg, pages.ReadWrite)
}

// Acquire implements Protocol: flush, then invalidate (clearing presence
// entries).
func (p *JavaIC) Acquire(ctx *Ctx) { p.eng.FlushAndInvalidate(ctx) }

// Release implements Protocol: eager shipment of the node's pending
// modifications under the standard diff cost model.
func (p *JavaIC) Release(ctx *Ctx) { p.eng.UpdateMainMemory(ctx) }

// OnInvalidate implements Protocol: clearing n presence entries costs a
// few cycles each and involves no system calls.
func (p *JavaIC) OnInvalidate(ctx *Ctx, n int) {
	ctx.clock.Advance(vtime.Duration(n) * p.invalEntry)
}

// OnCtxClose implements Protocol: every access the context performed ran
// one locality check.
func (p *JavaIC) OnCtxClose(ctx *Ctx) {
	atomic.AddInt64(&p.eng.cnt.Node(ctx.node).LocalityChecks, ctx.accesses)
}

package core

import (
	"repro/internal/pages"
	"repro/internal/vtime"
)

// JavaUP is an update-based Java-consistency protocol, an extension beyond
// the paper in the direction its conclusion proposes (experimenting with
// other mechanisms on the same DSM platform). Access detection works like
// java_pf — page faults, zero overhead on mapped pages — but monitor entry
// *refreshes* the node's cached pages from their homes instead of
// invalidating them.
//
// The tradeoff against java_pf: acquires become more expensive (every
// cached page is re-fetched, used or not) while the faults that would
// re-load hot pages after each acquire disappear. Programs that re-touch
// most of their cached set between synchronizations (ASP's pivot rows,
// TSP's central structures) benefit; programs that touch scattered data
// pay for refreshing pages they no longer need.
type JavaUP struct {
	eng *Engine
}

// Name implements Protocol.
func (p *JavaUP) Name() string { return "java_up" }

// Bind implements Protocol.
func (p *JavaUP) Bind(e *Engine) { p.eng = e }

// FastCost implements Protocol: like java_pf, mapped pages are free.
func (p *JavaUP) FastCost() vtime.Duration { return 0 }

// Access implements Protocol: identical to java_pf's fault path.
func (p *JavaUP) Access(ctx *Ctx, pg pages.PageID, isHome bool) *pages.Frame {
	return p.eng.pageFaultAccess(ctx, pg, isHome)
}

// Acquire implements Protocol: flush pending modifications, then refresh
// every cached page in place. No pages are dropped and no re-protection
// happens, so no faults follow the acquire.
func (p *JavaUP) Acquire(ctx *Ctx) {
	p.eng.UpdateMainMemory(ctx)
	p.eng.RefreshCache(ctx)
}

// Release implements Protocol: eager shipment of the node's pending
// modifications under the standard diff cost model.
func (p *JavaUP) Release(ctx *Ctx) { p.eng.UpdateMainMemory(ctx) }

// OnInvalidate implements Protocol: only capacity evictions invalidate
// under the update protocol; unmapping the victim costs one mprotect.
func (p *JavaUP) OnInvalidate(ctx *Ctx, n int) { p.eng.chargeMprotect(ctx, n) }

// OnCtxClose implements Protocol.
func (p *JavaUP) OnCtxClose(ctx *Ctx) {}

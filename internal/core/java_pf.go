package core

import (
	"repro/internal/pages"
	"repro/internal/vtime"
)

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
type JavaPF struct {
	eng *Engine
}

// Name implements Protocol.
func (p *JavaPF) Name() string { return "java_pf" }

// Bind implements Protocol.
func (p *JavaPF) Bind(e *Engine) { p.eng = e }

// FastCost implements Protocol: once a page is mapped, the hardware does
// the access detection for free — the whole point of the protocol.
func (p *JavaPF) FastCost() vtime.Duration { return 0 }

// Access implements Protocol: the shared page-fault slow path (trap,
// fetch the page from home, mprotect it READ/WRITE).
func (p *JavaPF) Access(ctx *Ctx, pg pages.PageID, isHome bool) *pages.Frame {
	return p.eng.pageFaultAccess(ctx, pg, isHome)
}

// Acquire implements Protocol: flush, then invalidate; the dropped pages
// are re-protected by OnInvalidate.
func (p *JavaPF) Acquire(ctx *Ctx) { p.eng.FlushAndInvalidate(ctx) }

// Release implements Protocol: eager shipment of the node's pending
// modifications under the standard diff cost model.
func (p *JavaPF) Release(ctx *Ctx) { p.eng.UpdateMainMemory(ctx) }

// OnInvalidate implements Protocol: re-protecting the n dropped pages on
// monitor entry costs one mprotect call per page, exactly the overhead
// §4.3 observes growing with the node count for Barnes.
func (p *JavaPF) OnInvalidate(ctx *Ctx, n int) { p.eng.chargeMprotect(ctx, n) }

// OnCtxClose implements Protocol: java_pf performs no per-access
// bookkeeping.
func (p *JavaPF) OnCtxClose(ctx *Ctx) {}

package core

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
type JavaUP struct{ pageFault }

// Name implements Protocol.
func (p *JavaUP) Name() string { return "java_up" }

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

package core

// JavaHLRC is a home-based lazy-release-consistency protocol, the
// fourth point on the paper's protocol axis and the design the authors
// explicitly contrast against (TreadMarks-style diffing, §5): instead of
// twinning pages and diffing them at release, it reuses the engine's
// twin-free field-granularity write log — the log *is* the diff — and
// ships one aggregated svcApplyDiff message per home node, lazily, at
// its release boundaries: monitor exit and volatile stores.
//
// Access detection works like java_pf (page faults, zero overhead on
// mapped pages). What distinguishes java_hlrc is the write path:
//
//   - Diffs are flushed under the batched-diff cost model: a fixed
//     per-home-message assembly cost (model.DSMCosts.BatchSetupCycles)
//     plus a per-byte cost (BatchPerByteCycles) that is lower than the
//     eager protocols' DiffPerByteCycles, because replaying an
//     append-only log into a message needs no per-record twin
//     comparison or table work.
//   - A volatile store is a release boundary (the volatileReleaser
//     hook): pending diffs reach their homes before the store becomes
//     visible, bounding how long lazily-accumulated diffs linger.
//
// The cost profile this creates: programs that write many fields per
// synchronization (Jacobi interior rows, ASP pivot updates) amortize
// the fixed batch cost over large coalesced messages and win on the
// cheaper per-byte rate; programs that release after only a handful of
// writes (TSP's bound updates) pay the fixed assembly cost on nearly
// empty batches and lose to the eager protocols.
//
// Memory semantics are identical to java_pf — the conformance suite
// (internal/conformance) holds all registered protocols to the same
// observable heap contents and read values. On acquire the protocol
// still flushes a non-empty log before invalidating (the home-based
// stand-in for write notices): a node must never lose sight of its own
// not-yet-released writes when its cache drops.
type JavaHLRC struct{ pageFault }

// Name implements Protocol.
func (p *JavaHLRC) Name() string { return "java_hlrc" }

// Acquire implements Protocol: flush any not-yet-released writes as one
// batched diff (so the node's own pending writes survive the
// invalidation), then invalidate the node cache.
func (p *JavaHLRC) Acquire(ctx *Ctx) {
	p.eng.FlushBatched(ctx)
	p.eng.InvalidateCache(ctx)
}

// Release implements Protocol: the protocol's defining action — one
// aggregated, coalesced diff message per home node under the batched
// cost model.
func (p *JavaHLRC) Release(ctx *Ctx) { p.eng.FlushBatched(ctx) }

// OnVolatileWrite implements volatileReleaser: a volatile store is a
// release boundary, so lazily accumulated diffs are flushed before the
// store reaches its home.
func (p *JavaHLRC) OnVolatileWrite(ctx *Ctx) { p.eng.FlushBatched(ctx) }

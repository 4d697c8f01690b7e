package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/pages"
	"repro/internal/vtime"
)

// Ctx is the memory-access context of one simulated Java thread: its
// node, its virtual clock, and a tiny per-thread "last page" cache that
// stands in for the address-translation fast path of the compiled code.
// A Ctx is owned by exactly one goroutine.
type Ctx struct {
	eng   *Engine
	node  int
	clock *vtime.Clock

	// tid is the context's engine-unique thread id, the trace track the
	// context's events render under.
	tid int64

	// fast is a small fully-associative translation cache over recently
	// resolved pages, standing in for the registers/locality descriptors
	// the compiled code would keep live across a loop. Entries for
	// cached (non-home) pages are validated against the node cache
	// epoch; home entries never expire. Four entries cover the working
	// set of the benchmarks' inner loops (e.g. Jacobi touches three
	// source rows and one destination row per cell).
	fast     [4]fastEntry
	fastNext uint8

	// lastHome reports whether the most recent access resolved to a
	// home page, so put knows whether to record a modification.
	lastHome bool

	// accesses counts get/put operations; under java_ic every one of
	// them performs a locality check, flushed to the global counters
	// when the context closes.
	accesses int64

	scratch [8]byte

	// req is the fetch request buffer. It is separate from scratch
	// because a put's value sits in scratch while the access that
	// precedes the store may miss and fetch.
	req [8]byte

	// diffs is the list of per-home messages of the flush in progress,
	// kept to reuse its storage at the next release.
	diffs []diffMsg
}

type fastEntry struct {
	page  pages.PageID
	frame *pages.Frame
	epoch uint64
	home  bool
	valid bool
}

// NewCtx creates an access context on the given node with its clock at
// start.
func (e *Engine) NewCtx(node int, start vtime.Time) *Ctx {
	if node < 0 || node >= len(e.nodes) {
		panic(fmt.Sprintf("core: ctx on node %d of %d", node, len(e.nodes)))
	}
	return &Ctx{eng: e, node: node, clock: vtime.NewClock(start), tid: e.ctxSeq.Add(1) - 1}
}

// Node reports the node this context runs on.
func (c *Ctx) Node() int { return c.node }

// TID reports the context's engine-unique thread id (its trace track).
func (c *Ctx) TID() int64 { return c.tid }

// Clock returns the context's virtual clock.
func (c *Ctx) Clock() *vtime.Clock { return c.clock }

// Engine returns the memory subsystem this context belongs to.
func (c *Ctx) Engine() *Engine { return c.eng }

// Accesses reports the number of get/put operations performed so far.
func (c *Ctx) Accesses() int64 { return c.accesses }

// FastMisses reports a wrapping count of the accesses that missed the
// fast path and took the protocol's slow path. Two readings that are
// equal around fewer than 256 accesses prove that none of them missed —
// so they changed no fast-path state and ran no protocol action; see
// the span primitives.
func (c *Ctx) FastMisses() uint8 { return c.fastNext }

// Close flushes the context's local statistics into the cluster-wide
// counters. Call when the simulated thread terminates.
func (c *Ctx) Close() {
	c.eng.proto.OnCtxClose(c)
	c.accesses = 0
}

// MoveTo re-seats the context on another node (thread migration). The
// fast path is invalidated; pending writes stay in the origin node's log
// and will be flushed by the next monitor operation of any thread there —
// the migration machinery in the threads package performs a flush first
// so the thread's writes are home before it departs.
func (c *Ctx) MoveTo(node int) {
	if node < 0 || node >= len(c.eng.nodes) {
		panic(fmt.Sprintf("core: migrate to node %d of %d", node, len(c.eng.nodes)))
	}
	c.node = node
	c.invalidateFastPath()
}

func (c *Ctx) invalidateFastPath() {
	for i := range c.fast {
		c.fast[i].valid = false
	}
}

// frameFor resolves the frame backing page p for an access, charging the
// bound protocol's detection costs.
func (c *Ctx) frameFor(p pages.PageID) *pages.Frame {
	c.accesses++
	for i := range c.fast {
		e := &c.fast[i]
		if !e.valid || e.page != p {
			continue
		}
		if e.home || c.eng.nodes[c.node].cache.Epoch() == e.epoch {
			c.clock.Advance(c.eng.proto.FastCost())
			c.lastHome = e.home
			return e.frame
		}
		e.valid = false
	}
	isHome := c.eng.space.Home(p) == c.node
	f := c.eng.proto.Access(c, p, isHome)
	c.lastHome = isHome
	slot := &c.fast[c.fastNext&3]
	c.fastNext++
	*slot = fastEntry{page: p, frame: f, home: isHome, valid: true}
	if !isHome {
		slot.epoch = c.eng.nodes[c.node].cache.Epoch()
	}
	return f
}

// access validates the span [a, a+size) and returns the frame plus the
// in-page offset.
func (c *Ctx) access(a pages.Addr, size int) (*pages.Frame, int) {
	if a == 0 {
		panic("core: nil reference access")
	}
	off := c.eng.space.Offset(a)
	if off+size > c.eng.space.PageSize() {
		panic(fmt.Sprintf("core: access at %#x size %d straddles a page boundary", uint64(a), size))
	}
	return c.frameFor(c.eng.space.PageOf(a)), off
}

// --- get primitives ------------------------------------------------------

// GetF64 reads a float64 field at global address a.
func (c *Ctx) GetF64(a pages.Addr) float64 {
	f, off := c.access(a, 8)
	f.Read(off, c.scratch[:8])
	return math.Float64frombits(binary.LittleEndian.Uint64(c.scratch[:8]))
}

// GetI64 reads an int64 field at a.
func (c *Ctx) GetI64(a pages.Addr) int64 {
	f, off := c.access(a, 8)
	f.Read(off, c.scratch[:8])
	return int64(binary.LittleEndian.Uint64(c.scratch[:8]))
}

// GetI32 reads an int32 field at a.
func (c *Ctx) GetI32(a pages.Addr) int32 {
	f, off := c.access(a, 4)
	f.Read(off, c.scratch[:4])
	return int32(binary.LittleEndian.Uint32(c.scratch[:4]))
}

// GetU8 reads a byte at a.
func (c *Ctx) GetU8(a pages.Addr) byte {
	f, off := c.access(a, 1)
	f.Read(off, c.scratch[:1])
	return c.scratch[0]
}

// --- put primitives ------------------------------------------------------

// put writes size bytes from c.scratch to address a, recording the
// modification if the page is homed remotely.
func (c *Ctx) put(a pages.Addr, size int) {
	f, off := c.access(a, size)
	f.Write(off, c.scratch[:size])
	if !c.lastHome {
		c.eng.nodes[c.node].log.Record(c.eng.space.PageOf(a), off, c.scratch[:size])
	}
}

// PutF64 writes a float64 field at a.
func (c *Ctx) PutF64(a pages.Addr, v float64) {
	binary.LittleEndian.PutUint64(c.scratch[:8], math.Float64bits(v))
	c.put(a, 8)
}

// PutI64 writes an int64 field at a.
func (c *Ctx) PutI64(a pages.Addr, v int64) {
	binary.LittleEndian.PutUint64(c.scratch[:8], uint64(v))
	c.put(a, 8)
}

// PutI32 writes an int32 field at a.
func (c *Ctx) PutI32(a pages.Addr, v int32) {
	binary.LittleEndian.PutUint32(c.scratch[:4], uint32(v))
	c.put(a, 4)
}

// PutU8 writes a byte at a.
func (c *Ctx) PutU8(a pages.Addr, v byte) {
	c.scratch[0] = v
	c.put(a, 1)
}

// --- bulk primitives -----------------------------------------------------

// GetBytes copies len(dst) bytes starting at a into dst, spanning pages
// as needed. It counts as one access per page touched (the compiled code
// would check locality once per object, and a bulk copy like
// System.arraycopy checks per chunk).
func (c *Ctx) GetBytes(a pages.Addr, dst []byte) {
	for len(dst) > 0 {
		off := c.eng.space.Offset(a)
		n := c.eng.space.PageSize() - off
		if n > len(dst) {
			n = len(dst)
		}
		f := c.frameFor(c.eng.space.PageOf(a))
		f.Read(off, dst[:n])
		dst = dst[n:]
		a += pages.Addr(n)
	}
}

// PutBytes copies src to a, spanning pages as needed and recording the
// modifications for remote pages.
func (c *Ctx) PutBytes(a pages.Addr, src []byte) {
	for len(src) > 0 {
		off := c.eng.space.Offset(a)
		n := c.eng.space.PageSize() - off
		if n > len(src) {
			n = len(src)
		}
		p := c.eng.space.PageOf(a)
		f := c.frameFor(p)
		f.Write(off, src[:n])
		if !c.lastHome {
			c.eng.nodes[c.node].log.Record(p, off, src[:n])
		}
		src = src[n:]
		a += pages.Addr(n)
	}
}

// --- span primitives -----------------------------------------------------
//
// The span primitives move consecutive elements of one array between the
// heap and a Go slice, charging exactly what the element loop over them
// would: per page-run, the first element resolves its frame through
// frameFor (the protocol's detection, fetch and fast-path bookkeeping),
// and the other k-1 elements are the fast-path hits the loop would take
// next — k-1 FastCost charges in one Advance, since virtual time is
// integer picoseconds. The elements move under one acquisition of the
// frame's lock. A put to a remotely homed page logs one modification
// record per element, as k single puts would, so flushed diffs are
// byte-identical. This is exact as long as no other thread of the node
// changes the cache epoch between the elements, which is the existing
// host-scheduled variance of runs with more than one thread per node.
// Unlike GetBytes and PutBytes (one access per page touched), a span of
// k elements counts k accesses.

// spanRun resolves the page-run of at most n elements of size bytes
// starting at a. It returns the run's frame, in-page offset and length,
// having charged the run's k accesses.
func (c *Ctx) spanRun(a pages.Addr, size, n int) (*pages.Frame, int, int) {
	if a == 0 {
		panic("core: nil reference access")
	}
	off := c.eng.space.Offset(a)
	k := (c.eng.space.PageSize() - off) / size
	if k == 0 {
		panic(fmt.Sprintf("core: access at %#x size %d straddles a page boundary", uint64(a), size))
	}
	if k > n {
		k = n
	}
	f := c.frameFor(c.eng.space.PageOf(a))
	if k > 1 {
		c.clock.Advance(vtime.Duration(k-1) * c.eng.proto.FastCost())
		c.accesses += int64(k - 1)
	}
	return f, off, k
}

// GetF64s reads len(dst) consecutive float64s starting at a, as
// len(dst) GetF64 calls would.
func (c *Ctx) GetF64s(a pages.Addr, dst []float64) {
	for len(dst) > 0 {
		f, off, k := c.spanRun(a, 8, len(dst))
		f.ReadF64s(off, dst[:k])
		dst = dst[k:]
		a += pages.Addr(8 * k)
	}
}

// PutF64s writes src to consecutive float64s starting at a, as len(src)
// PutF64 calls would.
func (c *Ctx) PutF64s(a pages.Addr, src []float64) {
	for len(src) > 0 {
		f, off, k := c.spanRun(a, 8, len(src))
		f.WriteF64s(off, src[:k])
		if !c.lastHome {
			p, log := c.eng.space.PageOf(a), c.eng.nodes[c.node].log
			for i, v := range src[:k] {
				binary.LittleEndian.PutUint64(c.scratch[:8], math.Float64bits(v))
				log.Record(p, off+8*i, c.scratch[:8])
			}
		}
		src = src[k:]
		a += pages.Addr(8 * k)
	}
}

// GetI32s reads len(dst) consecutive int32s starting at a, as len(dst)
// GetI32 calls would.
func (c *Ctx) GetI32s(a pages.Addr, dst []int32) {
	for len(dst) > 0 {
		f, off, k := c.spanRun(a, 4, len(dst))
		f.ReadI32s(off, dst[:k])
		dst = dst[k:]
		a += pages.Addr(4 * k)
	}
}

// PutI32s writes src to consecutive int32s starting at a, as len(src)
// PutI32 calls would.
func (c *Ctx) PutI32s(a pages.Addr, src []int32) {
	for len(src) > 0 {
		f, off, k := c.spanRun(a, 4, len(src))
		f.WriteI32s(off, src[:k])
		if !c.lastHome {
			p, log := c.eng.space.PageOf(a), c.eng.nodes[c.node].log
			for i, v := range src[:k] {
				binary.LittleEndian.PutUint32(c.scratch[:4], uint32(v))
				log.Record(p, off+4*i, c.scratch[:4])
			}
		}
		src = src[k:]
		a += pages.Addr(4 * k)
	}
}

// Compute charges pure computation to the context's clock: n CPU cycles
// plus memTouches cache-missing memory references. This is how the
// benchmark kernels account for the work between shared-memory accesses.
func (c *Ctx) Compute(cycles float64, memTouches int) {
	m := &c.eng.mach
	c.clock.Advance(m.Cycles(cycles) + vtime.Duration(memTouches)*m.MemLatency)
}

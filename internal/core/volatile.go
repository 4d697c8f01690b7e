package core

import (
	"encoding/binary"

	"repro/internal/cluster"
	"repro/internal/pages"
)

// Volatile field access. The Java Memory Model gives volatile reads and
// writes main-memory semantics: they bypass the thread's working memory.
// Hyperion implements them as direct operations on the reference copy at
// the field's home node — one RPC round trip when remote, never touching
// the page cache. (The old-JMM rules the paper targets, JLS chapter 17 of
// the 1996 edition, are exactly "read/write through to main memory".)

const (
	svcReadWord  cluster.ServiceID = 3
	svcWriteWord cluster.ServiceID = 4
)

func (e *Engine) registerVolatileServices() {
	e.cl.Register(svcReadWord, "dsm.readWord", e.handleReadWord)
	e.cl.Register(svcWriteWord, "dsm.writeWord", e.handleWriteWord)
}

// ReadVolatile64 reads an 8-byte field directly from main memory (the
// home node's reference copy).
func (e *Engine) ReadVolatile64(ctx *Ctx, a pages.Addr) uint64 {
	p := e.space.PageOf(a)
	off := e.space.Offset(a)
	if off+8 > e.space.PageSize() {
		panic("core: volatile access straddles a page boundary")
	}
	home := e.space.Home(p)
	if home == ctx.node {
		var buf [8]byte
		e.homeFrame(p).Read(off, buf[:])
		ctx.clock.Advance(e.mach.Cycles(4))
		return binary.LittleEndian.Uint64(buf[:])
	}
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, uint64(a))
	reply := e.cl.Invoke(ctx.clock, ctx.node, home, svcReadWord, req)
	return binary.LittleEndian.Uint64(reply)
}

// WriteVolatile64 writes an 8-byte field directly to main memory. The
// write is synchronous: it has reached the home when the call returns,
// like a volatile store followed by the implicit memory barrier. For
// protocols whose diff shipping is lazy (java_hlrc), the store is a
// release boundary: pending diffs are flushed first, so they are home
// before the store becomes visible.
func (e *Engine) WriteVolatile64(ctx *Ctx, a pages.Addr, v uint64) {
	if r, ok := e.proto.(volatileReleaser); ok {
		r.OnVolatileWrite(ctx)
	}
	p := e.space.PageOf(a)
	off := e.space.Offset(a)
	if off+8 > e.space.PageSize() {
		panic("core: volatile access straddles a page boundary")
	}
	home := e.space.Home(p)
	if home == ctx.node {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		e.homeFrame(p).Write(off, buf[:])
		ctx.clock.Advance(e.mach.Cycles(4))
		return
	}
	req := make([]byte, 16)
	binary.LittleEndian.PutUint64(req, uint64(a))
	binary.LittleEndian.PutUint64(req[8:], v)
	e.cl.Invoke(ctx.clock, ctx.node, home, svcWriteWord, req)
}

func (e *Engine) handleReadWord(call *cluster.Call) []byte {
	a := pages.Addr(binary.LittleEndian.Uint64(call.Arg))
	p := e.space.PageOf(a)
	call.Clock.Advance(e.mach.Cycles(e.costs.ServiceCycles / 4))
	out := make([]byte, 8)
	e.homeFrame(p).Read(e.space.Offset(a), out)
	return out
}

func (e *Engine) handleWriteWord(call *cluster.Call) []byte {
	a := pages.Addr(binary.LittleEndian.Uint64(call.Arg))
	p := e.space.PageOf(a)
	call.Clock.Advance(e.mach.Cycles(e.costs.ServiceCycles / 4))
	e.homeFrame(p).Write(e.space.Offset(a), call.Arg[8:16])
	return nil
}

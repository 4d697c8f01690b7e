// Package jmm implements the Java-facing object model of Hyperion-Go:
// shared typed arrays allocated in the DSM's iso-address space, and the
// synchronization constructs of the Java Memory Model — monitors whose
// entry invalidates the node's object cache and whose exit transmits the
// node's modifications to main memory (§3.1 of the paper), plus the
// monitor-built barriers the benchmark programs use.
package jmm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pages"
	"repro/internal/threads"
)

// Heap allocates shared Java objects (arrays) in the DSM.
type Heap struct {
	eng *core.Engine
}

// NewHeap wraps a memory engine.
func NewHeap(eng *core.Engine) *Heap { return &Heap{eng: eng} }

// Engine returns the underlying memory subsystem.
func (h *Heap) Engine() *core.Engine { return h.eng }

// alloc reserves n*elem bytes homed at the given node. If aligned is
// true the array starts on a fresh page (used for thread-owned blocks so
// two threads' data never shares a page).
func (h *Heap) alloc(t *threads.Thread, home, n, elem int, aligned bool) pages.Addr {
	if n < 0 {
		panic(fmt.Sprintf("jmm: negative array length %d", n))
	}
	size := n * elem
	if size == 0 {
		size = elem // keep a valid non-nil base for empty arrays
	}
	var (
		a   pages.Addr
		err error
	)
	if aligned {
		a, err = h.eng.AllocPageAligned(t.Ctx(), home, size)
	} else {
		a, err = h.eng.Alloc(t.Ctx(), home, size, 8)
	}
	if err != nil {
		panic(fmt.Sprintf("jmm: allocation failed: %v", err))
	}
	return a
}

// F64Array is a shared array of Java doubles.
type F64Array struct {
	base pages.Addr
	n    int
}

// NewF64Array allocates a double[] homed at the given node.
func (h *Heap) NewF64Array(t *threads.Thread, home, n int) F64Array {
	return F64Array{base: h.alloc(t, home, n, 8, false), n: n}
}

// NewF64ArrayAligned allocates a page-aligned double[] homed at the
// given node.
func (h *Heap) NewF64ArrayAligned(t *threads.Thread, home, n int) F64Array {
	return F64Array{base: h.alloc(t, home, n, 8, true), n: n}
}

// Len reports the array length.
func (a F64Array) Len() int { return a.n }

// Addr returns the array's base address (for diagnostics).
func (a F64Array) Addr() pages.Addr { return a.base }

// Get reads element i through the DSM get primitive.
func (a F64Array) Get(t *threads.Thread, i int) float64 {
	a.bounds(i)
	return t.Ctx().GetF64(a.base + pages.Addr(i*8))
}

// Set writes element i through the DSM put primitive.
func (a F64Array) Set(t *threads.Thread, i int, v float64) {
	a.bounds(i)
	t.Ctx().PutF64(a.base+pages.Addr(i*8), v)
}

// GetRange reads elements [i, i+len(dst)) into dst through the DSM's
// span get primitive, charging what len(dst) Get calls would.
func (a F64Array) GetRange(t *threads.Thread, i int, dst []float64) {
	a.rangeBounds(i, len(dst))
	t.Ctx().GetF64s(a.base+pages.Addr(i*8), dst)
}

// SetRange writes src to elements [i, i+len(src)) through the DSM's span
// put primitive, charging what len(src) Set calls would.
func (a F64Array) SetRange(t *threads.Thread, i int, src []float64) {
	a.rangeBounds(i, len(src))
	t.Ctx().PutF64s(a.base+pages.Addr(i*8), src)
}

// RunEnd returns the end of the page-run holding element i: the first
// index after i whose element lies on another page, or Len().
func (a F64Array) RunEnd(t *threads.Thread, i int) int {
	a.bounds(i)
	return runEnd(t, a.base, i, 8, a.n)
}

func (a F64Array) bounds(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("jmm: index %d out of range [0,%d)", i, a.n))
	}
}

func (a F64Array) rangeBounds(i, n int) {
	if i < 0 || n < 0 || i+n > a.n {
		panic(fmt.Sprintf("jmm: range [%d,%d) out of range [0,%d)", i, i+n, a.n))
	}
}

// I32Array is a shared array of Java ints.
type I32Array struct {
	base pages.Addr
	n    int
}

// NewI32Array allocates an int[] homed at the given node.
func (h *Heap) NewI32Array(t *threads.Thread, home, n int) I32Array {
	return I32Array{base: h.alloc(t, home, n, 4, false), n: n}
}

// NewI32ArrayAligned allocates a page-aligned int[] homed at the given
// node.
func (h *Heap) NewI32ArrayAligned(t *threads.Thread, home, n int) I32Array {
	return I32Array{base: h.alloc(t, home, n, 4, true), n: n}
}

// Len reports the array length.
func (a I32Array) Len() int { return a.n }

// Addr returns the array's base address.
func (a I32Array) Addr() pages.Addr { return a.base }

// Get reads element i.
func (a I32Array) Get(t *threads.Thread, i int) int32 {
	a.bounds(i)
	return t.Ctx().GetI32(a.base + pages.Addr(i*4))
}

// Set writes element i.
func (a I32Array) Set(t *threads.Thread, i int, v int32) {
	a.bounds(i)
	t.Ctx().PutI32(a.base+pages.Addr(i*4), v)
}

// GetRange reads elements [i, i+len(dst)) into dst through the DSM's
// span get primitive, charging what len(dst) Get calls would.
func (a I32Array) GetRange(t *threads.Thread, i int, dst []int32) {
	a.rangeBounds(i, len(dst))
	t.Ctx().GetI32s(a.base+pages.Addr(i*4), dst)
}

// SetRange writes src to elements [i, i+len(src)) through the DSM's span
// put primitive, charging what len(src) Set calls would.
func (a I32Array) SetRange(t *threads.Thread, i int, src []int32) {
	a.rangeBounds(i, len(src))
	t.Ctx().PutI32s(a.base+pages.Addr(i*4), src)
}

// RunEnd returns the end of the page-run holding element i: the first
// index after i whose element lies on another page, or Len().
func (a I32Array) RunEnd(t *threads.Thread, i int) int {
	a.bounds(i)
	return runEnd(t, a.base, i, 4, a.n)
}

func (a I32Array) bounds(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("jmm: index %d out of range [0,%d)", i, a.n))
	}
}

func (a I32Array) rangeBounds(i, n int) {
	if i < 0 || n < 0 || i+n > a.n {
		panic(fmt.Sprintf("jmm: range [%d,%d) out of range [0,%d)", i, i+n, a.n))
	}
}

// runEnd is RunEnd for an array of n elements of size bytes at base.
func runEnd(t *threads.Thread, base pages.Addr, i, size, n int) int {
	sp := t.Ctx().Engine().Space()
	end := i + (sp.PageSize()-sp.Offset(base+pages.Addr(i*size)))/size
	if end > n {
		end = n
	}
	return end
}

// I64Array is a shared array of Java longs.
type I64Array struct {
	base pages.Addr
	n    int
}

// NewI64Array allocates a long[] homed at the given node.
func (h *Heap) NewI64Array(t *threads.Thread, home, n int) I64Array {
	return I64Array{base: h.alloc(t, home, n, 8, false), n: n}
}

// Len reports the array length.
func (a I64Array) Len() int { return a.n }

// Get reads element i.
func (a I64Array) Get(t *threads.Thread, i int) int64 {
	a.bounds(i)
	return t.Ctx().GetI64(a.base + pages.Addr(i*8))
}

// Set writes element i.
func (a I64Array) Set(t *threads.Thread, i int, v int64) {
	a.bounds(i)
	t.Ctx().PutI64(a.base+pages.Addr(i*8), v)
}

func (a I64Array) bounds(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("jmm: index %d out of range [0,%d)", i, a.n))
	}
}

// Package jacobi implements the paper's Jacobi benchmark: the temperature
// distribution on an insulated plate after a number of time steps, on an
// N x N mesh (1024 x 1024 for 100 steps in the paper). Each thread owns a
// block of contiguous rows; every step it must read one "boundary" row
// from its north neighbor and one from its south neighbor — the classic
// near-neighbor exchange whose communication volume is independent of the
// cluster size, which is why §4.3 reports constant communication costs for
// this program.
//
// The mesh rows are distributed across nodes (each block is page-aligned
// and homed at its owner's node), and all element accesses go through the
// DSM get/put primitives: 4 reads and 1 write per interior cell, exactly
// the access pattern whose per-access in-line check java_ic pays for.
package jacobi

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/jmm"
	"repro/internal/threads"
)

// Per-cell computation: 3 double adds + 1 multiply. On the modeled
// machines the FPU work is ~30 cycles; the stencil also misses the data
// cache on roughly one operand per cell for paper-size meshes, charged as
// MemTouches per cell via the machine's memory latency.
const (
	CellCycles    = 24
	CellMemTouch  = 1
	boundaryValue = 100.0 // fixed hot boundary on row 0
)

// Jacobi is the benchmark instance.
type Jacobi struct {
	N     int // mesh dimension
	Steps int // time steps

	// relax is the row update Run uses; nil means relaxRow. Tests set
	// the element loop that relaxRow must reproduce exactly.
	relax func(t *threads.Thread, src, dst *mesh, i int)
}

// New returns a Jacobi instance for an n x n mesh over the given steps.
func New(n, steps int) *Jacobi { return &Jacobi{N: n, Steps: steps} }

// Paper returns the paper-scale instance (1024 x 1024 mesh, 100 steps).
func Paper() *Jacobi { return New(1024, 100) }

// Default returns a scaled-down instance suitable for fast sweeps.
func Default() *Jacobi { return New(256, 10) }

// Name implements apps.App.
func (j *Jacobi) Name() string { return "jacobi" }

// mesh is a row-distributed N x N double matrix: each worker's row block
// is a page-aligned array homed at the worker's node.
type mesh struct {
	n      int
	blocks []jmm.F64Array // one per worker
	lo     []int          // first row of each block
}

func newMesh(main *threads.Thread, h *jmm.Heap, n, workers int) *mesh {
	m := &mesh{n: n, blocks: make([]jmm.F64Array, workers), lo: make([]int, workers)}
	clusterSize := h.Engine().Cluster().Size()
	for w := 0; w < workers; w++ {
		lo, hi := apps.BlockRange(n, workers, w)
		m.lo[w] = lo
		node := w % clusterSize // round-robin placement, like the threads
		m.blocks[w] = h.NewF64ArrayAligned(main, node, (hi-lo)*n)
	}
	return m
}

// addr returns the containing block array and flat index of cell (i, j).
func (m *mesh) addr(i, j int) (jmm.F64Array, int) {
	w := apps.OwnerOf(m.n, len(m.blocks), i)
	return m.blocks[w], (i-m.lo[w])*m.n + j
}

func (m *mesh) get(t *threads.Thread, i, j int) float64 {
	b, idx := m.addr(i, j)
	return b.Get(t, idx)
}

func (m *mesh) set(t *threads.Thread, i, j int, v float64) {
	b, idx := m.addr(i, j)
	b.Set(t, idx, v)
}

// relaxRow computes row i of dst from src: four reads and one write per
// interior cell, run as spans (apps.Spans). Row i-1 is remote for the
// first row of a block, row i+1 for the last.
func relaxRow(t *threads.Thread, src, dst *mesh, i int) {
	n := src.n
	ub, ubase := src.addr(i-1, 0)
	db, dbase := src.addr(i+1, 0)
	sb, sbase := src.addr(i, 0)
	wb, wbase := dst.addr(i, 0)
	var ubuf, dbuf, lbuf, rbuf, obuf [apps.SpanChunk]float64
	apps.Spans(t, 1, n-1,
		func(col int) int {
			return min(ub.RunEnd(t, ubase+col)-ubase,
				db.RunEnd(t, dbase+col)-dbase,
				sb.RunEnd(t, sbase+col-1)-sbase+1,
				sb.RunEnd(t, sbase+col+1)-sbase-1,
				wb.RunEnd(t, wbase+col)-wbase)
		},
		func(col int) {
			up := ub.Get(t, ubase+col)
			down := db.Get(t, dbase+col)
			left := sb.Get(t, sbase+col-1)
			right := sb.Get(t, sbase+col+1)
			wb.Set(t, wbase+col, 0.25*(up+down+left+right))
		},
		func(col, c int) {
			up, down, left, right, out := ubuf[:c], dbuf[:c], lbuf[:c], rbuf[:c], obuf[:c]
			ub.GetRange(t, ubase+col, up)
			db.GetRange(t, dbase+col, down)
			sb.GetRange(t, sbase+col-1, left)
			sb.GetRange(t, sbase+col+1, right)
			for x := range out {
				out[x] = 0.25 * (up[x] + down[x] + left[x] + right[x])
			}
			wb.SetRange(t, wbase+col, out)
		})
}

// Run implements apps.App.
func (j *Jacobi) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	n := j.N
	relax := j.relax
	if relax == nil {
		relax = relaxRow
	}
	var sample [3]float64
	rt.Main(func(main *threads.Thread) {
		a := newMesh(main, h, n, workers)
		b := newMesh(main, h, n, workers)
		bar := h.NewBarrier(0, workers)

		ws := make([]*threads.Thread, workers)
		for w := 0; w < workers; w++ {
			w := w
			ws[w] = rt.Spawn(main, func(t *threads.Thread) {
				lo, hi := apps.BlockRange(n, workers, w)
				// Initialize owned rows: hot north boundary, cold
				// interior. Owned rows are home-local writes.
				for i := lo; i < hi; i++ {
					for col := 0; col < n; col++ {
						v := 0.0
						if i == 0 {
							v = boundaryValue
						}
						a.set(t, i, col, v)
						b.set(t, i, col, v)
					}
					t.Compute(float64(n)*4, 0)
				}
				bar.Await(t)

				src, dst := a, b
				for step := 0; step < j.Steps; step++ {
					for i := lo; i < hi; i++ {
						if i == 0 || i == n-1 {
							continue // insulated/fixed boundary rows
						}
						relax(t, src, dst, i)
						t.Compute(CellCycles*float64(n-2), CellMemTouch*(n-2))
					}
					bar.Await(t)
					src, dst = dst, src
				}
			})
		}
		for _, w := range ws {
			rt.Join(main, w)
		}

		// Sample the final mesh for validation (steps even => result in a).
		final := a
		if j.Steps%2 == 1 {
			final = b
		}
		sample[0] = final.get(main, 1, n/2)
		sample[1] = final.get(main, n/2, n/2)
		sample[2] = final.get(main, n-2, n/2)
	})

	ref := j.reference()
	refSample := [3]float64{ref[1][n/2], ref[n/2][n/2], ref[n-2][n/2]}
	maxErr := 0.0
	for k := range sample {
		if e := math.Abs(sample[k] - refSample[k]); e > maxErr {
			maxErr = e
		}
	}
	return apps.Check{
		Summary: fmt.Sprintf("t(1,mid)=%.6f t(mid,mid)=%.6f maxerr=%.3g", sample[0], sample[1], maxErr),
		Valid:   maxErr < 1e-9,
	}
}

// Flat is the naive-layout variant of the same stencil: one contiguous
// N x N mesh in a single allocation homed at node 0 — the layout a
// direct sequential port produces when the main thread allocates the
// matrix. Where stock Jacobi's page-aligned, owner-homed row blocks
// make every owned-row write home-local (zero write-log traffic, the
// layout the paper's constant-communication result depends on), Flat
// makes every non-node-0 worker write remotely, and because row-block
// boundaries fall mid-page, adjacent workers write disjoint byte
// ranges of the same page: textbook false sharing, built as the page
// profiler's demonstrator. Not part of the paper's five-benchmark
// suite.
type Flat struct {
	N     int
	Steps int
}

// NewFlat returns a Flat instance for an n x n mesh over the given
// steps.
func NewFlat(n, steps int) *Flat { return &Flat{N: n, Steps: steps} }

// FlatDefault returns the scaled-down demonstrator instance. n = 250
// keeps rows (2000 bytes) misaligned with the 4096-byte page, so block
// boundaries land mid-page for the usual worker counts; n = 256 would
// page-align every boundary and hide the false sharing.
func FlatDefault() *Flat { return NewFlat(250, 10) }

// FlatPaper returns a paper-scale-sized instance. 1022 (not 1024)
// keeps rows page-misaligned for the same reason as FlatDefault.
func FlatPaper() *Flat { return NewFlat(1022, 100) }

// Name implements apps.App.
func (j *Flat) Name() string { return "jacobi-flat" }

// Run implements apps.App. Same phases as Jacobi.Run; only the mesh
// layout differs.
func (j *Flat) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	n := j.N
	var sample [3]float64
	rt.Main(func(main *threads.Thread) {
		const meshHome = 0
		a := h.NewF64Array(main, meshHome, n*n)
		b := h.NewF64Array(main, meshHome, n*n)
		bar := h.NewBarrier(0, workers)

		ws := make([]*threads.Thread, workers)
		for w := 0; w < workers; w++ {
			w := w
			ws[w] = rt.Spawn(main, func(t *threads.Thread) {
				lo, hi := apps.BlockRange(n, workers, w)
				for i := lo; i < hi; i++ {
					for col := 0; col < n; col++ {
						v := 0.0
						if i == 0 {
							v = boundaryValue
						}
						a.Set(t, i*n+col, v)
						b.Set(t, i*n+col, v)
					}
					t.Compute(float64(n)*4, 0)
				}
				bar.Await(t)

				src, dst := a, b
				for step := 0; step < j.Steps; step++ {
					for i := lo; i < hi; i++ {
						if i == 0 || i == n-1 {
							continue
						}
						for col := 1; col < n-1; col++ {
							up := src.Get(t, (i-1)*n+col)
							down := src.Get(t, (i+1)*n+col)
							left := src.Get(t, i*n+col-1)
							right := src.Get(t, i*n+col+1)
							dst.Set(t, i*n+col, 0.25*(up+down+left+right))
						}
						t.Compute(CellCycles*float64(n-2), CellMemTouch*(n-2))
					}
					bar.Await(t)
					src, dst = dst, src
				}
			})
		}
		for _, w := range ws {
			rt.Join(main, w)
		}

		final := a
		if j.Steps%2 == 1 {
			final = b
		}
		sample[0] = final.Get(main, 1*n+n/2)
		sample[1] = final.Get(main, (n/2)*n+n/2)
		sample[2] = final.Get(main, (n-2)*n+n/2)
	})

	ref := (&Jacobi{N: j.N, Steps: j.Steps}).reference()
	refSample := [3]float64{ref[1][n/2], ref[n/2][n/2], ref[n-2][n/2]}
	maxErr := 0.0
	for k := range sample {
		if e := math.Abs(sample[k] - refSample[k]); e > maxErr {
			maxErr = e
		}
	}
	return apps.Check{
		Summary: fmt.Sprintf("t(1,mid)=%.6f t(mid,mid)=%.6f maxerr=%.3g", sample[0], sample[1], maxErr),
		Valid:   maxErr < 1e-9,
	}
}

// reference computes the same relaxation sequentially in plain Go.
func (j *Jacobi) reference() [][]float64 {
	n := j.N
	alloc := func() [][]float64 {
		m := make([][]float64, n)
		buf := make([]float64, n*n)
		for i := range m {
			m[i], buf = buf[:n], buf[n:]
		}
		return m
	}
	a, b := alloc(), alloc()
	for col := 0; col < n; col++ {
		a[0][col] = boundaryValue
		b[0][col] = boundaryValue
	}
	src, dst := a, b
	for s := 0; s < j.Steps; s++ {
		for i := 1; i < n-1; i++ {
			for col := 1; col < n-1; col++ {
				dst[i][col] = 0.25 * (src[i-1][col] + src[i+1][col] + src[i][col-1] + src[i][col+1])
			}
		}
		src, dst = dst, src
	}
	return src
}

// Package asp implements the paper's ASP benchmark: All-pairs Shortest
// Paths over a directed weighted graph using Floyd's algorithm (a
// 2000-node graph in the paper; the code is modeled on the Jackal group's
// version the authors credit). The distance matrix is distributed by
// blocks of contiguous rows; at every iteration k all threads must
// retrieve the "current" pivot row k from its owner.
//
// The innermost loop does one integer add and one compare while touching
// three shared-array elements (read d[i][j], read d[k][j], conditional
// write d[i][j]) — the paper's §4.3 singles it out as the program where
// removing the in-line locality checks has the largest impact (64% on the
// Myrinet cluster).
package asp

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/jmm"
	"repro/internal/threads"
)

// Inner-loop cost: integer add + compare + loop control, partially
// memory-bound on paper-size rows.
const (
	IterCycles   = 10
	iterMemEvery = 12 // one DRAM touch per this many iterations (streaming)
)

// Unconnected is the "no edge" marker; kept far below inf/2 so adds never
// overflow.
const Unconnected = int32(1 << 28)

// ASP is the benchmark instance.
type ASP struct {
	N    int
	Seed int64

	// relax is the row update Run uses; nil means relaxRow. Tests set
	// the element loop that relaxRow must reproduce exactly.
	relax func(t *threads.Thread, kb jmm.I32Array, kbase int, ib jmm.I32Array, ibase, n int, dik int32)
}

// New returns an ASP instance over an n-node graph with deterministic
// weights derived from seed.
func New(n int, seed int64) *ASP { return &ASP{N: n, Seed: seed} }

// Paper returns the paper-scale instance (2000-node graph).
func Paper() *ASP { return New(2000, 1) }

// Default returns a scaled-down instance suitable for fast sweeps.
func Default() *ASP { return New(224, 1) }

// Name implements apps.App.
func (p *ASP) Name() string { return "asp" }

// graph builds the adjacency matrix: a sparse-ish random directed graph.
func (p *ASP) graph() [][]int32 {
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N
	d := make([][]int32, n)
	for i := range d {
		d[i] = make([]int32, n)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case rng.Intn(4) == 0: // ~25% edge density
				d[i][j] = int32(1 + rng.Intn(99))
			default:
				d[i][j] = Unconnected
			}
		}
	}
	return d
}

// relaxRow is the paper's innermost loop over row i (elements ibase..
// ibase+n-1 of ib) against pivot row k (kbase.. of kb): an integer add
// and a compare around three object accesses per element — read
// d[k][j], read d[i][j], store the minimum back — run as spans
// (apps.Spans). dik is d[i][k], read before the loop.
func relaxRow(t *threads.Thread, kb jmm.I32Array, kbase int, ib jmm.I32Array, ibase, n int, dik int32) {
	var kbuf, ibuf [apps.SpanChunk]int32
	apps.Spans(t, 0, n,
		func(j int) int {
			return min(kb.RunEnd(t, kbase+j)-kbase, ib.RunEnd(t, ibase+j)-ibase)
		},
		func(j int) {
			alt := dik + kb.Get(t, kbase+j)
			cur := ib.Get(t, ibase+j)
			if alt > cur {
				alt = cur
			}
			ib.Set(t, ibase+j, alt)
		},
		func(j, c int) {
			krow, irow := kbuf[:c], ibuf[:c]
			kb.GetRange(t, kbase+j, krow)
			ib.GetRange(t, ibase+j, irow)
			for x, dkj := range krow {
				if alt := dik + dkj; alt < irow[x] {
					irow[x] = alt
				}
			}
			ib.SetRange(t, ibase+j, irow)
		})
}

// Run implements apps.App.
func (p *ASP) Run(rt *threads.Runtime, h *jmm.Heap, workers int) apps.Check {
	n := p.N
	g := p.graph()

	relax := p.relax
	if relax == nil {
		relax = relaxRow
	}

	// One page-aligned row block per worker, homed round-robin like the
	// worker threads.
	var checksum int64
	var sampled [3]int32
	rt.Main(func(main *threads.Thread) {
		clusterSize := h.Engine().Cluster().Size()
		blocks := make([]jmm.I32Array, workers)
		blockLo := make([]int, workers)
		for w := 0; w < workers; w++ {
			lo, hi := apps.BlockRange(n, workers, w)
			blockLo[w] = lo
			blocks[w] = h.NewI32ArrayAligned(main, w%clusterSize, (hi-lo)*n)
		}
		cell := func(i int) (jmm.I32Array, int) {
			w := apps.OwnerOf(n, workers, i)
			return blocks[w], (i - blockLo[w]) * n
		}

		bar := h.NewBarrier(0, workers)
		ws := make([]*threads.Thread, workers)
		for w := 0; w < workers; w++ {
			w := w
			ws[w] = rt.Spawn(main, func(t *threads.Thread) {
				lo, hi := apps.BlockRange(n, workers, w)
				// Initialize owned rows (home-local writes).
				for i := lo; i < hi; i++ {
					b, base := cell(i)
					for j := 0; j < n; j++ {
						b.Set(t, base+j, g[i][j])
					}
					t.Compute(float64(n)*3, 0)
				}
				bar.Await(t)

				for k := 0; k < n; k++ {
					kb, kbase := cell(k)
					for i := lo; i < hi; i++ {
						ib, ibase := cell(i)
						relax(t, kb, kbase, ib, ibase, n, ib.Get(t, ibase+k))
						t.Compute(IterCycles*float64(n), n/iterMemEvery)
					}
					bar.Await(t)
				}
			})
		}
		for _, w := range ws {
			rt.Join(main, w)
		}

		// Checksum + samples for validation.
		for i := 0; i < n; i += 1 + n/64 {
			b, base := cell(i)
			for j := 0; j < n; j += 1 + n/64 {
				checksum += int64(b.Get(main, base+j))
			}
		}
		b0, base0 := cell(0)
		sampled[0] = b0.Get(main, base0+n-1)
		bm, basem := cell(n / 2)
		sampled[1] = bm.Get(main, basem+1)
		bl, basel := cell(n - 1)
		sampled[2] = bl.Get(main, basel+0)
	})

	// Sequential Floyd reference on the same graph.
	ref := p.graph()
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := ref[i][k]
			if dik >= Unconnected {
				continue
			}
			row, krow := ref[i], ref[k]
			for j := 0; j < n; j++ {
				if alt := dik + krow[j]; alt < row[j] {
					row[j] = alt
				}
			}
		}
	}
	var refSum int64
	for i := 0; i < n; i += 1 + n/64 {
		for j := 0; j < n; j += 1 + n/64 {
			refSum += int64(ref[i][j])
		}
	}
	okSamples := sampled[0] == ref[0][n-1] && sampled[1] == ref[n/2][1] && sampled[2] == ref[n-1][0]
	return apps.Check{
		Summary: fmt.Sprintf("checksum=%d ref=%d d(0,n-1)=%d", checksum, refSum, sampled[0]),
		Valid:   checksum == refSum && okSamples,
	}
}

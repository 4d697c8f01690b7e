// Package apps defines the interface shared by the five benchmark
// programs of the paper's evaluation (§4.1): Pi, Jacobi, Barnes, TSP and
// ASP. Each program creates one computation thread per processor (or more,
// for the multi-thread-per-node experiments the paper lists as future
// work), performs real computation through the DSM get/put primitives, and
// validates its result against a sequential reference implementation.
package apps

import (
	"repro/internal/jmm"
	"repro/internal/threads"
)

// Check is the self-validation outcome of one run.
type Check struct {
	// Summary is a human-readable account of the verification (e.g.
	// "pi=3.14159265 err=2.1e-09").
	Summary string
	// Valid reports whether the computed result matched the reference.
	Valid bool
}

// App is one benchmark program.
type App interface {
	// Name is the benchmark's figure label ("pi", "jacobi", "barnes",
	// "tsp", "asp").
	Name() string

	// Run executes the program to completion on the runtime using the
	// given number of computation threads, inside rt.Main. It returns
	// the validation outcome; the caller extracts timing and statistics
	// from the runtime.
	Run(rt *threads.Runtime, h *jmm.Heap, workers int) Check
}

// BlockRange splits n items into p contiguous blocks and returns the
// half-open range of block w — the row/body partitioning used by Jacobi,
// ASP and Barnes ("each thread owns a block of contiguous rows").
func BlockRange(n, p, w int) (lo, hi int) {
	lo = w * n / p
	hi = (w + 1) * n / p
	return lo, hi
}

// OwnerOf returns the block index owning item i under BlockRange
// partitioning.
func OwnerOf(n, p, i int) int {
	// Inverse of BlockRange: the owner w satisfies lo(w) <= i < hi(w).
	w := (i*p + p - 1) / n
	for w > 0 && w*n/p > i {
		w--
	}
	for (w+1)*n/p <= i {
		w++
	}
	return w
}

// SpanChunk is the element count of the fixed-size stack buffers through
// which a converted loop moves its spans.
const SpanChunk = 256

// Spans runs iterations [lo, hi) of a loop whose body accesses shared
// arrays, charging exactly what the element loop would while taking each
// frame lock once per chunk instead of once per element.
//
// segEnd(j) > j is the end of the segment starting at j: the first
// iteration at which some operand's element lies on another page than at
// j. In each segment elem runs single iterations until one completes
// with no fast-path miss. From then on every operand's page is resolved
// and stays resolved — an all-hit iteration changes no fast-path or
// cache-epoch state, and the network model is additive — so span(j, k)
// runs the next k <= SpanChunk iterations at once, reading and writing
// its operands through the arrays' range methods in the body's operand
// order. Clocks, counters, messages and the heap come out identical to
// the element loop; runs with several threads per node keep only their
// existing host-scheduled variance.
func Spans(t *threads.Thread, lo, hi int, segEnd func(j int) int, elem func(j int), span func(j, k int)) {
	ctx := t.Ctx()
	for j := lo; j < hi; {
		end := min(segEnd(j), hi)
		for j < end {
			m := ctx.FastMisses()
			elem(j)
			j++
			if ctx.FastMisses() == m {
				break
			}
		}
		for j < end {
			k := min(end-j, SpanChunk)
			span(j, k)
			j += k
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pages"
	"repro/internal/stats"
)

// The span primitives must charge exactly what the element loop over the
// same elements charges. These tests replay one seeded script of spans
// on two identical engines, one through GetF64s/PutF64s/GetI32s/PutI32s
// and one through GetF64/PutF64/GetI32/PutI32 per element, and require
// the two runs to be indistinguishable.

// spanRig is one engine of a differential pair: three nodes, a context
// on each, and six regions (an f64 and an i32 one per home node) that
// start mid-page and span several pages.
type spanRig struct {
	e    *Engine
	cnt  *stats.Counters
	ctxs []*Ctx
	f64  []pages.Addr
	i32  []pages.Addr
}

const (
	spanRigNodes = 3
	spanRigPages = 3 // pages per region, plus the partial first one
)

func newSpanRig(t *testing.T, proto string, capacity int) *spanRig {
	t.Helper()
	cnt := &stats.Counters{}
	cl, err := cluster.New(model.Myrinet200(), spanRigNodes, cnt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol(proto)
	if err != nil {
		t.Fatal(err)
	}
	costs := model.DefaultDSMCosts()
	costs.CacheCapacityPages = capacity
	r := &spanRig{e: NewEngine(cl, costs, p), cnt: cnt}
	for n := 0; n < spanRigNodes; n++ {
		r.ctxs = append(r.ctxs, r.e.NewCtx(n, 0))
	}
	ps := r.e.Space().PageSize()
	for h := 0; h < spanRigNodes; h++ {
		// A 24-byte object first, so the regions start mid-page.
		if _, err := r.e.Alloc(r.ctxs[h], h, 24, 8); err != nil {
			t.Fatal(err)
		}
		a, err := r.e.Alloc(r.ctxs[h], h, spanRigPages*ps, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.e.Alloc(r.ctxs[h], h, spanRigPages*ps, 8)
		if err != nil {
			t.Fatal(err)
		}
		r.f64, r.i32 = append(r.f64, a), append(r.i32, b+4) // i32s on odd words too
	}
	return r
}

// spanOp is one step of the script: a span of n elements at element idx
// of region reg, run by node's context, or a monitor entry or exit.
type spanOp struct {
	kind           int // opGetF64 .. opRelease
	node, reg, idx int
	n              int
	seed           int64 // values of a put
}

const (
	opGetF64 = iota
	opPutF64
	opGetI32
	opPutI32
	opAcquire
	opRelease
)

func randomSpanScript(rng *rand.Rand, pageSize, steps int) []spanOp {
	ops := make([]spanOp, steps)
	for i := range ops {
		op := spanOp{kind: rng.Intn(opRelease + 1), node: rng.Intn(spanRigNodes), reg: rng.Intn(spanRigNodes), seed: rng.Int63()}
		if op.kind >= opAcquire && rng.Intn(3) > 0 {
			op.kind = rng.Intn(opAcquire) // keep synchronisation rarer than spans
		}
		elem := 8
		if op.kind == opGetI32 || op.kind == opPutI32 {
			elem = 4
		}
		max := (spanRigPages*pageSize - 8) / elem
		switch rng.Intn(3) {
		case 0: // short, often within one page
			op.n = 1 + rng.Intn(8)
		case 1: // up to a page
			op.n = 1 + rng.Intn(pageSize/elem)
		default: // across pages
			op.n = 1 + rng.Intn(max)
		}
		op.idx = rng.Intn(max - op.n + 1)
		ops[i] = op
	}
	return ops
}

// replay runs the script on r, spans or element loops, and returns
// everything the run can observe after each step: the values read, the
// clock of every context, and the diff messages of every release.
func (r *spanRig) replay(ops []spanOp, spans bool) [][]byte {
	var trace [][]byte
	f64s := make([]float64, 0, 4096)
	i32s := make([]int32, 0, 4096)
	for _, op := range ops {
		c := r.ctxs[op.node]
		var out bytes.Buffer
		switch op.kind {
		case opGetF64, opPutF64:
			a := r.f64[op.reg] + pages.Addr(8*op.idx)
			vs := f64s[:op.n]
			if op.kind == opPutF64 {
				rng := rand.New(rand.NewSource(op.seed))
				for i := range vs {
					vs[i] = rng.NormFloat64()
				}
				if spans {
					c.PutF64s(a, vs)
				} else {
					for i, v := range vs {
						c.PutF64(a+pages.Addr(8*i), v)
					}
				}
			} else if spans {
				c.GetF64s(a, vs)
			} else {
				for i := range vs {
					vs[i] = c.GetF64(a + pages.Addr(8*i))
				}
			}
			fmt.Fprint(&out, vs)
		case opGetI32, opPutI32:
			a := r.i32[op.reg] + pages.Addr(4*op.idx)
			vs := i32s[:op.n]
			if op.kind == opPutI32 {
				rng := rand.New(rand.NewSource(op.seed))
				for i := range vs {
					vs[i] = rng.Int31() - 1<<30
				}
				if spans {
					c.PutI32s(a, vs)
				} else {
					for i, v := range vs {
						c.PutI32(a+pages.Addr(4*i), v)
					}
				}
			} else if spans {
				c.GetI32s(a, vs)
			} else {
				for i := range vs {
					vs[i] = c.GetI32(a + pages.Addr(4*i))
				}
			}
			fmt.Fprint(&out, vs)
		case opAcquire:
			r.e.Acquire(c)
		case opRelease:
			r.e.Release(c)
			for _, d := range c.diffs {
				fmt.Fprintf(&out, "home %d: %x\n", d.home, d.msg)
			}
		}
		for _, x := range r.ctxs {
			fmt.Fprintf(&out, " %d/%d", x.clock.Now(), x.accesses)
		}
		trace = append(trace, out.Bytes())
	}
	return trace
}

func TestSpanPrimitivesMatchElementLoop(t *testing.T) {
	for _, proto := range ProtocolNames() {
		for _, capacity := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/cap=%d", proto, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(proto)*31 + capacity)))
				elem, span := newSpanRig(t, proto, capacity), newSpanRig(t, proto, capacity)
				ops := randomSpanScript(rng, elem.e.Space().PageSize(), 400)
				want, got := elem.replay(ops, false), span.replay(ops, true)
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("step %d %+v diverged:\nelement loop %s\nspan         %s", i, ops[i], want[i], got[i])
					}
				}
				for _, r := range []*spanRig{elem, span} {
					for _, c := range r.ctxs {
						r.e.Release(c)
						c.Close()
					}
				}
				if w, g := elem.cnt.Snapshot(), span.cnt.Snapshot(); w != g {
					t.Errorf("counters differ:\nelement loop %v\nspan         %v", w, g)
				}
				if w, g := elem.e.RunStats(), span.e.RunStats(); !reflect.DeepEqual(w, g) {
					t.Errorf("run stats differ:\nelement loop %+v\nspan         %+v", w, g)
				}
				if w, g := elem.e.HomeSnapshot(), span.e.HomeSnapshot(); !reflect.DeepEqual(w, g) {
					t.Error("home pages differ")
				}
				wm, wb := elem.e.Cluster().Network().Stats()
				gm, gb := span.e.Cluster().Network().Stats()
				if wm != gm || wb != gb {
					t.Errorf("network: element loop %d msgs %d bytes, span %d msgs %d bytes", wm, wb, gm, gb)
				}
			})
		}
	}
}

// A span over pages the context has already resolved takes each page's
// frame lock once and allocates nothing, home or cached, get or put.
func TestWarmSpanAllocatesNothing(t *testing.T) {
	for _, proto := range ProtocolNames() {
		r := newSpanRig(t, proto, 0)
		c := r.ctxs[0]
		f64s := make([]float64, 1000) // crosses pages
		i32s := make([]int32, 1000)
		local, remote := r.f64[0], r.f64[1]
		localI, remoteI := r.i32[0], r.i32[2]
		warm := func() {
			c.GetF64s(local, f64s)
			c.PutF64s(local, f64s)
			c.GetF64s(remote, f64s)
			c.GetI32s(localI, i32s)
			c.PutI32s(localI, i32s)
			c.GetI32s(remoteI, i32s)
		}
		if n := testing.AllocsPerRun(100, warm); n != 0 {
			t.Errorf("%s: warm spans = %v allocations, want 0", proto, n)
		}
	}
}

// Ctx sits in the 224-byte size class. The spawn/join path allocates one
// Ctx per simulated thread, and two more words (248 bytes, the next
// class) measurably raised sync_bound's bytes per request; fast-path
// miss detection reads fastNext rather than adding a field for it.
func TestCtxStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Ctx{}); size > 224 {
		t.Fatalf("unsafe.Sizeof(Ctx{}) = %d, want <= 224", size)
	}
}

// The span primitives count one access per element, unlike
// GetBytes/PutBytes, which count one per page touched.
func TestSpanCountsEveryElement(t *testing.T) {
	r := newSpanRig(t, "java_ic", 0)
	c := r.ctxs[0]
	before := c.Accesses()
	c.GetF64s(r.f64[0], make([]float64, 1000))
	if got := c.Accesses() - before; got != 1000 {
		t.Fatalf("GetF64s of 1000 elements counted %d accesses", got)
	}
	before = c.Accesses()
	c.GetBytes(r.f64[0], make([]byte, 8000))
	if got := c.Accesses() - before; got > 3 {
		t.Fatalf("GetBytes of 8000 bytes counted %d accesses, want one per page", got)
	}
}

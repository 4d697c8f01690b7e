package apps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/threads"
)

// spanLoop is a seeded loop body for Spans: out[j] = sum of ins[k][j+shift[k]],
// over arrays homed on random nodes whose page boundaries fall at unrelated
// indices, so segments are short and page crossings staggered.
type spanLoop struct {
	ins   []jmm.F64Array
	shift []int
	out   jmm.F64Array
}

func newSpanLoop(rng *rand.Rand, t *threads.Thread, h *jmm.Heap, nodes, n int) *spanLoop {
	l := &spanLoop{}
	pad := func() { h.NewF64Array(t, rng.Intn(nodes), 1+rng.Intn(300)) } // staggers the next array's pages
	for k := 2 + rng.Intn(3); k > 0; k-- {
		pad()
		s := rng.Intn(3)
		a := h.NewF64Array(t, rng.Intn(nodes), n+2)
		for j := 0; j < a.Len(); j++ {
			a.Set(t, j, float64(rng.Intn(1000)))
		}
		l.ins, l.shift = append(l.ins, a), append(l.shift, s)
	}
	pad()
	l.out = h.NewF64Array(t, rng.Intn(nodes), n)
	return l
}

func (l *spanLoop) elem(t *threads.Thread, j int) {
	sum := 0.0
	for k, a := range l.ins {
		sum += a.Get(t, j+l.shift[k])
	}
	l.out.Set(t, j, sum)
}

func (l *spanLoop) segEnd(t *threads.Thread, j int) int {
	end := l.out.RunEnd(t, j)
	for k, a := range l.ins {
		end = min(end, a.RunEnd(t, j+l.shift[k])-l.shift[k])
	}
	return end
}

func (l *spanLoop) span(t *threads.Thread, j, c int) {
	var buf, sum [SpanChunk]float64
	clear(sum[:c])
	for k, a := range l.ins {
		a.GetRange(t, j+l.shift[k], buf[:c])
		for x, v := range buf[:c] {
			sum[x] += v
		}
	}
	l.out.SetRange(t, j, sum[:c])
}

// runSpanLoop runs the seeded loop with the given iteration loop on a
// fresh cluster and reports everything the model computed.
func runSpanLoop(t *testing.T, proto string, seed int64, drive func(th *threads.Thread, l *spanLoop, n int)) string {
	t.Helper()
	const nodes, n = 3, 1500
	cnt := &stats.Counters{}
	cl, err := cluster.New(model.Myrinet200(), nodes, cnt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProtocol(proto)
	if err != nil {
		t.Fatal(err)
	}
	costs := model.DefaultDSMCosts()
	costs.CacheCapacityPages = 8
	eng := core.NewEngine(cl, costs, p)
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	h := jmm.NewHeap(eng)
	var out string
	rt.Main(func(main *threads.Thread) {
		l := newSpanLoop(rand.New(rand.NewSource(seed)), main, h, nodes, n)
		h.NewMonitor(0).Synchronized(main, func() {}) // start with remote pages uncached
		for rep := 0; rep < 2; rep++ {
			drive(main, l, n)
		}
		main.Ctx().Close()
		out = fmt.Sprintf("t=%d %+v out=%v", main.Ctx().Clock().Now(), cnt.Snapshot(), l.out.Get(main, n-1))
	})
	msgs, bytes := cl.Network().Stats()
	return fmt.Sprintf("%s msgs=%d bytes=%d heap=%x", out, msgs, bytes, eng.HomeSnapshot())
}

// Spans reproduces the element loop on loops of two to four inputs and
// one output across homes, for every protocol. Splitting at every
// operand's page boundary is what makes it exact: a loop that runs
// spans across boundaries diverges on some of these loops.
func TestSpansMatchElementLoop(t *testing.T) {
	sloppyCaught := false
	for _, proto := range core.ProtocolNames() {
		for seed := int64(1); seed <= 6; seed++ {
			want := runSpanLoop(t, proto, seed, func(th *threads.Thread, l *spanLoop, n int) {
				for j := 0; j < n; j++ {
					l.elem(th, j)
				}
			})
			got := runSpanLoop(t, proto, seed, func(th *threads.Thread, l *spanLoop, n int) {
				Spans(th, 0, n,
					func(j int) int { return l.segEnd(th, j) },
					func(j int) { l.elem(th, j) },
					func(j, c int) { l.span(th, j, c) })
			})
			if got != want {
				t.Errorf("%s seed %d: Spans diverges from the element loop:\nelement loop %.300s\nspans        %.300s", proto, seed, want, got)
			}
			sloppy := runSpanLoop(t, proto, seed, func(th *threads.Thread, l *spanLoop, n int) {
				Spans(th, 0, n,
					func(j int) int { return n },
					func(j int) { l.elem(th, j) },
					func(j, c int) { l.span(th, j, c) })
			})
			sloppyCaught = sloppyCaught || sloppy != want
		}
	}
	if !sloppyCaught {
		t.Error("no loop distinguishes page-run segmentation from none: the test has lost its power")
	}
}

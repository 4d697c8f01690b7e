package jacobi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/pages"
	"repro/internal/stats"
	"repro/internal/threads"
	"repro/internal/vtime"
)

// relaxElements is the element loop relaxRow replaced, kept as the
// reference its spans must reproduce: four reads and one write per cell.
func relaxElements(t *threads.Thread, src, dst *mesh, i int) {
	n := src.n
	for col := 1; col < n-1; col++ {
		up := src.get(t, i-1, col)
		down := src.get(t, i+1, col)
		left := src.get(t, i, col-1)
		right := src.get(t, i, col+1)
		dst.set(t, i, col, 0.25*(up+down+left+right))
	}
}

// outcome is everything a run's model computes: virtual end time,
// counters, network traffic and the final home pages. Barrier wait is
// left out, as in the conformance suite: it follows the host order in
// which goroutines reach a barrier.
type outcome struct {
	Time        vtime.Time
	Check       string
	Msgs, Bytes int64
	Counters    stats.Snapshot
	PerNode     []core.NodeStats
	Heap        map[pages.PageID][]byte
}

func runOutcome(t *testing.T, app *Jacobi, proto string, nodes, capacity int) outcome {
	t.Helper()
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
	costs.CacheCapacityPages = capacity
	eng := core.NewEngine(cl, costs, p)
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	check := app.Run(rt, jmm.NewHeap(eng), nodes)
	if !check.Valid {
		t.Fatalf("invalid: %s", check.Summary)
	}
	o := outcome{Time: rt.LastEnd(), Check: check.Summary, Counters: cnt.Snapshot(), PerNode: eng.RunStats().PerNode, Heap: eng.HomeSnapshot()}
	o.Msgs, o.Bytes = cl.Network().Stats()
	for i := range o.PerNode {
		o.PerNode[i].BarrierWaitCycles = 0
	}
	return o
}

// The span rows reproduce the element loop exactly where rows straddle
// pages — 1024 doubles (two pages a row) and 250 (2000 bytes, rows
// misaligned with pages) — on every protocol, one and four nodes, with
// and without cache-capacity eviction.
func TestSpanRowsMatchElementLoop(t *testing.T) {
	sizes := []int{1024, 250}
	if testing.Short() || raceEnabled {
		sizes = []int{250}
	}
	for _, n := range sizes {
		for _, proto := range core.ProtocolNames() {
			for _, nodes := range []int{1, 4} {
				for _, capacity := range []int{0, 4} {
					t.Run(fmt.Sprintf("N=%d/%s/n=%d/cap=%d", n, proto, nodes, capacity), func(t *testing.T) {
						t.Parallel()
						want := runOutcome(t, &Jacobi{N: n, Steps: 2, relax: relaxElements}, proto, nodes, capacity)
						got := runOutcome(t, New(n, 2), proto, nodes, capacity)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("spans diverge from the element loop:\nelement loop t=%v %s msgs=%d bytes=%d %+v\nspans        t=%v %s msgs=%d bytes=%d %+v",
								want.Time, want.Check, want.Msgs, want.Bytes, want.Counters, got.Time, got.Check, got.Msgs, got.Bytes, got.Counters)
						}
					})
				}
			}
		}
	}
}

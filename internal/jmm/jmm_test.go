package jmm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pages"
	"repro/internal/stats"
	"repro/internal/threads"
	"repro/internal/vtime"
)

func newWorld(t *testing.T, n int, proto string) (*threads.Runtime, *Heap) {
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
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	return rt, NewHeap(eng)
}

func TestArraysRoundTrip(t *testing.T) {
	for _, proto := range []string{"java_ic", "java_pf"} {
		rt, h := newWorld(t, 2, proto)
		rt.Main(func(main *threads.Thread) {
			f := h.NewF64Array(main, 0, 10)
			i32 := h.NewI32Array(main, 1, 10)
			i64 := h.NewI64Array(main, 0, 10)
			for k := 0; k < 10; k++ {
				f.Set(main, k, float64(k)*1.5)
				i32.Set(main, k, int32(-k))
				i64.Set(main, k, int64(k)<<33)
			}
			for k := 0; k < 10; k++ {
				if f.Get(main, k) != float64(k)*1.5 {
					t.Errorf("%s: f[%d]", proto, k)
				}
				if i32.Get(main, k) != int32(-k) {
					t.Errorf("%s: i32[%d]", proto, k)
				}
				if i64.Get(main, k) != int64(k)<<33 {
					t.Errorf("%s: i64[%d]", proto, k)
				}
			}
			if f.Len() != 10 || i32.Len() != 10 || i64.Len() != 10 {
				t.Error("lengths")
			}
		})
	}
}

// The range methods read and write what Get and Set do, reject ranges
// outside the array, and RunEnd marks where an element's page ends.
func TestArrayRanges(t *testing.T) {
	rt, h := newWorld(t, 2, "java_ic")
	rt.Main(func(main *threads.Thread) {
		f := h.NewF64ArrayAligned(main, 1, 1000) // 8000 bytes: two pages
		i32 := h.NewI32Array(main, 0, 1500)
		fs, is := make([]float64, 700), make([]int32, 1200)
		for k := range fs {
			fs[k] = float64(k) / 3
		}
		for k := range is {
			is[k] = int32(k) - 600
		}
		f.SetRange(main, 300, fs)
		i32.SetRange(main, 200, is)
		for k := range fs {
			if got := f.Get(main, 300+k); got != fs[k] {
				t.Fatalf("f[%d] = %v, want %v", 300+k, got, fs[k])
			}
		}
		got := make([]int32, 1200)
		i32.GetRange(main, 200, got)
		for k := range got {
			if got[k] != is[k] || i32.Get(main, 200+k) != is[k] {
				t.Fatalf("i32[%d] = %v, want %v", 200+k, got[k], is[k])
			}
		}

		if e := f.RunEnd(main, 0); e != 512 {
			t.Errorf("aligned f64 run from 0 ends at %d, want 512", e)
		}
		if e := f.RunEnd(main, 600); e != 1000 {
			t.Errorf("f64 run from 600 ends at %d, want Len()", e)
		}
		for _, k := range []int{0, 1, 700, 1499} {
			e := i32.RunEnd(main, k)
			pg := h.Engine().Space().PageOf
			if e <= k || (e < i32.Len() && pg(i32.Addr()+pages.Addr(4*e)) == pg(i32.Addr()+pages.Addr(4*k))) ||
				pg(i32.Addr()+pages.Addr(4*(e-1))) != pg(i32.Addr()+pages.Addr(4*k)) {
				t.Errorf("i32 run from %d ends at %d", k, e)
			}
		}

		for _, fn := range []func(){
			func() { f.GetRange(main, 990, make([]float64, 11)) },
			func() { f.SetRange(main, -1, make([]float64, 1)) },
			func() { i32.GetRange(main, 1500, make([]int32, 1)) },
			func() { i32.RunEnd(main, 1500) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				fn()
			}()
		}
	})
}

func TestArrayBounds(t *testing.T) {
	rt, h := newWorld(t, 1, "java_pf")
	rt.Main(func(main *threads.Thread) {
		a := h.NewF64Array(main, 0, 3)
		for _, idx := range []int{-1, 3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("index %d accepted", idx)
					}
				}()
				a.Get(main, idx)
			}()
		}
	})
}

func TestAlignedArraysStartOnPage(t *testing.T) {
	rt, h := newWorld(t, 2, "java_pf")
	eng := rt.Engine()
	rt.Main(func(main *threads.Thread) {
		h.NewF64Array(main, 0, 5) // perturb the allocator
		a := h.NewF64ArrayAligned(main, 0, 100)
		if eng.Space().Offset(a.Addr()) != 0 {
			t.Errorf("aligned array at page offset %d", eng.Space().Offset(a.Addr()))
		}
		b := h.NewI32ArrayAligned(main, 1, 100)
		if eng.Space().Offset(b.Addr()) != 0 {
			t.Errorf("aligned i32 array at page offset %d", eng.Space().Offset(b.Addr()))
		}
	})
}

func TestZeroLengthArray(t *testing.T) {
	rt, h := newWorld(t, 1, "java_ic")
	rt.Main(func(main *threads.Thread) {
		a := h.NewF64Array(main, 0, 0)
		if a.Len() != 0 || a.Addr() == 0 {
			t.Error("empty array should have a valid base and zero length")
		}
	})
}

func TestMonitorMutualExclusionAndVisibility(t *testing.T) {
	// The canonical JMM pattern: N threads on different nodes increment
	// a shared counter under a monitor. Mutual exclusion plus the
	// enter-invalidate / exit-flush actions must yield an exact total.
	for _, proto := range []string{"java_ic", "java_pf"} {
		rt, h := newWorld(t, 4, proto)
		var final int64
		rt.Main(func(main *threads.Thread) {
			counter := h.NewI64Array(main, 0, 1)
			mon := h.NewMonitor(0)
			const perThread = 25
			workers := make([]*threads.Thread, 4)
			for i := range workers {
				workers[i] = rt.Spawn(main, func(w *threads.Thread) {
					for k := 0; k < perThread; k++ {
						mon.Synchronized(w, func() {
							counter.Set(w, 0, counter.Get(w, 0)+1)
						})
					}
				})
			}
			for _, w := range workers {
				rt.Join(main, w)
			}
			mon.Synchronized(main, func() { final = counter.Get(main, 0) })
		})
		if final != 100 {
			t.Errorf("%s: counter = %d, want 100 (lost updates)", proto, final)
		}
	}
}

func TestMonitorSerializesVirtualTime(t *testing.T) {
	rt, h := newWorld(t, 2, "java_pf")
	rt.Main(func(main *threads.Thread) {
		mon := h.NewMonitor(0)
		mon.Enter(main)
		main.Compute(1e6, 0) // hold the lock for ~5ms
		heldUntil := main.Now()
		mon.Exit(main)

		w := rt.SpawnOn(main, 1, func(w *threads.Thread) {
			mon.Enter(w)
			if w.Now() < heldUntil {
				t.Errorf("second holder granted at %v, first held until %v", w.Now(), heldUntil)
			}
			mon.Exit(w)
		})
		rt.Join(main, w)
	})
}

func TestMonitorHomeAccessors(t *testing.T) {
	rt, h := newWorld(t, 3, "java_ic")
	rt.Main(func(main *threads.Thread) {
		if h.NewMonitor(2).Home() != 2 {
			t.Error("Home()")
		}
		if h.Engine() != rt.Engine() {
			t.Error("Heap.Engine identity")
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("bad monitor home accepted")
		}
	}()
	h.NewMonitor(7)
}

func TestMonitorCountsAcquires(t *testing.T) {
	rt, h := newWorld(t, 2, "java_pf")
	rt.Main(func(main *threads.Thread) {
		mon := h.NewMonitor(0)
		mon.Synchronized(main, func() {}) // local
		w := rt.SpawnOn(main, 1, func(w *threads.Thread) {
			mon.Synchronized(w, func() {}) // remote
		})
		rt.Join(main, w)
	})
	s := rt.Engine().Cluster().Counters().Snapshot()
	if s.MonitorAcquires != 2 || s.RemoteAcquires != 1 {
		t.Fatalf("monitor counters: %+v", s)
	}
}

func TestBarrierPublishesWrites(t *testing.T) {
	// Jacobi's communication pattern in miniature: each worker writes
	// its cell, everyone barriers, then each worker reads its
	// neighbor's cell.
	for _, proto := range []string{"java_ic", "java_pf"} {
		rt, h := newWorld(t, 4, proto)
		ok := make([]bool, 4)
		rt.Main(func(main *threads.Thread) {
			cells := h.NewF64Array(main, 0, 4)
			bar := h.NewBarrier(0, 4)
			workers := make([]*threads.Thread, 4)
			for i := range workers {
				i := i
				workers[i] = rt.Spawn(main, func(w *threads.Thread) {
					cells.Set(w, i, float64(100+i))
					bar.Await(w)
					neighbor := (i + 1) % 4
					ok[i] = cells.Get(w, neighbor) == float64(100+neighbor)
				})
			}
			for _, w := range workers {
				rt.Join(main, w)
			}
		})
		for i, o := range ok {
			if !o {
				t.Errorf("%s: worker %d read a stale neighbor value", proto, i)
			}
		}
	}
}

func TestBarrierAdvancesAllToMax(t *testing.T) {
	rt, h := newWorld(t, 3, "java_pf")
	rt.Main(func(main *threads.Thread) {
		bar := h.NewBarrier(0, 3)
		times := make([]vtime.Time, 3)
		workers := make([]*threads.Thread, 3)
		for i := range workers {
			i := i
			workers[i] = rt.Spawn(main, func(w *threads.Thread) {
				w.Compute(float64(i)*2e6, 0) // staggered arrivals
				bar.Await(w)
				times[i] = w.Now()
			})
		}
		for _, w := range workers {
			rt.Join(main, w)
		}
		// Nobody may leave before the slowest arrival (~2*2e6 cycles = 20ms).
		slowest := vtime.Time(vtime.Micro(20000))
		for i, tm := range times {
			if tm < slowest {
				t.Errorf("worker %d left barrier at %v, before slowest arrival %v", i, tm, slowest)
			}
		}
		if bar.Parties() != 3 {
			t.Error("Parties")
		}
	})
}

func TestBarrierBadHomePanics(t *testing.T) {
	rt, h := newWorld(t, 2, "java_ic")
	_ = rt
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h.NewBarrier(5, 2)
}

func TestNegativeArrayLengthPanics(t *testing.T) {
	rt, h := newWorld(t, 1, "java_ic")
	rt.Main(func(main *threads.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		h.NewF64Array(main, 0, -1)
	})
}

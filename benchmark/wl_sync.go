package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	hyperion "repro"
)

// kctx is what a kernel records spans through: the tracer (nil when
// untraced), the kernel run's operation id, and the root span of the
// calling simulated thread.
type kctx struct {
	tr   *tracer
	op   string
	lane int
	root int
}

// call runs f inside a span charged to pkg.
func (k kctx) call(pkg, name string, f func()) {
	sp := k.tr.begin(k.root, k.lane, pkg, name, k.op)
	f()
	k.tr.end(sp)
}

// thread opens the root span of one simulated thread's lane.
func (k kctx) thread(lane int) kctx {
	k.lane = lane
	k.root = k.tr.begin(-1, lane, "benchmark", "kernel thread", k.op)
	return k
}

func (k kctx) done() { k.tr.end(k.root) }

// A kernel is a fixed-count program written against the public
// hyperion.System API whose time goes to synchronisation and page
// movement, not to the access hit path. It returns the operations it
// performed and whether its functional assertion held.
type kernel struct {
	name string
	// ops is the fixed operation count of a measured run; quick mode
	// and traced passes run a fraction.
	ops    int
	protos []string
	// repeats says the kernel's virtual time must repeat exactly from
	// run to run. It is false where monitor grant order is left to the
	// host scheduler.
	repeats bool
	run     func(sys *hyperion.System, k kctx, n int, rng *rand.Rand) (ops int, ok bool)
}

var (
	icpf     = []string{"java_ic", "java_pf"}
	icpfhlrc = []string{"java_ic", "java_pf", "java_hlrc"}
)

// kernels lists the six kernels. The counts are fixed so that each run
// takes about 110 ms at the baseline commit; they are part of the
// benchmark's definition and change only with it.
func kernels() []kernel {
	return []kernel{
		{"remote_load", 3000, icpf, true, kRemoteLoad},
		{"diff_flush", 3500, icpfhlrc, true, kDiffFlush},
		{"lock_handoff", 45000, icpf, false, kLockHandoff},
		{"barrier_phase", 64000, icpf, true, kBarrierPhase},
		{"wait_notify", 9000, icpf, false, kWaitNotify},
		{"spawn_join", 150000, icpf, true, kSpawnJoin},
	}
}

const pageWords = 512 // float64 words on one 4 KB page

// kRemoteLoad: enter and leave a monitor (which invalidates the node's
// cache), then read one word on each of 16 pages homed on other nodes.
// Every read is a miss: fault or check, fetch RPC, frame install.
func kRemoteLoad(sys *hyperion.System, k kctx, n int, rng *rand.Rand) (int, bool) {
	const npages = 16
	bad := 0
	sys.Main(func(t *hyperion.Thread) {
		k := k.thread(0)
		defer k.done()
		mon := sys.NewMonitor(0)
		arrs := make([]hyperion.F64Array, npages)
		idx := make([]int, npages)
		mon.Enter(t)
		for i := range arrs {
			arrs[i] = sys.NewF64ArrayAligned(t, 1+i%3, pageWords)
			idx[i] = rng.Intn(pageWords)
			arrs[i].Set(t, idx[i], float64(i+1))
		}
		mon.Exit(t) // ships the initial values home
		for it := 0; it < n; it++ {
			k.call("jmm", "Monitor.Enter+Exit", func() {
				mon.Enter(t)
				mon.Exit(t)
			})
			k.call("jmm", "F64Array.Get x16 (miss)", func() {
				for i := range arrs {
					if arrs[i].Get(t, idx[i]) != float64(i+1) {
						bad++
					}
				}
			})
		}
	})
	return n * npages, bad == 0
}

// kDiffFlush: 64 scattered writes to a page homed on another node,
// then monitor exit, which ships the modifications home.
func kDiffFlush(sys *hyperion.System, k kctx, n int, rng *rand.Rand) (int, bool) {
	const writes = 64
	ok := true
	sys.Main(func(t *hyperion.Thread) {
		k := k.thread(0)
		defer k.done()
		mon := sys.NewMonitor(0)
		arr := sys.NewF64ArrayAligned(t, 1, pageWords)
		idx := rng.Perm(pageWords)[:writes]
		for it := 0; it < n; it++ {
			k.call("jmm", "Monitor.Enter", func() { mon.Enter(t) })
			k.call("jmm", "F64Array.Set x64", func() {
				for _, i := range idx {
					arr.Set(t, i, float64(it))
				}
			})
			k.call("jmm", "Monitor.Exit (flush)", func() { mon.Exit(t) })
		}
		// Re-entering drops the cached copy, so these reads see what
		// the home node holds: the last iteration's values.
		mon.Enter(t)
		for _, i := range idx {
			if arr.Get(t, i) != float64(n-1) {
				ok = false
			}
		}
		mon.Exit(t)
	})
	return n, ok
}

// spawnWorkers starts one worker per node and joins them all.
func spawnWorkers(sys *hyperion.System, t *hyperion.Thread, k kctx, nodes int, body func(w int, t *hyperion.Thread, k kctx)) {
	ws := make([]*hyperion.Thread, nodes)
	for w := range ws {
		ws[w] = sys.SpawnOn(t, w, func(t *hyperion.Thread) {
			k := k.thread(w + 1)
			defer k.done()
			body(w, t, k)
		})
	}
	for _, w := range ws {
		k.call("threads", "Join", func() { sys.Join(t, w) })
	}
}

// kLockHandoff: four threads on four nodes increment one counter under
// one monitor. The lock, and the counter's page, change hands on
// almost every operation.
func kLockHandoff(sys *hyperion.System, k kctx, n int, _ *rand.Rand) (int, bool) {
	const nodes = 4
	per := n / nodes
	var total int64
	sys.Main(func(t *hyperion.Thread) {
		k := k.thread(0)
		defer k.done()
		mon := sys.NewMonitor(0)
		counter := sys.NewI64Array(t, 0, 1)
		spawnWorkers(sys, t, k, nodes, func(_ int, t *hyperion.Thread, k kctx) {
			for i := 0; i < per; i++ {
				k.call("jmm", "Monitor.Enter", func() { mon.Enter(t) })
				k.call("jmm", "I64Array.Get+Set", func() { counter.Set(t, 0, counter.Get(t, 0)+1) })
				k.call("jmm", "Monitor.Exit (flush)", func() { mon.Exit(t) })
			}
		})
		mon.Enter(t)
		total = counter.Get(t, 0)
		mon.Exit(t)
	})
	return per * nodes, total == int64(per*nodes)
}

// kBarrierPhase: four threads alternate between writing a word they
// own and reading their neighbour's, with a barrier after each.
func kBarrierPhase(sys *hyperion.System, k kctx, n int, _ *rand.Rand) (int, bool) {
	const nodes = 4
	phases := n / (2 * nodes)
	var bad atomic.Int64
	sys.Main(func(t *hyperion.Thread) {
		k := k.thread(0)
		defer k.done()
		bar := sys.NewBarrier(0, nodes)
		own := make([]hyperion.F64Array, nodes)
		for w := range own {
			own[w] = sys.NewF64ArrayAligned(t, w, 8)
		}
		spawnWorkers(sys, t, k, nodes, func(w int, t *hyperion.Thread, k kctx) {
			for p := 0; p < phases; p++ {
				own[w].Set(t, 0, float64(p))
				k.call("jmm", "Barrier.Await", func() { bar.Await(t) })
				k.call("jmm", "F64Array.Get (neighbour)", func() {
					if own[(w+1)%nodes].Get(t, 0) != float64(p) {
						bad.Add(1)
					}
				})
				k.call("jmm", "Barrier.Await", func() { bar.Await(t) })
			}
		})
	})
	return phases * 2 * nodes, bad.Load() == 0
}

// kWaitNotify: a producer and a consumer on two nodes pass items
// through a one-slot buffer homed on a third, with wait and notify.
func kWaitNotify(sys *hyperion.System, k kctx, n int, _ *rand.Rand) (int, bool) {
	var sum int64
	sys.Main(func(t *hyperion.Thread) {
		k := k.thread(0)
		defer k.done()
		mon := sys.NewMonitor(0)
		slot := sys.NewI64Array(t, 0, 2) // [0] the item, [1] 1 when full
		producer := sys.SpawnOn(t, 1, func(t *hyperion.Thread) {
			k := k.thread(1)
			defer k.done()
			for i := 0; i < n; i++ {
				k.call("jmm", "put item (Enter/Wait/NotifyAll/Exit)", func() {
					mon.Enter(t)
					for slot.Get(t, 1) == 1 {
						mon.Wait(t)
					}
					slot.Set(t, 0, int64(i))
					slot.Set(t, 1, 1)
					mon.NotifyAll(t)
					mon.Exit(t)
				})
			}
		})
		consumer := sys.SpawnOn(t, 2, func(t *hyperion.Thread) {
			k := k.thread(2)
			defer k.done()
			for i := 0; i < n; i++ {
				k.call("jmm", "take item (Enter/Wait/NotifyAll/Exit)", func() {
					mon.Enter(t)
					for slot.Get(t, 1) == 0 {
						mon.Wait(t)
					}
					sum += slot.Get(t, 0)
					slot.Set(t, 1, 0)
					mon.NotifyAll(t)
					mon.Exit(t)
				})
			}
		})
		k.call("threads", "Join", func() { sys.Join(t, producer) })
		k.call("threads", "Join", func() { sys.Join(t, consumer) })
	})
	return n, sum == int64(n)*int64(n-1)/2
}

// kSpawnJoin: spawn a thread on the next node round-robin and join it,
// one at a time.
func kSpawnJoin(sys *hyperion.System, k kctx, n int, _ *rand.Rand) (int, bool) {
	var ran atomic.Int64
	sys.Main(func(t *hyperion.Thread) {
		k := k.thread(0)
		defer k.done()
		for i := 0; i < n; i++ {
			var w *hyperion.Thread
			k.call("threads", "Spawn", func() {
				w = sys.Spawn(t, func(t *hyperion.Thread) {
					t.Compute(100, 0)
					ran.Add(1)
				})
			})
			k.call("threads", "Join", func() { sys.Join(t, w) })
		}
	})
	return n, ran.Load() == int64(n)
}

// kernelRun is the outcome of one kernel under one protocol.
type kernelRun struct {
	ops    int
	wall   time.Duration
	virtPS int64
}

// runKernel builds a system, runs the kernel on it and checks its
// assertion. scale divides the kernel's fixed operation count.
func runKernel(e *env, tr *tracer, kn kernel, proto string, scale int) kernelRun {
	op := kn.name + "/" + proto
	t0 := time.Now()
	sp := tr.begin(-1, 0, "hyperion", "hyperion.New", op)
	sys, err := hyperion.New(hyperion.Options{Cluster: hyperion.Myrinet200(), Nodes: 4, Protocol: proto})
	tr.end(sp)
	if !e.check(err == nil, "%s: %v", op, err) {
		return kernelRun{}
	}
	ops, ok := kn.run(sys, kctx{tr: tr, op: op}, max(kn.ops/scale, 16), e.rng("sync_bound."+op))
	wall := time.Since(t0)
	e.check(ok, "%s: functional assertion failed", op)
	return kernelRun{ops: ops, wall: wall, virtPS: int64(sys.ExecutionTime())}
}

type syncInstance struct {
	scale int
	// virt remembers each repeatable kernel's virtual time; every later
	// run must reproduce it.
	virt map[string]int64
}

func setupSync(e *env) (instance, error) {
	s := &syncInstance{scale: e.pick(1, 50), virt: map[string]int64{}}
	// Warm-up: every kernel once at a twentieth of its count.
	for _, kn := range kernels() {
		for _, proto := range kn.protos {
			if r := runKernel(e, nil, kn, proto, 20*s.scale); r.ops == 0 {
				return nil, fmt.Errorf("kernel %s/%s did not run", kn.name, proto)
			}
		}
	}
	return s, nil
}

func (s *syncInstance) close() {}

// suite runs all 13 kernel runs once.
func (s *syncInstance) suite(e *env, tr *tracer, scale int) (ops int, wall time.Duration, opMS []float64) {
	for _, kn := range kernels() {
		for _, proto := range kn.protos {
			r := runKernel(e, tr, kn, proto, scale)
			ops += r.ops
			wall += r.wall
			opMS = append(opMS, ms(r.wall))
			if kn.repeats {
				key := fmt.Sprintf("%s/%s/%d", kn.name, proto, scale)
				if first, seen := s.virt[key]; seen {
					e.check(first == r.virtPS, "%s: virtual time %d ps differs from the first run's %d ps", key, r.virtPS, first)
				} else {
					s.virt[key] = r.virtPS
				}
			}
		}
	}
	return ops, wall, opMS
}

func (s *syncInstance) measure(e *env, deadline time.Time) region {
	var reg region
	repeatUntil(deadline, e.pick(3, 2), func() {
		ops, wall, opMS := s.suite(e, nil, s.scale)
		reg.work = append(reg.work, float64(ops)/wall.Seconds())
		reg.jobMS = append(reg.jobMS, ms(wall))
		reg.opMS = append(reg.opMS, opMS...)
		reg.reqs += len(opMS)
	})
	return reg
}

func (s *syncInstance) traced(e *env) tracedPass {
	// A quarter of the counts: a span per call is several hundred
	// thousand spans at full count.
	scale := 4 * s.scale
	_, untraced, _ := s.suite(e, nil, scale)
	_, traced, _ := s.suite(e, e.tr, scale)
	return tracedPass{untracedS: untraced.Seconds(), tracedS: traced.Seconds()}
}

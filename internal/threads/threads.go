// Package threads implements Hyperion's threads subsystem and load
// balancer (Table 1 of the paper): creation of Java threads on cluster
// nodes, join synchronization, and PM2-style preemptive thread migration.
//
// Each simulated Java thread is driven by one goroutine and owns a
// core.Ctx (node + virtual clock + access state). Thread placement is
// delegated to a Balancer; the default is the round-robin policy the
// paper's runtime uses.
package threads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Balancer decides the node for each newly created thread.
type Balancer interface {
	// Place returns the node for the i-th spawned thread (0-based).
	Place(i int, clusterSize int) int
}

// RoundRobin is the paper's load-balancing policy: "a round-robin thread
// distribution algorithm".
type RoundRobin struct{}

// Place implements Balancer.
func (RoundRobin) Place(i, clusterSize int) int { return i % clusterSize }

// Costs are the thread-management cost parameters.
type Costs struct {
	// SpawnLocalCycles is the cost of creating a thread on the local
	// node (PM2/Marcel user-level thread creation).
	SpawnLocalCycles float64
	// SpawnMsgBytes is the payload of a remote thread-creation RPC
	// (closure descriptor + arguments).
	SpawnMsgBytes int
	// JoinMsgBytes is the payload of the termination notification a
	// joiner waits for.
	JoinMsgBytes int
	// MigrateStateBytes is the payload of a thread migration: stack +
	// descriptor, per PM2's preemptive migration mechanism.
	MigrateStateBytes int
}

// DefaultCosts returns the thread-management costs used by all
// experiments.
func DefaultCosts() Costs {
	return Costs{
		SpawnLocalCycles:  2500,
		SpawnMsgBytes:     256,
		JoinMsgBytes:      32,
		MigrateStateBytes: 8192,
	}
}

// Runtime is the threads subsystem of one simulated Hyperion run.
type Runtime struct {
	eng      *core.Engine
	balancer Balancer
	costs    Costs

	// computeScale multiplies every thread's computation charges. The
	// paper's nodes are uniprocessors: with k application threads per
	// node the CPU is time-shared, so compute slows by ~k while
	// communication stalls overlap. Runs with one thread per node (the
	// paper's configuration) leave it at 1.
	computeScale float64

	mu      sync.Mutex
	spawned int
	nextID  int64
	active  sync.WaitGroup
	lastEnd vtime.Time
}

// NewRuntime creates the threads subsystem over a memory engine.
func NewRuntime(eng *core.Engine, balancer Balancer, costs Costs) *Runtime {
	if balancer == nil {
		balancer = RoundRobin{}
	}
	return &Runtime{eng: eng, balancer: balancer, costs: costs, computeScale: 1}
}

// SetComputeScale sets the CPU time-sharing factor applied to computation
// charges (see Runtime.computeScale). Call before spawning threads.
func (r *Runtime) SetComputeScale(k float64) {
	if k < 1 {
		k = 1
	}
	r.computeScale = k
}

// Engine returns the memory subsystem.
func (r *Runtime) Engine() *core.Engine { return r.eng }

// Thread is one simulated Java thread.
type Thread struct {
	id   int64
	rt   *Runtime
	ctx  *core.Ctx
	done chan struct{}

	// endTime and endNode are set before done is closed.
	endTime vtime.Time
	endNode int

	migrations atomic.Int64
}

// ID reports the thread's unique id.
func (t *Thread) ID() int64 { return t.id }

// Node reports the node the thread currently runs on.
func (t *Thread) Node() int { return t.ctx.Node() }

// Ctx exposes the thread's memory-access context.
func (t *Thread) Ctx() *core.Ctx { return t.ctx }

// Clock exposes the thread's virtual clock.
func (t *Thread) Clock() *vtime.Clock { return t.ctx.Clock() }

// Now reports the thread's current virtual time.
func (t *Thread) Now() vtime.Time { return t.ctx.Clock().Now() }

// Runtime returns the owning threads subsystem.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Compute charges computation (cycles plus cache-missing memory touches)
// to the thread, scaled by the runtime's CPU time-sharing factor.
func (t *Thread) Compute(cycles float64, memTouches int) {
	k := t.rt.computeScale
	t.ctx.Compute(cycles*k, int(float64(memTouches)*k))
}

// newThread allocates a thread shell on a node with its clock at start.
func (r *Runtime) newThread(node int, start vtime.Time) *Thread {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.mu.Unlock()
	return &Thread{id: id, rt: r, ctx: r.eng.NewCtx(node, start), done: make(chan struct{})}
}

// Main runs fn as the program's main thread on node 0 and blocks until it
// finishes, returning its final virtual time (the program's execution
// time, given that Java programs end when main returns after joining its
// workers) and waiting for any stray threads to stop.
func (r *Runtime) Main(fn func(*Thread)) vtime.Time {
	t := r.newThread(0, 0)
	r.run(t, fn)
	<-t.done
	r.active.Wait()
	r.mu.Lock()
	r.lastEnd = t.endTime
	r.mu.Unlock()
	return t.endTime
}

// LastEnd reports the completion time of the most recent Main run — the
// program's execution time, for harnesses that cannot observe Main's
// return value directly.
func (r *Runtime) LastEnd() vtime.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastEnd
}

// Spawn creates a thread via the load balancer, charging creation costs:
// a local thread creation, or a creation RPC to the chosen node. The
// paper's benchmarks create one computation thread per processor.
func (r *Runtime) Spawn(parent *Thread, fn func(*Thread)) *Thread {
	r.mu.Lock()
	i := r.spawned
	r.spawned++
	r.mu.Unlock()
	node := r.balancer.Place(i, r.eng.Cluster().Size())
	return r.SpawnOn(parent, node, fn)
}

// SpawnOn creates a thread on an explicit node.
func (r *Runtime) SpawnOn(parent *Thread, node int, fn func(*Thread)) *Thread {
	if node < 0 || node >= r.eng.Cluster().Size() {
		panic(fmt.Sprintf("threads: spawn on node %d of %d", node, r.eng.Cluster().Size()))
	}
	eng := r.eng
	mach := eng.Machine()
	var start vtime.Time
	if node == parent.Node() {
		parent.Clock().Advance(mach.Cycles(r.costs.SpawnLocalCycles))
		start = parent.Now()
	} else {
		senderFree, delivered := eng.Cluster().Network().Send(parent.Node(), node, r.costs.SpawnMsgBytes, parent.Now())
		parent.Clock().AdvanceTo(senderFree)
		start = delivered.Add(mach.Cycles(r.costs.SpawnLocalCycles))
	}
	child := r.newThread(node, start)
	eng.Cluster().Counters().AddSpawns(1)
	r.run(child, fn)
	return child
}

// run starts the goroutine driving a thread.
func (r *Runtime) run(t *Thread, fn func(*Thread)) {
	r.active.Add(1)
	go func() {
		defer r.active.Done()
		fn(t)
		t.ctx.Close()
		t.endTime = t.Now()
		t.endNode = t.Node()
		close(t.done)
	}()
}

// Join blocks until the child terminates and advances the joiner past the
// termination notification, like Java's Thread.join.
func (r *Runtime) Join(joiner, child *Thread) {
	<-child.done
	if child.endNode == joiner.Node() {
		joiner.Clock().AdvanceTo(child.endTime)
		return
	}
	_, delivered := r.eng.Cluster().Network().Send(child.endNode, joiner.Node(), r.costs.JoinMsgBytes, child.endTime)
	joiner.Clock().AdvanceTo(delivered)
}

// Migrate moves the thread to another node, PM2-style: pending writes are
// flushed home (so the thread's memory context can be rebuilt anywhere),
// the thread state travels as one message, and execution resumes on the
// destination at the delivery time.
func (t *Thread) Migrate(node int) {
	if node == t.Node() {
		return
	}
	eng := t.rt.eng
	eng.UpdateMainMemory(t.ctx)
	origin := t.Node()
	_, delivered := eng.Cluster().Network().Send(origin, node, t.rt.costs.MigrateStateBytes, t.Now())
	if tr := eng.Tracer(); tr != nil {
		tr.Record(trace.Event{At: t.Now(), Node: origin, TID: t.ctx.TID(), Kind: trace.EvMigrate, Arg: int64(node)})
	}
	t.ctx.MoveTo(node)
	t.Clock().AdvanceTo(delivered)
	t.migrations.Add(1)
	eng.NoteMigration(origin)
}

// Migrations reports how many times the thread has migrated.
func (t *Thread) Migrations() int64 { return t.migrations.Load() }

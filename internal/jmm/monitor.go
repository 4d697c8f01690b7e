package jmm

import (
	"fmt"
	"sync"

	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Monitor cost parameters (in cycles and message bytes).
const (
	lockCycles   = 120 // local lock/unlock bookkeeping
	lockMsgBytes = 32  // lock request / grant / release notification
)

// Monitor is a Java monitor attached to an object homed at a node. Like
// Hyperion's, it provides both mutual exclusion and the Java-consistency
// memory actions: entering invalidates the node's object cache, exiting
// transmits the node's modifications to main memory.
//
// Mutual exclusion between simulated threads is real (a sync.Mutex), and
// the lock's *timing* is serialized at its home node in virtual time: a
// requester is granted the lock no earlier than the previous holder's
// release has reached the home.
type Monitor struct {
	heap *Heap
	home int

	mu          sync.Mutex
	lastRelease vtime.Time // guarded by mu
	waiters     []*waiter  // wait set (guarded by mu)
}

// NewMonitor creates a monitor whose lock word is homed at the given
// node.
func (h *Heap) NewMonitor(home int) *Monitor {
	if home < 0 || home >= h.eng.Cluster().Size() {
		panic(fmt.Sprintf("jmm: monitor home %d of %d", home, h.eng.Cluster().Size()))
	}
	return &Monitor{heap: h, home: home}
}

// Home reports the node holding the monitor's lock word.
func (m *Monitor) Home() int { return m.home }

// Enter acquires the monitor: lock acquisition serialized at the home
// node, then the Java Memory Model acquire actions (flush pending
// modifications, invalidate the node cache).
func (m *Monitor) Enter(t *threads.Thread) {
	eng := m.heap.eng
	net := eng.Cluster().Network()
	mach := eng.Machine()
	remote := t.Node() != m.home
	eng.NoteMonitorAcquire(t.Node(), remote)
	if tr := eng.Tracer(); tr != nil {
		tr.Record(trace.Event{At: t.Now(), Node: t.Node(), TID: t.Ctx().TID(), Kind: trace.EvMonitorEnter, Arg: int64(m.home)})
	}

	if !remote {
		m.mu.Lock()
		grant := vtime.Max(t.Now(), m.lastRelease).Add(mach.Cycles(lockCycles))
		t.Clock().AdvanceTo(grant)
	} else {
		// Lock request travels to the home node...
		senderFree, delivered := net.Send(t.Node(), m.home, lockMsgBytes, t.Now())
		t.Clock().AdvanceTo(senderFree)
		m.mu.Lock()
		// ...is granted once the previous release has reached home...
		grant := vtime.Max(delivered, m.lastRelease).Add(mach.Cycles(lockCycles))
		// ...and the grant travels back.
		_, back := net.Send(m.home, t.Node(), lockMsgBytes, grant)
		t.Clock().AdvanceTo(back)
	}
	eng.Acquire(t.Ctx())
}

// Exit releases the monitor: the JMM release actions (transmit local
// modifications to main memory, synchronously) and then the lock release,
// which reaches the home node after one message when released remotely.
//
//hyperion:allow(lockguard) mu was locked by the matching Enter; Enter/Exit bracket the critical section across calls
func (m *Monitor) Exit(t *threads.Thread) {
	eng := m.heap.eng
	net := eng.Cluster().Network()
	mach := eng.Machine()

	eng.Release(t.Ctx())

	release := t.Now().Add(mach.Cycles(lockCycles))
	if t.Node() != m.home {
		senderFree, delivered := net.Send(t.Node(), m.home, lockMsgBytes, t.Now())
		t.Clock().AdvanceTo(senderFree)
		release = delivered
	} else {
		t.Clock().AdvanceTo(release)
	}
	m.lastRelease = release
	m.mu.Unlock()
}

// Synchronized runs fn while holding the monitor, like a Java
// synchronized block.
func (m *Monitor) Synchronized(t *threads.Thread, fn func()) {
	m.Enter(t)
	defer m.Exit(t)
	fn()
}

// Barrier is the phase barrier the benchmark programs build from
// monitors: all parties flush their modifications, rendezvous at the
// barrier's home node, and resume with invalidated caches once everyone
// has arrived — so each party observes main memory as of the end of the
// previous phase.
type Barrier struct {
	heap    *Heap
	home    int
	parties int
	vb      *vtime.Barrier
}

// NewBarrier creates a barrier for the given number of parties, homed at
// a node (node 0 in the benchmarks).
func (h *Heap) NewBarrier(home, parties int) *Barrier {
	if home < 0 || home >= h.eng.Cluster().Size() {
		panic(fmt.Sprintf("jmm: barrier home %d of %d", home, h.eng.Cluster().Size()))
	}
	mach := h.eng.Machine()
	return &Barrier{
		heap:    h,
		home:    home,
		parties: parties,
		vb:      vtime.NewBarrier(parties, mach.Cycles(2*lockCycles)),
	}
}

// Parties reports the barrier size.
func (b *Barrier) Parties() int { return b.parties }

// Await enters the barrier and returns once all parties have arrived,
// with full release/acquire memory semantics.
func (b *Barrier) Await(t *threads.Thread) {
	eng := b.heap.eng
	net := eng.Cluster().Network()

	// Release: publish this phase's writes.
	eng.Release(t.Ctx())

	// Arrival notification to the barrier home.
	arrive := t.Now()
	if t.Node() != b.home {
		_, arrive = net.Send(t.Node(), b.home, lockMsgBytes, t.Now())
	}
	release := b.vb.Await(arrive)

	// Release broadcast back to the party's node.
	back := release
	if t.Node() != b.home {
		_, back = net.Send(b.home, t.Node(), lockMsgBytes, release)
	}
	// The gap from finishing our own release work to the broadcast's
	// arrival is time spent blocked on the barrier's other parties.
	eng.NoteBarrierWait(t.Node(), back.Sub(t.Now()))
	t.Clock().AdvanceTo(back)

	// Acquire: next phase starts from a clean cache.
	eng.Acquire(t.Ctx())
}

// Package hyperion is the public API of Hyperion-Go, a simulator-backed
// reproduction of the Hyperion cluster-JVM memory system from Antoniu &
// Hatcher, "Remote object detection in cluster-based Java" (IPDPS 2001
// Workshops).
//
// A System is one simulated cluster execution: a set of nodes with a
// modeled interconnect, a home-based page DSM implementing the Java
// Memory Model, one of the registered access-detection protocols
// (the paper's java_ic in-line checks and java_pf page faults, or the
// java_up update-based and java_hlrc home-based lazy-diffing
// extensions), and a threads subsystem with a round-robin load
// balancer. Programs written against
// this API look like threaded Java programs — they spawn threads, share
// typed arrays, and synchronize with monitors and barriers — and run with
// real data and deterministic virtual-time accounting.
//
// Quickstart:
//
//	sys, _ := hyperion.New(hyperion.Options{
//		Cluster:  hyperion.Myrinet200(),
//		Nodes:    4,
//		Protocol: "java_pf",
//	})
//	end := sys.Main(func(t *hyperion.Thread) {
//		counter := sys.NewI64Array(t, 0, 1)
//		mon := sys.NewMonitor(0)
//		var ws []*hyperion.Thread
//		for i := 0; i < 4; i++ {
//			ws = append(ws, sys.Spawn(t, func(w *hyperion.Thread) {
//				mon.Synchronized(w, func() {
//					counter.Set(w, 0, counter.Get(w, 0)+1)
//				})
//			}))
//		}
//		for _, w := range ws {
//			sys.Join(t, w)
//		}
//	})
//	fmt.Println("simulated execution time:", end)
package hyperion

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/pagestats"
	"repro/internal/stats"
	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Re-exported core types. They are aliases, so values flow freely between
// the public API and the benchmark harness.
type (
	// Thread is a simulated Java thread (one goroutine, one virtual
	// clock, one memory-access context).
	Thread = threads.Thread
	// Monitor is a Java monitor with the paper's consistency actions:
	// entry invalidates the node's object cache, exit transmits local
	// modifications to main memory.
	Monitor = jmm.Monitor
	// Barrier is the monitor-built phase barrier the benchmark programs
	// use.
	Barrier = jmm.Barrier
	// F64Array, I32Array and I64Array are shared Java arrays allocated
	// in the DSM's iso-address space.
	F64Array = jmm.F64Array
	I32Array = jmm.I32Array
	I64Array = jmm.I64Array
	// ClusterConfig describes a platform (machines + interconnect).
	ClusterConfig = model.Cluster
	// MachineConfig describes one node's processor and OS costs.
	MachineConfig = model.Machine
	// DSMCosts bundles the memory-engine cost parameters.
	DSMCosts = model.DSMCosts
	// Time is an absolute virtual time; Duration a span of it.
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration
	// Stats is the cluster-wide snapshot of the protocol event
	// counters: RunStats' per-node counters summed over the nodes, plus
	// the RPC and spawn counts.
	Stats = stats.Snapshot
	// RunStats is the per-node counter report: faults, fetches, cache
	// hits, flush traffic, monitor and barrier activity, mprotect calls
	// — the "why" behind a run's virtual time.
	RunStats = core.RunStats
	// TraceBuffer is a bounded ring of protocol events recorded during a
	// run; render it with WritePerfetto for ui.perfetto.dev or
	// chrome://tracing.
	TraceBuffer = trace.Buffer
	// PageReport is the per-page sharing profile of a run: per-page
	// event counters, reader/writer node sets, and a classification of
	// every page into private / read_shared / false_shared / migratory /
	// producer_consumer. Produced by PageStats after EnablePageProfiling.
	PageReport = pagestats.Report
)

// Platform presets from the paper's evaluation (§4.2).
var (
	// Myrinet200 is the 12-node 200 MHz Pentium Pro BIP/Myrinet cluster.
	Myrinet200 = model.Myrinet200
	// SCI450 is the 6-node 450 MHz Pentium II SISCI/SCI cluster.
	SCI450 = model.SCI450
	// CommodityTCP is a contrast platform on 100 Mb/s TCP (not in the
	// paper), used by the ablation benchmarks.
	CommodityTCP = model.CommodityTCP
)

// Protocols lists the registered consistency-protocol names.
func Protocols() []string { return core.ProtocolNames() }

// Options configures a System.
type Options struct {
	// Cluster selects the platform; defaults to Myrinet200().
	Cluster ClusterConfig
	// Nodes is the number of cluster nodes to use (1..Cluster.MaxNodes).
	Nodes int
	// Protocol is any registered protocol name — see Protocols():
	// "java_ic", "java_pf", "java_up" or "java_hlrc" (default
	// "java_pf", the paper's recommendation).
	Protocol string
	// Costs overrides the DSM engine cost parameters (nil = defaults).
	Costs *DSMCosts
}

// System is one simulated Hyperion execution environment.
type System struct {
	cl   *cluster.Cluster
	eng  *core.Engine
	rt   *threads.Runtime
	heap *jmm.Heap
}

// New assembles a simulated cluster, DSM engine, protocol and threads
// subsystem.
func New(opts Options) (*System, error) {
	if opts.Cluster.Name == "" {
		opts.Cluster = Myrinet200()
	}
	if opts.Nodes == 0 {
		opts.Nodes = opts.Cluster.MaxNodes
	}
	if opts.Protocol == "" {
		opts.Protocol = "java_pf"
	}
	cnt := &stats.Counters{}
	cl, err := cluster.New(opts.Cluster, opts.Nodes, cnt)
	if err != nil {
		return nil, fmt.Errorf("hyperion: %w", err)
	}
	proto, err := core.NewProtocol(opts.Protocol)
	if err != nil {
		return nil, fmt.Errorf("hyperion: %w", err)
	}
	costs := model.DefaultDSMCosts()
	if opts.Costs != nil {
		costs = *opts.Costs
	}
	eng := core.NewEngine(cl, costs, proto)
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	return &System{cl: cl, eng: eng, rt: rt, heap: jmm.NewHeap(eng)}, nil
}

// Nodes reports the cluster size.
func (s *System) Nodes() int { return s.cl.Size() }

// Protocol reports the bound protocol's name.
func (s *System) Protocol() string { return s.eng.Protocol().Name() }

// Main runs fn as the program's main thread on node 0 and returns the
// program's virtual execution time.
func (s *System) Main(fn func(*Thread)) Time { return s.rt.Main(fn) }

// Spawn creates a computation thread placed by the round-robin load
// balancer, like a Java "new Thread(...).start()" under Hyperion.
func (s *System) Spawn(parent *Thread, fn func(*Thread)) *Thread { return s.rt.Spawn(parent, fn) }

// SpawnOn creates a thread on an explicit node.
func (s *System) SpawnOn(parent *Thread, node int, fn func(*Thread)) *Thread {
	return s.rt.SpawnOn(parent, node, fn)
}

// Join blocks until the child thread terminates, like Thread.join.
func (s *System) Join(joiner, child *Thread) { s.rt.Join(joiner, child) }

// NewF64Array allocates a shared double[] homed at the given node.
func (s *System) NewF64Array(t *Thread, home, n int) F64Array { return s.heap.NewF64Array(t, home, n) }

// NewF64ArrayAligned allocates a page-aligned shared double[].
func (s *System) NewF64ArrayAligned(t *Thread, home, n int) F64Array {
	return s.heap.NewF64ArrayAligned(t, home, n)
}

// NewI32Array allocates a shared int[] homed at the given node.
func (s *System) NewI32Array(t *Thread, home, n int) I32Array { return s.heap.NewI32Array(t, home, n) }

// NewI32ArrayAligned allocates a page-aligned shared int[].
func (s *System) NewI32ArrayAligned(t *Thread, home, n int) I32Array {
	return s.heap.NewI32ArrayAligned(t, home, n)
}

// NewI64Array allocates a shared long[] homed at the given node.
func (s *System) NewI64Array(t *Thread, home, n int) I64Array { return s.heap.NewI64Array(t, home, n) }

// NewMonitor creates a Java monitor homed at the given node.
func (s *System) NewMonitor(home int) *Monitor { return s.heap.NewMonitor(home) }

// NewBarrier creates a phase barrier for the given number of parties,
// homed at a node.
func (s *System) NewBarrier(home, parties int) *Barrier { return s.heap.NewBarrier(home, parties) }

// Stats snapshots the run's protocol event counters (locality checks,
// page faults, mprotect calls, fetches, diff traffic, ...).
func (s *System) Stats() Stats { return s.cl.Counters().Snapshot() }

// RunStats reports the per-node breakdown of the counters Stats sums —
// the same numbers hyperion-run -counters prints and sweep results carry.
func (s *System) RunStats() RunStats { return s.eng.RunStats() }

// EnableTracing attaches a fresh protocol-event ring of the given
// capacity (<= 0 selects the default of 65536 events) and returns it.
// Once the ring fills, the oldest events are overwritten, so the trace
// always holds the newest window of the run. Recording observes the
// simulation without advancing virtual time; call before Main and
// render with the buffer's WritePerfetto.
func (s *System) EnableTracing(capacity int) *TraceBuffer {
	buf := trace.NewBuffer(capacity)
	s.eng.SetTracer(buf)
	return buf
}

// EnablePageProfiling attaches a fresh per-page sharing profiler to the
// engine. Like tracing it observes the simulation without advancing
// virtual time; unlike the trace ring it is unbounded but small (a few
// dozen bytes per distinct page touched remotely). Call before Main,
// then read the classified report with PageStats.
func (s *System) EnablePageProfiling() error {
	return s.eng.SetPageProfiler(pagestats.New())
}

// PageStats snapshots the per-page sharing report. It returns nil when
// EnablePageProfiling was never called.
func (s *System) PageStats() *PageReport {
	prof := s.eng.PageProfiler()
	if prof == nil {
		return nil
	}
	return prof.Report()
}

// NetworkStats reports cumulative message and byte counts.
func (s *System) NetworkStats() (messages, bytes int64) { return s.cl.Network().Stats() }

// ExecutionTime reports the virtual completion time of the last Main run.
func (s *System) ExecutionTime() Time { return s.rt.LastEnd() }

// Runtime exposes the threads subsystem for advanced use (migration,
// custom balancers via threads.NewRuntime).
func (s *System) Runtime() *threads.Runtime { return s.rt }

// Heap exposes the object heap for advanced use.
func (s *System) Heap() *jmm.Heap { return s.heap }

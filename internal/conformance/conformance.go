// Package conformance is the cross-protocol differential-testing layer
// of Hyperion-Go. With four registered consistency protocols that must
// agree on observable memory semantics while disagreeing on cost, "the
// protocols are interchangeable" is itself a testable claim: this
// package runs the same seeded, deterministic workloads under every
// registered protocol and compares what Java code could observe — the
// validation outcome, the final main-memory image (every home page,
// byte for byte), and the values each thread read at its deterministic
// read points.
//
// The workload table is fixed but the protocol axis is the live
// registry (core.ProtocolNames()), so a newly registered protocol is
// covered by the whole suite the moment its init runs — java_hlrc was
// the first protocol to land against this harness.
//
// Workloads must be phase-deterministic to be comparable: every
// cross-thread read is separated from the write it observes by a
// barrier or monitor, so the values read depend on the data-flow
// structure, never on virtual-time or scheduler ordering (which *do*
// differ across protocols). Unordered floating-point reductions (Pi's
// monitor accumulation) are bitwise scheduler-dependent, so such
// workloads compare rounded summaries instead of raw heap bytes.
package conformance

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/pi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jmm"
	"repro/internal/model"
	"repro/internal/pages"
	"repro/internal/pagestats"
	"repro/internal/stats"
	"repro/internal/threads"
)

// Observation is everything about one run that must be
// protocol-independent.
type Observation struct {
	Protocol string
	Valid    bool
	Summary  string
	// Heap is the final main-memory image: a copy of every home page.
	Heap map[pages.PageID][]byte
	// Reads holds the values each worker read at the workload's
	// deterministic read points, in program order; nil when the
	// workload records none.
	Reads [][]float64
	// Stats is the engine's counter snapshot for the run. Counters are
	// cost-model observables — they legitimately differ ACROSS protocols
	// and are excluded from Diff — but for one protocol they must be
	// bit-identical run to run, or every counter surface (CSV, cache,
	// /v1/results) is noise.
	Stats core.RunStats
	// Events is the cluster-wide read-out of the same counter store
	// (the public Stats API), and Messages the network's message count.
	Events   stats.Snapshot
	Messages int64
	// PageStats is the per-page sharing report. Like Stats it measures
	// cost and is excluded from Diff, with the same intra-protocol
	// contract: page-event counts must reproduce bit-identically run to
	// run, or -pagestats output and /v1/sweeps pagestats downloads are
	// noise.
	PageStats *pagestats.Report
}

// Workload is one deterministic program of the differential suite.
type Workload struct {
	Name    string
	Nodes   int
	Workers int
	// CompareHeap selects byte-exact comparison of the final home
	// pages. Disable only for workloads whose heap holds an unordered
	// floating-point reduction (bitwise scheduler-dependent).
	CompareHeap bool
	// HostScheduledMonitors marks a workload in which threads sharing a
	// node contend for a monitor. The host scheduler decides who is
	// granted it next, hence how many pages a monitor entry still finds
	// in the node's cache, so invalidation counts (and the mprotect
	// calls derived from them) vary run to run and the reproducibility
	// tests compare every other field. ROADMAP item 1's deterministic
	// scheduler deletes this field and the exclusion with it.
	HostScheduledMonitors bool
	// Run executes the workload and returns its validation outcome and
	// per-worker recorded reads.
	Run func(rt *threads.Runtime, h *jmm.Heap, workers int) (apps.Check, [][]float64)
}

// Execute runs one workload under one protocol on the SCI platform and
// captures the observation.
func Execute(w Workload, protocol string) (Observation, error) {
	cl, err := cluster.New(model.SCI450(), w.Nodes, &stats.Counters{})
	if err != nil {
		return Observation{}, err
	}
	proto, err := core.NewProtocol(protocol)
	if err != nil {
		return Observation{}, err
	}
	eng := core.NewEngine(cl, model.DefaultDSMCosts(), proto)
	prof := pagestats.New()
	if err := eng.SetPageProfiler(prof); err != nil {
		return Observation{}, err
	}
	rt := threads.NewRuntime(eng, threads.RoundRobin{}, threads.DefaultCosts())
	h := jmm.NewHeap(eng)
	check, reads := w.Run(rt, h, w.Workers)
	msgs, _ := cl.Network().Stats()
	return Observation{
		Protocol:  protocol,
		Valid:     check.Valid,
		Summary:   check.Summary,
		Heap:      eng.HomeSnapshot(),
		Reads:     reads,
		Stats:     eng.RunStats(),
		Events:    cl.Counters().Snapshot(),
		Messages:  msgs,
		PageStats: prof.Report(),
	}, nil
}

// Diff reports the observable differences between two runs of the same
// workload, as human-readable mismatch descriptions. Empty means the
// two protocols were indistinguishable to the program.
func Diff(w Workload, base, other Observation) []string {
	var out []string
	if base.Valid != other.Valid {
		out = append(out, fmt.Sprintf("valid: %s=%t %s=%t", base.Protocol, base.Valid, other.Protocol, other.Valid))
	}
	if base.Summary != other.Summary {
		out = append(out, fmt.Sprintf("summary: %s=%q %s=%q", base.Protocol, base.Summary, other.Protocol, other.Summary))
	}
	if w.CompareHeap {
		out = append(out, diffHeaps(base, other)...)
	}
	if len(base.Reads) != len(other.Reads) {
		out = append(out, fmt.Sprintf("read sets: %d vs %d workers", len(base.Reads), len(other.Reads)))
		return out
	}
	for wi := range base.Reads {
		a, b := base.Reads[wi], other.Reads[wi]
		if len(a) != len(b) {
			out = append(out, fmt.Sprintf("worker %d: %d vs %d reads", wi, len(a), len(b)))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				out = append(out, fmt.Sprintf("worker %d read %d: %v vs %v", wi, i, a[i], b[i]))
				break // one mismatch per worker keeps reports readable
			}
		}
	}
	return out
}

// diffHeaps compares the final main-memory images page by page.
func diffHeaps(base, other Observation) []string {
	var out []string
	ids := make(map[pages.PageID]bool)
	for p := range base.Heap {
		ids[p] = true
	}
	for p := range other.Heap {
		ids[p] = true
	}
	sorted := make([]pages.PageID, 0, len(ids))
	for p := range ids {
		sorted = append(sorted, p)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range sorted {
		a, okA := base.Heap[p]
		b, okB := other.Heap[p]
		switch {
		case !okA || !okB:
			out = append(out, fmt.Sprintf("page %d: present %s=%t %s=%t", p, base.Protocol, okA, other.Protocol, okB))
		case !bytes.Equal(a, b):
			off := 0
			for off < len(a) && off < len(b) && a[off] == b[off] {
				off++
			}
			out = append(out, fmt.Sprintf("page %d differs from byte %d: %s=%#x %s=%#x", p, off, base.Protocol, a[off], other.Protocol, b[off]))
		}
	}
	return out
}

// appWorkload adapts a benchmark program (which validates itself and
// records no reads) into the suite.
func appWorkload(name string, nodes, workers int, compareHeap bool, makeApp func() apps.App) Workload {
	return Workload{
		Name:        name,
		Nodes:       nodes,
		Workers:     workers,
		CompareHeap: compareHeap,
		Run: func(rt *threads.Runtime, h *jmm.Heap, workers int) (apps.Check, [][]float64) {
			return makeApp().Run(rt, h, workers), nil
		},
	}
}

// Workloads returns the differential suite, table-driven so tests cover
// every workload under every registered protocol.
func Workloads() []Workload {
	return []Workload{
		// Pi's global sum accumulates under a monitor in scheduler
		// order, so its heap double is not bitwise reproducible; the
		// rounded summary is.
		appWorkload("pi-small", 4, 4, false, func() apps.App { return pi.New(50_000) }),
		// Jacobi is barrier-phased: every value is a pure function of
		// the previous phase, so the full grid must match bitwise.
		appWorkload("jacobi-small-grid", 4, 4, true, func() apps.App { return jacobi.New(32, 4) }),
		appWorkload("jacobi-tiny-grid-6n", 6, 6, true, func() apps.App { return jacobi.New(24, 3) }),
		piSlots(),
		monitorCounter(),
		neighborExchange(),
		volatilePublish(),
	}
}

// piSlots is the deterministic variant of Pi: each worker writes its
// partial sum into its own slot (no ordering dependence), and the main
// thread reduces the slots in index order. Unlike the benchmark, both
// the heap and the reduction are bitwise comparable.
func piSlots() Workload {
	const intervals = 40_000
	return Workload{
		Name:        "pi-slots",
		Nodes:       4,
		Workers:     4,
		CompareHeap: true,
		Run: func(rt *threads.Runtime, h *jmm.Heap, workers int) (apps.Check, [][]float64) {
			reads := make([][]float64, workers)
			var sum float64
			rt.Main(func(main *threads.Thread) {
				partials := h.NewF64ArrayAligned(main, 0, workers)
				bar := h.NewBarrier(0, workers)
				ws := make([]*threads.Thread, workers)
				for w := 0; w < workers; w++ {
					w := w
					lo := w * intervals / workers
					hi := (w + 1) * intervals / workers
					ws[w] = rt.Spawn(main, func(t *threads.Thread) {
						dx := 1.0 / float64(intervals)
						local := 0.0
						for i := lo; i < hi; i++ {
							x := (float64(i) + 0.5) * dx
							local += 4.0 / (1.0 + x*x) * dx
						}
						partials.Set(t, w, local)
						bar.Await(t)
						// Deterministic read point: every worker
						// observes every slot of the finished phase.
						for i := 0; i < workers; i++ {
							reads[w] = append(reads[w], partials.Get(t, i))
						}
						bar.Await(t)
					})
				}
				for _, wt := range ws {
					rt.Join(main, wt)
				}
				for i := 0; i < workers; i++ {
					sum += partials.Get(main, i)
				}
			})
			valid := sum > 3.14 && sum < 3.15
			return apps.Check{Valid: valid, Summary: fmt.Sprintf("pi=%.8f", sum)}, reads
		},
	}
}

// monitorCounter increments one shared counter under a monitor from
// every worker. Per-increment observations would be scheduler-ordered,
// so workers record only the barrier-separated final value.
func monitorCounter() Workload {
	const perWorker = 25
	return Workload{
		Name:                  "monitor-counter",
		Nodes:                 4,
		Workers:               8, // two threads per node: exercises the shared node log
		CompareHeap:           true,
		HostScheduledMonitors: true,
		Run: func(rt *threads.Runtime, h *jmm.Heap, workers int) (apps.Check, [][]float64) {
			reads := make([][]float64, workers)
			var final int64
			rt.Main(func(main *threads.Thread) {
				counter := h.NewI64Array(main, 0, 1)
				mon := h.NewMonitor(0)
				bar := h.NewBarrier(0, workers)
				ws := make([]*threads.Thread, workers)
				for w := 0; w < workers; w++ {
					w := w
					ws[w] = rt.Spawn(main, func(t *threads.Thread) {
						for i := 0; i < perWorker; i++ {
							mon.Synchronized(t, func() {
								counter.Set(t, 0, counter.Get(t, 0)+1)
							})
						}
						bar.Await(t)
						reads[w] = append(reads[w], float64(counter.Get(t, 0)))
					})
				}
				for _, wt := range ws {
					rt.Join(main, wt)
				}
				final = counter.Get(main, 0)
			})
			want := int64(workers * perWorker)
			return apps.Check{Valid: final == want, Summary: fmt.Sprintf("counter=%d want=%d", final, want)}, reads
		},
	}
}

// neighborExchange is a barrier-phased stencil skeleton: each phase,
// worker w writes f(w, phase) over its own block and then reads its
// left neighbor's block. Every read is determined by the data flow.
func neighborExchange() Workload {
	const (
		perWorker = 24 // doubles per block
		phases    = 3
	)
	return Workload{
		Name:        "neighbor-exchange",
		Nodes:       4,
		Workers:     4,
		CompareHeap: true,
		Run: func(rt *threads.Runtime, h *jmm.Heap, workers int) (apps.Check, [][]float64) {
			reads := make([][]float64, workers)
			rt.Main(func(main *threads.Thread) {
				blocks := make([]jmm.F64Array, workers)
				for w := 0; w < workers; w++ {
					// Each block is page-aligned and homed round-robin,
					// so every worker writes remote pages of several
					// homes per phase — the aggregated-diff fan-out.
					blocks[w] = h.NewF64ArrayAligned(main, w%4, perWorker)
				}
				bar := h.NewBarrier(0, workers)
				ws := make([]*threads.Thread, workers)
				for w := 0; w < workers; w++ {
					w := w
					ws[w] = rt.Spawn(main, func(t *threads.Thread) {
						for ph := 0; ph < phases; ph++ {
							for i := 0; i < perWorker; i++ {
								blocks[w].Set(t, i, float64(1000*ph+100*w+i))
							}
							bar.Await(t)
							left := (w + workers - 1) % workers
							for i := 0; i < perWorker; i += 5 {
								reads[w] = append(reads[w], blocks[left].Get(t, i))
							}
							bar.Await(t)
						}
					})
				}
				for _, wt := range ws {
					rt.Join(main, wt)
				}
			})
			return apps.Check{Valid: true, Summary: "neighbor-exchange"}, reads
		},
	}
}

// volatilePublish writes a data block, publishes a phase number through
// a volatile store (java_hlrc's extra release boundary), and rendezvous
// at a barrier before readers look — so the observable values are
// deterministic for every protocol while java_hlrc additionally proves
// its volatile-store flush does not corrupt or reorder anything.
func volatilePublish() Workload {
	const (
		slots  = 16
		rounds = 3
	)
	return Workload{
		Name:        "volatile-publish",
		Nodes:       3,
		Workers:     3,
		CompareHeap: true,
		Run: func(rt *threads.Runtime, h *jmm.Heap, workers int) (apps.Check, [][]float64) {
			reads := make([][]float64, workers)
			rt.Main(func(main *threads.Thread) {
				data := h.NewF64ArrayAligned(main, 1, slots) // homed away from the writer
				flag := h.NewVolatileI64(main, 2)
				bar := h.NewBarrier(0, workers)
				ws := make([]*threads.Thread, workers)
				for w := 0; w < workers; w++ {
					w := w
					ws[w] = rt.Spawn(main, func(t *threads.Thread) {
						for r := 0; r < rounds; r++ {
							if w == 0 {
								for i := 0; i < slots; i++ {
									data.Set(t, i, float64(100*r+i))
								}
								flag.Set(t, int64(r))
							}
							bar.Await(t)
							reads[w] = append(reads[w], float64(flag.Get(t)))
							for i := 0; i < slots; i += 3 {
								reads[w] = append(reads[w], data.Get(t, i))
							}
							bar.Await(t)
						}
					})
				}
				for _, wt := range ws {
					rt.Join(main, wt)
				}
			})
			return apps.Check{Valid: true, Summary: "volatile-publish"}, reads
		},
	}
}

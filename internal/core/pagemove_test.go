package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pages"
)

// Tests that pin the page-movement path: what a fetch and a flush may
// allocate, who owns a fetched page image, and that the in-lock diff
// encoder produces the bytes the span-based reference does.

// allocBytesPerRun reports the mean heap bytes one call of f allocates.
func allocBytesPerRun(runs int, f func()) float64 {
	f() // warm up, like testing.AllocsPerRun
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// One remote load moves the page once: the home's reply (one page image),
// the frame that adopts it, and the RPC's call record. The request comes
// from the Ctx's buffer and the image is not copied a second time.
func TestRemoteLoadAllocationBudget(t *testing.T) {
	for _, proto := range ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			e := newTestEngine(t, 2, proto)
			ctx := e.NewCtx(0, 0)
			remote, err := e.AllocPageAligned(ctx, 1, e.Space().PageSize())
			if err != nil {
				t.Fatal(err)
			}
			load := func() {
				e.InvalidateCache(ctx)
				ctx.GetF64(remote)
			}
			if n := testing.AllocsPerRun(200, load); n > 4 {
				t.Errorf("remote load = %v allocations, want <= 4", n)
			}
			if b, max := allocBytesPerRun(200, load), float64(e.Space().PageSize()+256); b > max {
				t.Errorf("remote load = %.0f bytes, want <= %.0f (one page image)", b, max)
			}
		})
	}
}

// scatter64 is 64 distinct word offsets of one page in an order that is
// neither ascending nor adjacent, so the flush has to sort.
func scatter64() []int {
	offs := make([]int, 64)
	for i := range offs {
		offs[i] = ((i*37 + 11) & 511) * 8
	}
	return offs
}

// A steady-state flush allocates the wire message and nothing else: no
// span slices, no per-home map, no sort scratch, no fresh arena.
func TestFlushAllocatesOnlyTheMessage(t *testing.T) {
	offs := scatter64()
	var word [8]byte

	w := NewWriteLog(func(pages.PageID) int { return 1 })
	var diffs []diffMsg
	logFlush := func() {
		for _, off := range offs {
			w.Record(7, off, word[:])
		}
		diffs = w.TakeDiffs(diffs[:0], nil)
	}
	if n := testing.AllocsPerRun(100, logFlush); n != 1 {
		t.Errorf("WriteLog flush of 64 scattered records = %v allocations, want 1 (the message)", n)
	}
	if len(diffs) != 1 || len(decodeSpans(t, diffs[0].msg)) == 0 {
		t.Fatalf("flush produced %d messages", len(diffs))
	}

	// Through the engine the RPC's call record is the only addition.
	for _, proto := range []string{"java_ic", "java_hlrc"} {
		e := newTestEngine(t, 2, proto)
		ctx := e.NewCtx(0, 0)
		remote, err := e.AllocPageAligned(ctx, 1, e.Space().PageSize())
		if err != nil {
			t.Fatal(err)
		}
		engineFlush := func() {
			for i, off := range offs {
				ctx.PutF64(remote+pages.Addr(off), float64(i))
			}
			e.Release(ctx)
		}
		if n := testing.AllocsPerRun(100, engineFlush); n > 2 {
			t.Errorf("%s: release of 64 scattered puts = %v allocations, want <= 2 (message + call record)", proto, n)
		}
	}
}

// The fetch ownership rule: the home's reply is adopted by the cached
// frame, so it must be a private copy — a write at home after the fetch
// must not show in the cached copy, and a write to the cached copy must
// not show at home until it is flushed.
func TestAdoptedFrameSharesNothingWithHome(t *testing.T) {
	for _, proto := range ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			e := newTestEngine(t, 2, proto)
			owner, reader := e.NewCtx(1, 0), e.NewCtx(0, 0)
			a, err := e.AllocPageAligned(owner, 1, e.Space().PageSize())
			if err != nil {
				t.Fatal(err)
			}
			owner.PutF64(a, 1)
			if got := reader.GetF64(a); got != 1 {
				t.Fatalf("fetched %v, want 1", got)
			}

			owner.PutF64(a, 2) // home → cache direction
			if got := reader.GetF64(a); got != 1 {
				t.Errorf("home write showed through the cached copy: read %v, want the fetched 1", got)
			}
			reader.PutF64(a+8, 3) // cache → home direction
			if got := owner.GetF64(a + 8); got != 0 {
				t.Errorf("unflushed cached write showed at home: read %v, want 0", got)
			}

			// Only the protocol's own synchronisation moves data.
			e.Release(reader)
			if got := owner.GetF64(a + 8); got != 3 {
				t.Errorf("after release home holds %v, want 3", got)
			}
			e.Acquire(reader)
			if got := reader.GetF64(a); got != 2 {
				t.Errorf("after acquire read %v, want home's 2", got)
			}
		})
	}
}

// java_up's refresh adopts the new image into the frame that is already
// installed: threads holding the frame keep a valid handle, and the
// refreshed copy is as private as a first fetch.
func TestRefreshCacheKeepsFrameIdentity(t *testing.T) {
	e := newTestEngine(t, 2, "java_up")
	owner, reader := e.NewCtx(1, 0), e.NewCtx(0, 0)
	a, err := e.AllocPageAligned(owner, 1, e.Space().PageSize())
	if err != nil {
		t.Fatal(err)
	}
	p := e.Space().PageOf(a)
	reader.GetF64(a)
	before, _ := e.nodes[0].cache.Lookup(p)

	owner.PutF64(a, 5)
	if n := e.RefreshCache(reader); n != 1 {
		t.Fatalf("refreshed %d pages, want 1", n)
	}
	after, _ := e.nodes[0].cache.Lookup(p)
	if before == nil || before != after {
		t.Fatalf("refresh replaced the frame (%p -> %p), want it kept", before, after)
	}
	if got := reader.GetF64(a); got != 5 {
		t.Errorf("refreshed copy reads %v, want 5", got)
	}
	owner.PutF64(a, 6)
	if got := reader.GetF64(a); got != 5 {
		t.Errorf("home write showed through the refreshed copy: read %v", got)
	}
}

// A refresh recycles the image it swaps out: the page it replaces goes
// on the node's spare list and the next reply is copied into it, so a
// steady-state java_up acquire allocates no page images at all.
func TestRefreshRecyclesReplacedImages(t *testing.T) {
	e := newTestEngine(t, 2, "java_up")
	owner, reader := e.NewCtx(1, 0), e.NewCtx(0, 0)
	const cached = 4
	ps := e.Space().PageSize()
	a, err := e.AllocPageAligned(owner, 1, cached*ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cached; i++ {
		reader.GetF64(a + pages.Addr(i*ps))
	}
	refresh := func() {
		if n := e.RefreshCache(reader); n != cached {
			t.Fatalf("refreshed %d pages, want %d", n, cached)
		}
	}
	if b := allocBytesPerRun(50, refresh); b >= float64(ps) {
		t.Errorf("refresh of %d pages = %.0f bytes, want < %d (no page image)", cached, b, ps)
	}
	owner.PutF64(a, 9)
	refresh()
	if got := reader.GetF64(a); got != 9 {
		t.Errorf("refreshed through a recycled image, read %v, want 9", got)
	}
}

// randomSpans draws a write-ordered span set that exercises every case
// of the encoder: several pages on several homes, exact adjacency
// (coalescing), partial and total overlaps (later write wins), and
// descending offsets (sorting).
func randomSpans(rng *rand.Rand) []span {
	var spans []span
	npages := 1 + rng.Intn(6)
	for n := rng.Intn(60); n > 0; n-- {
		s := span{page: pages.PageID(rng.Intn(npages)), off: rng.Intn(256)}
		if len(spans) > 0 {
			prev := spans[rng.Intn(len(spans))]
			switch rng.Intn(4) {
			case 0: // exactly adjacent to an earlier record
				s.page, s.off = prev.page, prev.off+len(prev.data)
			case 1: // overlapping an earlier record
				s.page, s.off = prev.page, max(0, prev.off-rng.Intn(4))
			}
		}
		s.data = make([]byte, 1+rng.Intn(12))
		rng.Read(s.data)
		spans = append(spans, s)
	}
	return spans
}

// checkAgainstReference flushes spans through the production encoder and
// requires, per home, the reference encoder's exact bytes, and overall
// the image a sequential replay of the writes produces.
func checkAgainstReference(t testing.TB, label string, spans []span, homes int) {
	t.Helper()
	w := logSpans(func(p pages.PageID) int { return int(p) % homes }, spans)
	groups := refTake(w)
	diffs := w.TakeDiffs(nil, nil)
	if len(diffs) != len(groups) {
		t.Fatalf("%s: %d messages for %d homes with pending writes", label, len(diffs), len(groups))
	}
	var shipped []span
	for i, d := range diffs {
		if i > 0 && diffs[i-1].home >= d.home {
			t.Fatalf("%s: messages not in ascending home order: %d then %d", label, diffs[i-1].home, d.home)
		}
		if want := refEncodeDiff(groups[d.home]); !bytes.Equal(d.msg, want) {
			t.Fatalf("%s, home %d: message differs from the reference encoder\n got  %x\n want %x\n spans %v", label, d.home, d.msg, want, spans)
		}
		shipped = append(shipped, decodeSpans(t, d.msg)...)
	}
	want, got := applySpans(spans), applySpans(shipped)
	if len(want) != len(got) {
		t.Fatalf("%s: applied %d pages, want %d", label, len(got), len(want))
	}
	for p, img := range want {
		if !bytes.Equal(img, got[p]) {
			t.Fatalf("%s, page %d: applied image differs from a sequential replay\n got  %x\n want %x", label, p, got[p], img)
		}
	}
}

// The message length feeds the simulated cost model, so the new encoder
// must reproduce the old one byte for byte, not just semantically.
func TestEncoderMatchesReferenceByteForByte(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spans, homes := randomSpans(rng), 1+rng.Intn(4)
		checkAgainstReference(t, fmt.Sprint("seed ", seed), spans, homes)
	}
}

// FuzzDecodeDiff feeds arbitrary bytes to the applyDiff decoder, which
// must reject or deliver them without panicking, whatever record count
// and lengths they claim; and reads the same bytes as a write program
// (4 bytes a write: page, offset, length, fill) whose encode → decode →
// apply must equal its sequential replay and the reference's bytes.
func FuzzDecodeDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(encodeSpans(f, []span{{page: 1, off: 8, data: []byte{1, 2, 3, 4}}, {page: 1, off: 12, data: []byte{5}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		delivered := 0
		err := walkDiff(data, func(_ pages.PageID, _ int, rec []byte) { delivered += 16 + len(rec) })
		if err == nil && delivered+4 > len(data) {
			t.Fatalf("decoder delivered %d bytes of records from a %d-byte message", delivered, len(data))
		}

		var spans []span
		for ; len(data) >= 4; data = data[4:] {
			s := span{page: pages.PageID(data[0] & 7), off: int(data[1]), data: make([]byte, 1+int(data[2]&15))}
			for i := range s.data {
				s.data[i] = data[3] + byte(i)
			}
			spans = append(spans, s)
		}
		checkAgainstReference(t, "write program", spans, 3)
	})
}

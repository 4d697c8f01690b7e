package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/pages"
)

// rec is one field-granularity modification record: n bytes written at
// offset off within its page, with the payload at arena[start:start+n]
// of the owning WriteLog. Hyperion records modifications "at the moment
// when they are carried out, with object-field granularity" (§3.1) via
// the put primitive; these records are what updateMainMemory ships to
// home nodes. Keeping the payload in a shared arena makes Record
// allocation-free in the steady state — the hottest operation of the
// whole write path, executed once per remote put.
type rec struct {
	off   int32
	n     int32
	start int // payload offset in the log's arena
}

// end is the page offset one past the record's last byte.
func (r rec) end() int32 { return r.off + r.n }

// pageBuf is the per-page append-only record buffer. Buffers are reset
// by epoch, not by clearing: TakeDiffs bumps the log epoch, and a buffer
// whose epoch lags is treated as empty and rewound on its next touch.
// A flush therefore costs O(pages touched this epoch), never O(pages
// ever touched).
type pageBuf struct {
	page  pages.PageID
	home  int // the page's home node
	epoch uint64
	recs  []rec
}

// diffMsg is one encoded svcApplyDiff message and the home node it is
// addressed to.
type diffMsg struct {
	home int
	msg  []byte
}

// WriteLog accumulates the modifications made on one node to pages homed
// elsewhere. It is node-level (not thread-level) because Hyperion caches
// are per node: any thread's monitor operation flushes the node's pending
// modifications. Safe for concurrent use.
//
// Layout: records live in per-page append-only buffers (so a release
// boundary can ship them grouped and sorted with almost no work), and
// payload bytes live in one shared append-only arena. A flush encodes
// the wire messages while it still holds the lock — other threads of the
// node keep calling Record during a flush — which is what lets the arena
// and the buffers be rewound and reused instead of handed away.
type WriteLog struct {
	homeOf func(pages.PageID) int // set at construction, never changed

	mu      sync.Mutex
	pages   map[pages.PageID]*pageBuf // guarded by mu
	order   []*pageBuf                // buffers touched this epoch (guarded by mu)
	arena   []byte                    // payload bytes of the current epoch (guarded by mu)
	epoch   uint64                    // guarded by mu
	last    *pageBuf                  // most recently written buffer, the fast path (guarded by mu)
	keys    []uint64                  // sort scratch of resolveLocked (guarded by mu)
	sorted  []rec                     // sort scratch of resolveLocked (guarded by mu)
	records int                       // guarded by mu
	bytes   int                       // guarded by mu
}

// NewWriteLog returns an empty log that groups its flushes by homeOf.
func NewWriteLog(homeOf func(pages.PageID) int) *WriteLog {
	return &WriteLog{homeOf: homeOf}
}

// Record logs a write of data at off within page p. Consecutive writes
// extending the previous record (the common pattern of a loop filling an
// array) are coalesced in place. The common case — another write to the
// same page as the last one — touches no map and allocates nothing.
//
//hyperion:hotpath
func (w *WriteLog) Record(p pages.PageID, off int, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pb := w.last
	if pb == nil || pb.page != p {
		pb = w.bufLocked(p)
		w.last = pb
	}
	if n := len(pb.recs); n > 0 {
		lr := &pb.recs[n-1]
		// Extend in place only when the new bytes are contiguous both
		// in the page (off continues the record) and in the arena (no
		// other page's payload landed in between).
		if int(lr.off)+int(lr.n) == off && lr.start+int(lr.n) == len(w.arena) {
			w.arena = append(w.arena, data...)
			lr.n += int32(len(data))
			w.bytes += len(data)
			return
		}
	}
	pb.recs = append(pb.recs, rec{off: int32(off), n: int32(len(data)), start: len(w.arena)})
	w.arena = append(w.arena, data...)
	w.records++
	w.bytes += len(data)
}

// bufLocked returns p's record buffer for the current epoch, creating
// it on first ever touch and rewinding it lazily when it carries
// records of a flushed epoch. Caller holds w.mu.
func (w *WriteLog) bufLocked(p pages.PageID) *pageBuf {
	pb := w.pages[p]
	if pb == nil {
		if w.pages == nil { // most nodes of most runs never write remotely
			w.pages = make(map[pages.PageID]*pageBuf)
		}
		pb = &pageBuf{page: p, home: w.homeOf(p), epoch: w.epoch}
		w.pages[p] = pb
		w.order = append(w.order, pb)
		return pb
	}
	if pb.epoch != w.epoch {
		pb.epoch = w.epoch
		pb.recs = pb.recs[:0]
		w.order = append(w.order, pb)
	}
	return pb
}

// TakeDiffs removes all pending records and appends to dst one encoded
// applyDiff message per home node that has any, in ascending home order.
// note, when non-nil, is told every record as it was logged. Nothing
// but the messages is allocated once the log's buffers have grown to
// their working size.
//
// The message format is
//
//	u32 count | count x ( u64 page | u32 off | u32 len | len bytes )
//
// with pages ascending and, per page, records resolved to disjoint
// offset-sorted runs — overlapping writes are replayed in write order
// first, so a later write always wins regardless of emission order — and
// exactly-adjacent records coalesced into one wire record: strided
// writes that became contiguous once sorted ship one header instead of
// many. The output is deterministic.
func (w *WriteLog) TakeDiffs(dst []diffMsg, note func(p pages.PageID, off, n int)) []diffMsg {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.records == 0 {
		return dst
	}
	for _, pb := range w.order {
		if note != nil {
			for _, r := range pb.recs {
				note(pb.page, int(r.off), int(r.n))
			}
		}
		w.resolveLocked(pb)
	}
	// (home, page) is a total order on distinct pages, so the typed
	// unstable sort is deterministic.
	slices.SortFunc(w.order, func(a, b *pageBuf) int {
		if c := cmp.Compare(a.home, b.home); c != 0 {
			return c
		}
		return cmp.Compare(a.page, b.page)
	})
	for i := 0; i < len(w.order); {
		j := i + 1
		for j < len(w.order) && w.order[j].home == w.order[i].home {
			j++
		}
		dst = append(dst, diffMsg{home: w.order[i].home, msg: w.encodeLocked(w.order[i:j])})
		i = j
	}
	// Epoch-based reset: stale page buffers rewind lazily on their next
	// touch; the arena is rewound now, every payload having been copied
	// into a message.
	w.epoch++
	w.arena = w.arena[:0]
	w.order = w.order[:0]
	w.last = nil
	w.records = 0
	w.bytes = 0
	return dst
}

// Pending reports the number of pending records and payload bytes.
func (w *WriteLog) Pending() (records, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes
}

// overlapOrDisorder reports whether some record starts before its
// predecessor ends.
func overlapOrDisorder(recs []rec) bool {
	for k := 1; k < len(recs); k++ {
		if recs[k-1].end() > recs[k].off {
			return true
		}
	}
	return false
}

// resolveLocked rewrites one page's write-ordered records into disjoint,
// offset-sorted records with later writes winning. The common case — no
// two records overlap — never touches the payloads; the slow path
// replays the writes in order into a scratch image at the arena's tail
// (put writes only ever overlap within one page's extent, so the scratch
// is bounded by twice the page size). Caller holds w.mu.
func (w *WriteLog) resolveLocked(pb *pageBuf) {
	// Fastest path: already offset-sorted and disjoint (sequential
	// fills, strided loops) — no sort.
	if !overlapOrDisorder(pb.recs) {
		return
	}
	// Sort a copy by offset, stably, as plain integers: offset in the
	// high half of a uint64 key, write-order index in the low half.
	keys, sorted := w.keys[:0], w.sorted[:0]
	for i, r := range pb.recs {
		keys = append(keys, uint64(r.off)<<32|uint64(i))
	}
	slices.Sort(keys)
	for _, k := range keys {
		sorted = append(sorted, pb.recs[uint32(k)])
	}
	w.keys, w.sorted = keys, sorted
	if !overlapOrDisorder(sorted) {
		copy(pb.recs, sorted)
		return
	}
	lo, hi := sorted[0].off, sorted[0].off
	for _, r := range sorted {
		hi = max(hi, r.end())
	}
	base, ext := len(w.arena), int(hi-lo)
	w.arena = append(w.arena, make([]byte, 2*ext)...)
	img, written := w.arena[base:base+ext], w.arena[base+ext:]
	for _, r := range pb.recs { // still in write order: later writes overwrite
		at := int(r.off - lo)
		copy(img[at:], w.arena[r.start:r.start+int(r.n)])
		for k := at; k < at+int(r.n); k++ {
			written[k] = 1
		}
	}
	pb.recs = pb.recs[:0]
	for k := 0; k < ext; {
		if written[k] == 0 {
			k++
			continue
		}
		start := k
		for k < ext && written[k] != 0 {
			k++
		}
		pb.recs = append(pb.recs, rec{off: lo + int32(start), n: int32(k - start), start: base + start})
	}
}

// encodeLocked serializes the resolved records of one home's pages
// (ascending) into an applyDiff message, merging each run of
// exactly-adjacent records into one wire record. Caller holds w.mu.
func (w *WriteLog) encodeLocked(pbs []*pageBuf) []byte {
	size, runs := 4, 0
	for _, pb := range pbs {
		next := int32(-1)
		for _, r := range pb.recs {
			if r.off != next {
				runs++
				size += 16
			}
			size += int(r.n)
			next = r.end()
		}
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(runs))
	p, hdr := 4, 0
	for _, pb := range pbs {
		next := int32(-1)
		for _, r := range pb.recs {
			if r.off != next {
				hdr = p
				binary.LittleEndian.PutUint64(buf[hdr:], uint64(pb.page))
				binary.LittleEndian.PutUint32(buf[hdr+8:], uint32(r.off))
				p += 16
			}
			p += copy(buf[p:], w.arena[r.start:r.start+int(r.n)])
			binary.LittleEndian.PutUint32(buf[hdr+12:], uint32(p-hdr-16))
			next = r.end()
		}
	}
	return buf
}

// walkDiff calls fn for every record of an applyDiff message, in message
// order; data aliases buf. It allocates nothing. A truncated message
// yields an error after the records before the truncation were
// delivered.
func walkDiff(buf []byte, fn func(p pages.PageID, off int, data []byte)) error {
	if len(buf) < 4 {
		return fmt.Errorf("core: diff message truncated (%d bytes)", len(buf))
	}
	count := int(binary.LittleEndian.Uint32(buf))
	p := 4
	for i := 0; i < count; i++ {
		if len(buf)-p < 16 {
			return fmt.Errorf("core: diff record %d header truncated", i)
		}
		pg := pages.PageID(binary.LittleEndian.Uint64(buf[p:]))
		off := int(binary.LittleEndian.Uint32(buf[p+8:]))
		n := int(binary.LittleEndian.Uint32(buf[p+12:]))
		p += 16
		if len(buf)-p < n {
			return fmt.Errorf("core: diff record %d payload truncated", i)
		}
		fn(pg, off, buf[p:p+n])
		p += n
	}
	return nil
}

package core

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/pages"
)

// This file keeps the span-based diff encoder that TakeDiffs replaced,
// as the reference the differential and fuzz tests compare the
// production encoder against. It is the previous implementation
// verbatim (reflection sorts and all): message length feeds the
// simulated cost model, so the two must agree byte for byte.

// span is one modification record in the reference form: the bytes
// written at an offset of a page.
type span struct {
	page pages.PageID
	off  int
	data []byte
}

// refTake returns w's pending records grouped by home node the way the
// replaced WriteLog.Take did — pages in first-touch order, records in
// write order, payloads copied out — without draining the log.
func refTake(w *WriteLog) map[int][]span {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[int][]span)
	for _, pb := range w.order {
		for _, r := range pb.recs {
			data := append([]byte{}, w.arena[r.start:r.start+int(r.n)]...)
			out[pb.home] = append(out[pb.home], span{page: pb.page, off: int(r.off), data: data})
		}
	}
	return out
}

// decodeSpans parses an applyDiff message into spans aliasing msg.
func decodeSpans(t testing.TB, msg []byte) []span {
	t.Helper()
	var out []span
	err := walkDiff(msg, func(p pages.PageID, off int, data []byte) {
		out = append(out, span{page: p, off: off, data: data})
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// logSpans records spans, in order, into a fresh log whose pages are
// homed by homeOf.
func logSpans(homeOf func(pages.PageID) int, spans []span) *WriteLog {
	w := NewWriteLog(homeOf)
	for _, s := range spans {
		w.Record(s.page, s.off, s.data)
	}
	return w
}

// encodeSpans is the production path for one home: record the spans in
// order, flush, and return the single message (the empty message when
// there was nothing to flush).
func encodeSpans(t testing.TB, spans []span) []byte {
	t.Helper()
	diffs := logSpans(func(pages.PageID) int { return 0 }, spans).TakeDiffs(nil, nil)
	switch len(diffs) {
	case 0:
		return []byte{0, 0, 0, 0}
	case 1:
		return diffs[0].msg
	}
	t.Fatalf("one home produced %d messages", len(diffs))
	return nil
}

// refEncodeDiff serializes a batch of spans into one applyDiff message:
//
//	u32 count | count x ( u64 page | u32 off | u32 len | len bytes )
//
// Input spans must be in write order within each page (what Take
// produces). Per page, spans are resolved to disjoint offset-sorted
// records — overlapping writes are replayed in write order first, so a
// later write always wins regardless of emission order — and
// exactly-adjacent records are coalesced into one wire record: strided
// writes that became contiguous once sorted ship one header instead of
// many. The output is deterministic.
func refEncodeDiff(spans []span) []byte {
	// Stable-sort by page only: one page's spans become contiguous but
	// stay in write order, which refFlattenPageSpans relies on.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].page < spans[j].page })
	// Flatten lazily: allocate a rewritten span list only once some
	// page actually needed sorting or overlap resolution.
	var flat []span
	changed := false
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].page == spans[i].page {
			j++
		}
		res := refFlattenPageSpans(spans[i:j])
		if !changed && len(res) == j-i && &res[0] == &spans[i] {
			i = j
			continue // untouched subslice: spans is still the truth
		}
		if !changed {
			changed = true
			flat = append(make([]span, 0, len(spans)), spans[:i]...)
		}
		flat = append(flat, res...)
		i = j
	}
	if changed {
		spans = flat
	}
	// A run is spans[start:end] merged into one record of `bytes`
	// payload starting at spans[start].off.
	type run struct {
		start, end, bytes int
	}
	runs := make([]run, 0, len(spans))
	for i := 0; i < len(spans); {
		r := run{start: i, end: i + 1, bytes: len(spans[i].data)}
		next := spans[i].off + r.bytes
		for r.end < len(spans) &&
			spans[r.end].page == spans[i].page &&
			spans[r.end].off == next {
			r.bytes += len(spans[r.end].data)
			next = spans[i].off + r.bytes
			r.end++
		}
		runs = append(runs, r)
		i = r.end
	}
	size := 4
	for _, r := range runs {
		size += 16 + r.bytes
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(runs)))
	p := 4
	for _, r := range runs {
		binary.LittleEndian.PutUint64(buf[p:], uint64(spans[r.start].page))
		binary.LittleEndian.PutUint32(buf[p+8:], uint32(spans[r.start].off))
		binary.LittleEndian.PutUint32(buf[p+12:], uint32(r.bytes))
		p += 16
		for k := r.start; k < r.end; k++ {
			copy(buf[p:], spans[k].data)
			p += len(spans[k].data)
		}
	}
	return buf
}

// refFlattenPageSpans resolves one page's write-ordered spans into
// disjoint, offset-sorted spans with later writes winning. The common
// case — no two records overlap — is detected without touching the
// payloads; the slow path replays the writes in order into a scratch
// image (put writes only ever overlap within one page's extent, so the
// scratch is bounded by the page size).
func refFlattenPageSpans(ss []span) []span {
	// Fastest path: already offset-sorted and disjoint (sequential
	// fills, strided loops) — no copy, no sort.
	clean := true
	for k := 1; k < len(ss); k++ {
		if ss[k-1].off+len(ss[k-1].data) > ss[k].off {
			clean = false
			break
		}
	}
	if clean {
		return ss
	}
	sorted := make([]span, len(ss))
	copy(sorted, ss)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].off < sorted[j].off })
	overlap := false
	for k := 1; k < len(sorted); k++ {
		if sorted[k-1].off+len(sorted[k-1].data) > sorted[k].off {
			overlap = true
			break
		}
	}
	if !overlap {
		return sorted
	}
	lo, hi := ss[0].off, ss[0].off
	for _, s := range ss {
		if s.off < lo {
			lo = s.off
		}
		if end := s.off + len(s.data); end > hi {
			hi = end
		}
	}
	img := make([]byte, hi-lo)
	written := make([]bool, hi-lo)
	for _, s := range ss { // write order: later writes overwrite
		copy(img[s.off-lo:], s.data)
		for k := range s.data {
			written[s.off-lo+k] = true
		}
	}
	var out []span
	for k := 0; k < len(written); {
		if !written[k] {
			k++
			continue
		}
		start := k
		for k < len(written) && written[k] {
			k++
		}
		out = append(out, span{page: ss[0].page, off: lo + start, data: img[start:k:k]})
	}
	return out
}

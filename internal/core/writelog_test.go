package core

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/pages"
)

func TestWriteLogRecordAndTake(t *testing.T) {
	homeOf := func(p pages.PageID) int { return int(p) % 2 }
	w := NewWriteLog(homeOf)
	w.Record(1, 0, []byte{1, 2})
	w.Record(1, 2, []byte{3, 4}) // extends the previous record
	w.Record(2, 100, []byte{9})
	rec, b := w.Pending()
	if rec != 2 || b != 5 {
		t.Fatalf("pending = %d records / %d bytes, want 2/5", rec, b)
	}
	diffs := w.TakeDiffs(nil, nil)
	if len(diffs) != 2 || diffs[0].home != 0 || diffs[1].home != 1 {
		t.Fatalf("diffs = %+v, want one message for home 0 then one for home 1", diffs)
	}
	if got := decodeSpans(t, diffs[1].msg); len(got) != 1 || !bytes.Equal(got[0].data, []byte{1, 2, 3, 4}) {
		t.Fatalf("coalesced spans = %v", got)
	}
	if got := decodeSpans(t, diffs[0].msg)[0]; got.page != 2 || got.off != 100 {
		t.Fatalf("span = %+v", got)
	}
	if rec, _ := w.Pending(); rec != 0 {
		t.Fatal("TakeDiffs did not clear the log")
	}
	if len(w.TakeDiffs(nil, nil)) != 0 {
		t.Fatal("empty TakeDiffs should add nothing")
	}
}

func TestWriteLogNoCoalesceAcrossGapsOrPages(t *testing.T) {
	w := NewWriteLog(func(pages.PageID) int { return 0 })
	w.Record(1, 0, []byte{1})
	w.Record(1, 5, []byte{2}) // gap
	w.Record(2, 6, []byte{3}) // other page
	w.Record(1, 6, []byte{4}) // back to page 1, not adjacent to last record
	rec, _ := w.Pending()
	if rec != 4 {
		t.Fatalf("records = %d, want 4", rec)
	}
}

func TestWriteLogRecordCopiesData(t *testing.T) {
	w := NewWriteLog(func(pages.PageID) int { return 0 })
	buf := []byte{7, 7}
	w.Record(3, 0, buf)
	buf[0] = 0
	if decodeSpans(t, w.TakeDiffs(nil, nil)[0].msg)[0].data[0] != 7 {
		t.Fatal("Record aliased caller's buffer")
	}
}

func TestDiffRoundTrip(t *testing.T) {
	in := []span{
		{page: 5, off: 16, data: []byte{1, 2, 3}},
		{page: 2, off: 0, data: []byte{9}},
		{page: 5, off: 0, data: []byte{4, 5}},
	}
	out := decodeSpans(t, encodeSpans(t, in))
	// The encoder sorts by (page, off).
	want := []span{
		{page: 2, off: 0, data: []byte{9}},
		{page: 5, off: 0, data: []byte{4, 5}},
		{page: 5, off: 16, data: []byte{1, 2, 3}},
	}
	if len(out) != len(want) {
		t.Fatalf("decoded %d spans", len(out))
	}
	for i := range want {
		if out[i].page != want[i].page || out[i].off != want[i].off || !bytes.Equal(out[i].data, want[i].data) {
			t.Fatalf("span %d = %+v, want %+v", i, out[i], want[i])
		}
	}
}

func TestDecodeDiffErrors(t *testing.T) {
	ignore := func(pages.PageID, int, []byte) {}
	if err := walkDiff([]byte{1, 2}, ignore); err == nil {
		t.Error("short buffer accepted")
	}
	// Claim one record but supply no header.
	if err := walkDiff([]byte{1, 0, 0, 0}, ignore); err == nil {
		t.Error("missing header accepted")
	}
	// Valid header claiming more payload than present.
	msg := encodeSpans(t, []span{{page: 1, off: 0, data: []byte{1, 2, 3, 4}}})
	if err := walkDiff(msg[:len(msg)-2], ignore); err == nil {
		t.Error("truncated payload accepted")
	}
	// A count far beyond the message must fail, not allocate for it.
	if err := walkDiff([]byte{0xff, 0xff, 0xff, 0xff}, ignore); err == nil {
		t.Error("absurd record count accepted")
	}
}

// applySpans replays spans in order onto per-page byte images, the way
// handleApplyDiff writes them into home frames. Zero-length spans have
// no effect (the encoder may drop them), so they don't size the images.
func applySpans(spans []span) map[pages.PageID][]byte {
	images := make(map[pages.PageID][]byte)
	for _, s := range spans {
		if len(s.data) == 0 {
			continue
		}
		img := images[s.page]
		if need := s.off + len(s.data); need > len(img) {
			grown := make([]byte, need)
			copy(grown, img)
			img = grown
		}
		copy(img[s.off:], s.data)
		images[s.page] = img
	}
	return images
}

// Property: encode/decode preserves the program-order effect of the
// spans. Record identity is not preserved — the encoder coalesces
// exactly-adjacent records and resolves overlaps — but replaying the
// decoded spans must produce exactly the image that applying the
// original spans in write order produces.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		Page uint8
		Off  uint8
		Data []byte
	}) bool {
		in := make([]span, 0, len(raw))
		for _, r := range raw {
			d := r.Data
			if d == nil {
				d = []byte{}
			}
			in = append(in, span{page: pages.PageID(r.Page), off: int(r.Off), data: d})
		}
		want := applySpans(in) // program order
		got := applySpans(decodeSpans(t, encodeSpans(t, in)))
		if len(want) != len(got) {
			return false
		}
		for p, img := range want {
			if !bytes.Equal(img, got[p]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Strided writes to one page become contiguous once sorted, so the
// aggregated-diff path ships them as a single wire record.
func TestEncodeDiffCoalescesAdjacentRecords(t *testing.T) {
	w := NewWriteLog(func(pages.PageID) int { return 0 })
	// Even offsets first, then odd: never put-time adjacent.
	for off := 0; off < 64; off += 16 {
		w.Record(1, off, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	for off := 8; off < 64; off += 16 {
		w.Record(1, off, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	}
	if got, _ := w.Pending(); got != 8 {
		t.Fatalf("log records = %d, want 8", got)
	}
	msg := w.TakeDiffs(nil, nil)[0].msg
	out := decodeSpans(t, msg)
	if len(out) != 1 {
		t.Fatalf("wire records = %d, want 1 coalesced record", len(out))
	}
	if out[0].off != 0 || len(out[0].data) != 64 {
		t.Fatalf("coalesced record = off %d len %d, want 0/64", out[0].off, len(out[0].data))
	}
	if wantSize := 4 + 16 + 64; len(msg) != wantSize {
		t.Fatalf("message size = %d, want %d", len(msg), wantSize)
	}
}

// Overlapping records resolve in write order — the later write wins —
// even when the later write starts at a LOWER offset, where a naive
// (page, off) sort would apply it first and let the earlier write's
// tail clobber it.
func TestEncodeDiffOverlapRespectsWriteOrder(t *testing.T) {
	spans := []span{
		{page: 1, off: 2, data: []byte{0xaa, 0xaa, 0xaa, 0xaa}}, // first write: [2,6)
		{page: 1, off: 0, data: []byte{0xbb, 0xbb, 0xbb, 0xbb}}, // later write: [0,4), wins on [2,4)
	}
	out := decodeSpans(t, encodeSpans(t, spans))
	img := applySpans(out)[1]
	if !bytes.Equal(img, []byte{0xbb, 0xbb, 0xbb, 0xbb, 0xaa, 0xaa}) {
		t.Fatalf("applied image = %#v, want later write to win its overlap", img)
	}
	// The resolved records are disjoint, so the image is order-independent.
	for i := 1; i < len(out); i++ {
		if out[i-1].page == out[i].page && out[i-1].off+len(out[i-1].data) > out[i].off {
			t.Fatalf("records %d and %d overlap after encoding", i-1, i)
		}
	}
}

// Rewriting the same field within one sync block (the common overlap)
// ships only the last value.
func TestEncodeDiffSameOffsetLaterWriteWins(t *testing.T) {
	spans := []span{
		{page: 3, off: 8, data: []byte{1, 2, 3, 4}},
		{page: 3, off: 8, data: []byte{5, 6, 7, 8}},
	}
	out := decodeSpans(t, encodeSpans(t, spans))
	if len(out) != 1 {
		t.Fatalf("wire records = %d, want 1", len(out))
	}
	if !bytes.Equal(out[0].data, []byte{5, 6, 7, 8}) {
		t.Fatalf("shipped %v, want the later value", out[0].data)
	}
}

// The epoch-based reset must make per-page buffers and the arena
// reusable: records of a flushed epoch may not leak into the next, and
// a message taken in one epoch must stay intact while the next epoch
// records new writes over the rewound arena.
func TestWriteLogEpochReset(t *testing.T) {
	w := NewWriteLog(func(pages.PageID) int { return 0 })

	w.Record(1, 0, []byte{1, 2})
	w.Record(2, 8, []byte{3})
	first := decodeSpans(t, w.TakeDiffs(nil, nil)[0].msg)

	// New epoch: same pages, different data. The old spans must not
	// change and the new epoch must not resurrect old records.
	w.Record(1, 100, []byte{9})
	if rec, b := w.Pending(); rec != 1 || b != 1 {
		t.Fatalf("pending after reuse = %d records / %d bytes, want 1/1", rec, b)
	}
	if !bytes.Equal(first[0].data, []byte{1, 2}) || first[1].data[0] != 3 {
		t.Fatalf("taken spans mutated by next epoch: %v", first)
	}
	second := decodeSpans(t, w.TakeDiffs(nil, nil)[0].msg)
	if len(second) != 1 || second[0].page != 1 || second[0].off != 100 {
		t.Fatalf("second epoch spans = %+v", second)
	}
}

func TestEncodeDiffDeterministic(t *testing.T) {
	in := func() []span {
		return []span{{page: 9, off: 8, data: []byte{1}}, {page: 3, off: 0, data: []byte{2}}}
	}
	if !reflect.DeepEqual(encodeSpans(t, in()), encodeSpans(t, in())) {
		t.Fatal("encoding not deterministic")
	}
}

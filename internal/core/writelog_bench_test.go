package core

import (
	"testing"

	"repro/internal/pages"
)

// The write-log benchmarks cover the two halves of the shared write
// path: Record (the per-put cost every remote write pays) and the
// aggregated-diff path (TakeDiffs, the cost of assembling the per-home
// svcApplyDiff messages at a release boundary). The committed
// before/after numbers live in BENCH_writelog.json at the repository root;
// see README "Write-path benchmarks" for how to compare a run against
// them.

// benchTake drains and encodes the log the way a release boundary
// would, so the Record benchmarks measure steady-state logging rather
// than unbounded accumulation.
func benchTake(w *WriteLog, scratch []diffMsg) []diffMsg {
	return w.TakeDiffs(scratch[:0], nil)
}

func benchHome(p pages.PageID) int { return int(p) & 3 }

// BenchmarkWriteLogRecordAdjacent measures the common inner-loop
// pattern: a thread filling a remote array with consecutive 8-byte puts.
// Every put after the first extends the previous record.
func BenchmarkWriteLogRecordAdjacent(b *testing.B) {
	var buf [8]byte
	w := NewWriteLog(benchHome)
	var scratch []diffMsg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 8) % 4096
		if off == 0 && i > 0 {
			scratch = benchTake(w, scratch)
		}
		w.Record(1, off, buf[:])
	}
}

// BenchmarkWriteLogRecordScattered alternates writes between four pages,
// defeating last-record coalescing: every put starts a fresh record on a
// different page than the previous one.
func BenchmarkWriteLogRecordScattered(b *testing.B) {
	var buf [8]byte
	w := NewWriteLog(benchHome)
	var scratch []diffMsg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pages.PageID(i & 3)
		off := ((i >> 2) * 8) % 4096
		if off == 0 && p == 0 && i > 0 {
			scratch = benchTake(w, scratch)
		}
		w.Record(p, off, buf[:])
	}
}

// BenchmarkWriteLogRecordStrided writes every other field of one page:
// same page, never adjacent, so each put appends a new record.
func BenchmarkWriteLogRecordStrided(b *testing.B) {
	var buf [8]byte
	w := NewWriteLog(benchHome)
	var scratch []diffMsg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 16) % 4096
		if off == 0 && i > 0 {
			scratch = benchTake(w, scratch)
		}
		w.Record(1, off, buf[:])
	}
}

// BenchmarkWriteLogAggregatedDiff measures the release-boundary path:
// a phase's worth of writes (16 pages x 64 strided records, interleaved
// across pages the way multiple threads of one node interleave), then
// TakeDiffs into per-home messages. The strided interleaving is the worst
// case for put-time coalescing and the best case for shipping-time
// coalescing: all 64 records of a page are adjacent once sorted.
func BenchmarkWriteLogAggregatedDiff(b *testing.B) {
	var buf [8]byte
	var scratch []diffMsg
	b.ReportAllocs()
	var msgBytes int64
	var msgs int64
	for i := 0; i < b.N; i++ {
		w := NewWriteLog(benchHome) // a cold log: buffer growth is part of the phase
		for rec := 0; rec < 64; rec++ {
			for p := pages.PageID(0); p < 16; p++ {
				w.Record(p, rec*8, buf[:])
			}
		}
		scratch = benchTake(w, scratch)
		for _, d := range scratch {
			msgBytes += int64(len(d.msg))
			msgs++
		}
	}
	if msgs > 0 {
		b.ReportMetric(float64(msgBytes)/float64(msgs), "msg-bytes/op")
	}
}

// BenchmarkEncodeDiff measures encoding alone — order, resolve, one
// message — on a pre-recorded set of 4 pages x 64 records with
// coalescable runs. TakeDiffs drains the log, so each iteration first
// puts the (lazily rewound, hence intact) record buffers back on the
// pending list; that restore is four pointer stores.
func BenchmarkEncodeDiff(b *testing.B) {
	w := NewWriteLog(func(pages.PageID) int { return 0 })
	var buf [8]byte
	for rec := 0; rec < 64; rec++ {
		for p := pages.PageID(0); p < 4; p++ {
			w.Record(p, rec*8, buf[:])
		}
	}
	pending := append([]*pageBuf(nil), w.order...)
	records, arena := w.records, len(w.arena)
	var scratch []diffMsg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.order = append(w.order[:0], pending...)
		for _, pb := range pending {
			pb.epoch = w.epoch
		}
		w.records, w.arena = records, w.arena[:arena]
		scratch = benchTake(w, scratch)
	}
}

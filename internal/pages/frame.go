package pages

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Frame is the per-node storage of one page: either the authoritative home
// copy or a cached replica. Content operations copy through the frame's
// lock; the simulated protection state (Access) is what the java_pf
// protocol flips in place of real mprotect calls.
type Frame struct {
	mu     sync.RWMutex
	page   PageID
	data   []byte
	access Access
}

// NewFrame creates a zeroed frame for page p with the given size and
// initial access rights.
func NewFrame(p PageID, size int, access Access) *Frame {
	return &Frame{page: p, data: make([]byte, size), access: access}
}

// NewFrameFromImage creates a frame for page p whose content is img,
// adopted as the backing store without a copy. Ownership of img passes
// to the frame: the caller must hold the only reference to it and must
// not touch it afterwards (see Frame.Adopt).
func NewFrameFromImage(p PageID, img []byte, access Access) *Frame {
	return &Frame{page: p, data: img, access: access}
}

// Page reports the page this frame holds.
func (f *Frame) Page() PageID { return f.page }

// Access reports the frame's simulated protection state.
func (f *Frame) Access() Access {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.access
}

// SetAccess changes the frame's simulated protection state (the moral
// equivalent of mprotect on the real system).
func (f *Frame) SetAccess(a Access) {
	f.mu.Lock()
	f.access = a
	f.mu.Unlock()
}

// Read copies len(dst) bytes starting at off into dst.
func (f *Frame) Read(off int, dst []byte) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.check(off, len(dst))
	copy(dst, f.data[off:])
}

// Write copies src into the frame at off.
func (f *Frame) Write(off int, src []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.check(off, len(src))
	copy(f.data[off:], src)
}

// The typed range methods move len(dst) or len(src) consecutive
// little-endian elements starting at byte off under one acquisition of
// the frame's lock, decoding in place: no staging buffer.

// ReadF64s decodes len(dst) float64s starting at off into dst.
func (f *Frame) ReadF64s(off int, dst []float64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.check(off, 8*len(dst))
	b := f.data[off : off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// WriteF64s encodes src into the frame starting at off.
func (f *Frame) WriteF64s(off int, src []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.check(off, 8*len(src))
	b := f.data[off : off+8*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// ReadI32s decodes len(dst) int32s starting at off into dst.
func (f *Frame) ReadI32s(off int, dst []int32) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.check(off, 4*len(dst))
	b := f.data[off : off+4*len(dst)]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// WriteI32s encodes src into the frame starting at off.
func (f *Frame) WriteI32s(off int, src []int32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.check(off, 4*len(src))
	b := f.data[off : off+4*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

// Snapshot returns a copy of the whole page content, used when shipping a
// page to a requesting node.
func (f *Frame) Snapshot() []byte {
	return f.SnapshotInto(nil)
}

// SnapshotInto copies the whole page content into img and returns it; a
// nil img is allocated. A non-nil img must be exactly one page long.
func (f *Frame) SnapshotInto(img []byte) []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if img == nil {
		img = make([]byte, len(f.data))
	} else if len(img) != len(f.data) {
		panic(fmt.Sprintf("pages: snapshot of %d-byte frame into %d bytes", len(f.data), len(img)))
	}
	copy(img, f.data)
	return img
}

// Load overwrites the whole frame content with a page image received from
// the home node.
func (f *Frame) Load(img []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(img) != len(f.data) {
		panic(fmt.Sprintf("pages: loading %d bytes into %d-byte frame", len(img), len(f.data)))
	}
	copy(f.data, img)
}

// Adopt replaces the whole frame content with img and sets the access
// rights, keeping the frame's identity. Unlike Load it does not copy:
// img becomes the backing store, so the caller must hold the only
// reference to it and must not touch it afterwards. Adopt returns the
// previous backing store, which passes to the caller: every content
// operation copies under the frame's lock, so once the swap is made
// under the write lock nothing else references it.
func (f *Frame) Adopt(img []byte, access Access) (prev []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(img) != len(f.data) {
		panic(fmt.Sprintf("pages: adopting %d bytes into %d-byte frame", len(img), len(f.data)))
	}
	prev = f.data
	f.data, f.access = img, access
	return prev
}

func (f *Frame) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(f.data) {
		panic(fmt.Sprintf("pages: access [%d,%d) outside %d-byte page %d", off, off+n, len(f.data), f.page))
	}
}

// Table is a node's page table: the set of frames the node currently
// holds. Home frames are installed permanently at startup/allocation;
// cache frames come and go with the consistency protocol. Table is safe
// for concurrent use by the threads of its node and by remote RPC
// handlers.
type Table struct {
	mu     sync.RWMutex
	frames map[PageID]*Frame
	// epoch increments on every bulk invalidation, so that per-thread
	// fast-path caches (last page looked up) can be validated cheaply.
	// It is atomic so the access fast path can read it without taking
	// the table lock.
	epoch atomic.Uint64
}

// NewTable returns an empty page table.
func NewTable() *Table {
	return &Table{frames: make(map[PageID]*Frame)}
}

// Lookup returns the frame for page p, or nil if the node does not hold
// it, along with the table epoch at lookup time.
func (t *Table) Lookup(p PageID) (*Frame, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.frames[p], t.epoch.Load()
}

// Install maps a frame into the table, replacing any previous frame for
// the same page.
func (t *Table) Install(f *Frame) {
	t.mu.Lock()
	t.frames[f.page] = f
	t.mu.Unlock()
}

// Drop removes page p's frame, returning true if it was present. Like
// DropAll it bumps the epoch, so per-thread fast paths revalidate and
// observe the removal.
func (t *Table) Drop(p PageID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.frames[p]; !ok {
		return false
	}
	delete(t.frames, p)
	t.epoch.Add(1)
	return true
}

// Epoch returns the current invalidation epoch.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// DropAll removes every frame for which keep returns false (keep == nil
// drops everything), bumps the epoch, and returns the number of dropped
// frames. This is the bulk operation behind invalidateCache.
func (t *Table) DropAll(keep func(*Frame) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for p, f := range t.frames {
		if keep != nil && keep(f) {
			continue
		}
		delete(t.frames, p)
		n++
	}
	t.epoch.Add(1)
	return n
}

// ForEach calls fn on every frame currently in the table. The table lock
// is held across the iteration; fn must not call back into the table.
func (t *Table) ForEach(fn func(*Frame)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, f := range t.frames {
		fn(f)
	}
}

// Len reports the number of mapped frames.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.frames)
}

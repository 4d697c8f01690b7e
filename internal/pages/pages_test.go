package pages

import (
	"sync"
	"testing"
	"testing/quick"
)

func testSpace() *Space { return NewSpace(4, 4096) }

func TestSpaceGeometry(t *testing.T) {
	s := testSpace()
	if s.PageSize() != 4096 || s.Nodes() != 4 {
		t.Fatalf("geometry: %d/%d", s.PageSize(), s.Nodes())
	}
	a := Addr(4096*5 + 123)
	if s.PageOf(a) != 5 {
		t.Errorf("PageOf = %d", s.PageOf(a))
	}
	if s.Offset(a) != 123 {
		t.Errorf("Offset = %d", s.Offset(a))
	}
	if s.Base(5) != Addr(4096*5) {
		t.Errorf("Base = %d", s.Base(5))
	}
}

func TestSpaceValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSpace(0, 4096) },
		func() { NewSpace(2, 1000) },
		func() { NewSpace(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHomeAssignment(t *testing.T) {
	s := testSpace()
	if s.Home(0) != 0 {
		t.Error("first page should be homed at node 0")
	}
	if s.Home(PageID(DefaultRegionPages)) != 1 {
		t.Error("first page of second region should be homed at node 1")
	}
	if s.Home(PageID(3*DefaultRegionPages+7)) != 3 {
		t.Error("page in fourth region should be homed at node 3")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range page")
		}
	}()
	s.Home(PageID(4 * DefaultRegionPages))
}

func TestAllocatorBasics(t *testing.T) {
	s := testSpace()
	a := NewAllocator(s)
	addr, err := a.Alloc(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 {
		t.Fatal("allocator returned the nil address")
	}
	if s.HomeOf(addr) != 0 {
		t.Errorf("home of node-0 allocation = %d", s.HomeOf(addr))
	}
	addr2, err := a.Alloc(2, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.HomeOf(addr2) != 2 {
		t.Errorf("home of node-2 allocation = %d", s.HomeOf(addr2))
	}
	if uint64(addr2)%16 != 0 {
		t.Errorf("alignment violated: %d", addr2)
	}
}

func TestAllocPageAligned(t *testing.T) {
	s := testSpace()
	a := NewAllocator(s)
	if _, err := a.Alloc(1, 100, 8); err != nil {
		t.Fatal(err)
	}
	addr, err := a.AllocPageAligned(1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Offset(addr) != 0 {
		t.Errorf("page-aligned alloc at offset %d", s.Offset(addr))
	}
}

func TestAllocErrors(t *testing.T) {
	a := NewAllocator(testSpace())
	if _, err := a.Alloc(9, 8, 8); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := a.Alloc(0, 0, 8); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := a.Alloc(0, 8, 3); err == nil {
		t.Error("bad alignment accepted")
	}
	if _, err := a.Alloc(0, 1<<40, 8); err == nil {
		t.Error("region exhaustion not detected")
	}
}

// Property: allocations on any node never overlap and always stay inside
// the node's home region.
func TestAllocatorNoOverlapProperty(t *testing.T) {
	s := testSpace()
	f := func(sizes []uint16, node uint8) bool {
		n := int(node) % s.Nodes()
		a := NewAllocator(s)
		type iv struct{ lo, hi uint64 }
		var got []iv
		for _, sz := range sizes {
			size := int(sz%8192) + 1
			addr, err := a.Alloc(n, size, 8)
			if err != nil {
				return false
			}
			if s.HomeOf(addr) != n {
				return false
			}
			got = append(got, iv{uint64(addr), uint64(addr) + uint64(size)})
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if got[i].lo < got[j].hi && got[j].lo < got[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	s := testSpace()
	a := NewAllocator(s)
	var mu sync.Mutex
	seen := make(map[Addr]bool)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				addr, err := a.Alloc(w%4, 32, 8)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[addr] {
					t.Errorf("duplicate address %d", addr)
				}
				seen[addr] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

func TestFrameReadWrite(t *testing.T) {
	f := NewFrame(7, 4096, ReadWrite)
	if f.Page() != 7 {
		t.Fatal("page id")
	}
	f.Write(100, []byte{1, 2, 3, 4})
	got := make([]byte, 4)
	f.Read(100, got)
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("read back %v", got)
	}
}

func TestFrameAccessFlips(t *testing.T) {
	f := NewFrame(0, 64, NoAccess)
	if f.Access() != NoAccess {
		t.Fatal("initial access")
	}
	f.SetAccess(ReadWrite)
	if f.Access() != ReadWrite {
		t.Fatal("after SetAccess")
	}
	if NoAccess.String() != "none" || ReadWrite.String() != "rw" {
		t.Fatal("Access.String")
	}
}

func TestFrameSnapshotLoad(t *testing.T) {
	f := NewFrame(0, 8, ReadWrite)
	f.Write(0, []byte{9, 8, 7, 6, 5, 4, 3, 2})
	img := f.Snapshot()
	img[0] = 42 // snapshot must be a copy
	got := make([]byte, 1)
	f.Read(0, got)
	if got[0] != 9 {
		t.Fatal("snapshot aliased frame data")
	}
	g := NewFrame(1, 8, NoAccess)
	g.Load(img)
	got2 := make([]byte, 8)
	g.Read(0, got2)
	if got2[0] != 42 || got2[7] != 2 {
		t.Fatalf("loaded %v", got2)
	}
}

// Adoption moves an image into a frame without copying it: the frame
// reads and writes the very slice it was given (which is why the caller
// must give up its reference), a later Snapshot is independent of it
// again, and Adopt keeps the frame's identity while swapping its store.
func TestFrameAdoptsImageWithoutCopy(t *testing.T) {
	img := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	f := NewFrameFromImage(3, img, ReadWrite)
	if f.Page() != 3 || f.Access() != ReadWrite {
		t.Fatalf("adopted frame = page %d access %v", f.Page(), f.Access())
	}
	f.Write(0, []byte{42})
	if img[0] != 42 {
		t.Fatal("NewFrameFromImage copied the image")
	}
	snap := f.Snapshot()
	f.Write(1, []byte{43})
	if snap[1] != 2 {
		t.Fatal("snapshot of an adopted frame aliases it")
	}

	next := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	f.SetAccess(NoAccess)
	f.Adopt(next, ReadWrite)
	got := make([]byte, 1)
	f.Read(0, got)
	if got[0] != 9 || f.Access() != ReadWrite {
		t.Fatalf("after Adopt read %d access %v", got[0], f.Access())
	}
	if img[0] != 42 || img[1] != 43 {
		t.Fatal("Adopt wrote through to the previous store")
	}
}

func TestFrameBoundsPanics(t *testing.T) {
	f := NewFrame(0, 16, ReadWrite)
	for _, fn := range []func(){
		func() { f.Read(15, make([]byte, 2)) },
		func() { f.Write(-1, []byte{1}) },
		func() { f.Load(make([]byte, 3)) },
		func() { f.Adopt(make([]byte, 3), ReadWrite) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTableInstallLookupDrop(t *testing.T) {
	tb := NewTable()
	f := NewFrame(3, 64, ReadWrite)
	tb.Install(f)
	got, _ := tb.Lookup(3)
	if got != f {
		t.Fatal("lookup after install")
	}
	if tb.Len() != 1 {
		t.Fatal("len")
	}
	if !tb.Drop(3) {
		t.Fatal("drop present")
	}
	if tb.Drop(3) {
		t.Fatal("drop absent")
	}
	if got, _ := tb.Lookup(3); got != nil {
		t.Fatal("lookup after drop")
	}
}

func TestTableDropAllAndEpoch(t *testing.T) {
	tb := NewTable()
	for i := PageID(0); i < 10; i++ {
		acc := NoAccess
		if i%2 == 0 {
			acc = ReadWrite
		}
		tb.Install(NewFrame(i, 16, acc))
	}
	e0 := tb.Epoch()
	n := tb.DropAll(func(f *Frame) bool { return f.Access() == ReadWrite })
	if n != 5 {
		t.Fatalf("dropped %d, want 5", n)
	}
	if tb.Len() != 5 {
		t.Fatalf("kept %d, want 5", tb.Len())
	}
	if tb.Epoch() != e0+1 {
		t.Fatal("epoch not bumped")
	}
	if n := tb.DropAll(nil); n != 5 {
		t.Fatalf("drop-everything dropped %d", n)
	}
	if tb.Len() != 0 {
		t.Fatal("table not empty")
	}
}

func TestTableForEach(t *testing.T) {
	tb := NewTable()
	tb.Install(NewFrame(1, 16, ReadWrite))
	tb.Install(NewFrame(2, 16, ReadWrite))
	count := 0
	tb.ForEach(func(*Frame) { count++ })
	if count != 2 {
		t.Fatalf("ForEach visited %d", count)
	}
}

func TestTableConcurrent(t *testing.T) {
	tb := NewTable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := PageID(w*1000 + i)
				tb.Install(NewFrame(p, 16, ReadWrite))
				tb.Lookup(p)
				if i%10 == 0 {
					tb.Drop(p)
				}
			}
		}(w)
	}
	wg.Wait()
}

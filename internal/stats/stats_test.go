package stats

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// sized returns a store for n nodes, as cluster.New leaves it.
func sized(t *testing.T, n int) *Counters {
	t.Helper()
	c := &Counters{}
	if err := c.SetNodes(n); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountersAccumulate(t *testing.T) {
	c := sized(t, 2)
	atomic.AddInt64(&c.Node(0).LocalityChecks, 10)
	atomic.AddInt64(&c.Node(0).Faults, 2)
	atomic.AddInt64(&c.Node(1).MprotectCalls, 3)
	atomic.AddInt64(&c.Node(1).Fetches, 2)
	atomic.AddInt64(&c.Node(0).CacheHits, 8)
	atomic.AddInt64(&c.Node(1).InvalidatedPages, 5)
	atomic.AddInt64(&c.Node(0).FlushMessages, 1)
	atomic.AddInt64(&c.Node(0).FlushBytes, 100)
	atomic.AddInt64(&c.Node(1).FlushMessages, 1)
	atomic.AddInt64(&c.Node(1).FlushBytes, 50)
	atomic.AddInt64(&c.Node(0).MonitorAcquires, 1)
	atomic.AddInt64(&c.Node(1).MonitorAcquires, 1)
	atomic.AddInt64(&c.Node(1).RemoteAcquires, 1)
	atomic.AddInt64(&c.Node(1).Migrations, 1)
	atomic.AddInt64(&c.Node(1).BatchedFlushes, 1)
	c.AddRPCs(4)
	c.AddSpawns(6)

	s := c.Snapshot()
	if s.LocalityChecks != 10 || s.PageFaults != 2 || s.MprotectCalls != 3 || s.PageFetches != 2 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.CacheHits != 8 || s.Invalidations != 5 {
		t.Fatalf("cache %+v", s)
	}
	if s.DiffMessages != 2 || s.DiffBytes != 150 {
		t.Fatalf("diffs %+v", s)
	}
	if s.MonitorAcquires != 2 || s.RemoteAcquires != 1 {
		t.Fatalf("monitors %+v", s)
	}
	if s.RPCs != 4 || s.Spawns != 6 || s.Migrations != 1 {
		t.Fatalf("misc %+v", s)
	}

	per := c.PerNode()
	if len(per) != 2 || per[0].FlushBytes != 100 || per[1].FlushBytes != 50 || per[1].BatchedFlushes != 1 {
		t.Fatalf("per node %+v", per)
	}
	if tot := Total(per); tot.FlushBytes != 150 || tot.MonitorAcquires != 2 || tot.BatchedFlushes != 1 {
		t.Fatalf("total %+v", tot)
	}
	// The read-outs are copies: later events must not show in them.
	atomic.AddInt64(&c.Node(0).FlushBytes, 1)
	if per[0].FlushBytes != 100 {
		t.Error("PerNode aliases the live counters")
	}

	if err := c.SetNodes(3); err == nil {
		t.Error("a sized store was sized again")
	}
}

func TestSnapshotSub(t *testing.T) {
	c := sized(t, 1)
	atomic.AddInt64(&c.Node(0).LocalityChecks, 5)
	c.AddRPCs(2)
	before := c.Snapshot()
	atomic.AddInt64(&c.Node(0).LocalityChecks, 7)
	atomic.AddInt64(&c.Node(0).Faults, 1)
	c.AddRPCs(3)
	delta := c.Snapshot().Sub(before)
	if delta.LocalityChecks != 7 || delta.PageFaults != 1 || delta.RPCs != 3 || delta.Spawns != 0 {
		t.Fatalf("delta %+v", delta)
	}
}

func TestFieldsStableOrder(t *testing.T) {
	var c Counters
	f1 := c.Snapshot().Fields()
	f2 := c.Snapshot().Fields()
	if len(f1) != 13 {
		t.Fatalf("fields = %d, want 13", len(f1))
	}
	for i := range f1 {
		if f1[i].Name != f2[i].Name {
			t.Fatal("field order unstable")
		}
	}
	for i := 1; i < len(f1); i++ {
		if f1[i-1].Name >= f1[i].Name {
			t.Fatal("fields not sorted")
		}
	}
}

func TestStringFormat(t *testing.T) {
	c := sized(t, 1)
	if got := c.Snapshot().String(); got != "(no events)" {
		t.Errorf("empty string = %q", got)
	}
	atomic.AddInt64(&c.Node(0).Faults, 3)
	atomic.AddInt64(&c.Node(0).LocalityChecks, 2)
	s := c.Snapshot().String()
	if s != "locality_checks=2 page_faults=3" {
		t.Errorf("String() = %q", s)
	}
}

func TestConcurrentCounting(t *testing.T) {
	c := sized(t, 2)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ns := c.Node(w % 2)
			for i := 0; i < 1000; i++ {
				atomic.AddInt64(&ns.LocalityChecks, 1)
				atomic.AddInt64(&ns.FlushBytes, 2)
				c.AddRPCs(1)
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.LocalityChecks != 10000 || s.DiffBytes != 20000 || s.RPCs != 10000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

// TestFieldTableCoversStructs is the guard for "a counter added later":
// every NodeStats field must be exactly one table row (named after its
// JSON tag), or it would be missing from Get, CSV -columns all, the
// per-node read-out and the sum; and every Snapshot field must be one
// row's sum or one of the two cluster-level counts, or nothing would
// ever set it.
func TestFieldTableCoversStructs(t *testing.T) {
	nt := reflect.TypeOf(NodeStats{})
	rowOf := map[uintptr]string{} // field offset -> row name
	for _, f := range nodeFields {
		if prev, dup := rowOf[f.node]; dup {
			t.Errorf("rows %q and %q point at the same NodeStats field", prev, f.name)
		}
		rowOf[f.node] = f.name
		if (f.sum == noSum) != (f.statsName == "") {
			t.Errorf("row %q: sum and statsName disagree", f.name)
		}
	}
	for i := 0; i < nt.NumField(); i++ {
		sf := nt.Field(i)
		if sf.Type.Kind() != reflect.Int64 {
			t.Errorf("NodeStats.%s is not an int64 counter", sf.Name)
		}
		if got, want := rowOf[sf.Offset], sf.Tag.Get("json"); got != want || want == "" {
			t.Errorf("NodeStats.%s (json %q) has table row %q", sf.Name, want, got)
		}
	}
	if len(nodeFields) != nt.NumField() {
		t.Errorf("%d table rows for %d NodeStats fields", len(nodeFields), nt.NumField())
	}
	if got := NodeStatNames(); len(got) != nt.NumField() {
		t.Errorf("NodeStatNames() = %v", got)
	}

	owner := map[uintptr]string{
		unsafe.Offsetof(Snapshot{}.RPCs):   "rpcs",
		unsafe.Offsetof(Snapshot{}.Spawns): "spawns",
	}
	for _, f := range nodeFields {
		if f.sum == noSum {
			continue
		}
		if prev, dup := owner[f.sum]; dup {
			t.Errorf("Snapshot field at offset %d is fed by both %q and %q", f.sum, prev, f.name)
		}
		owner[f.sum] = f.name
	}
	st := reflect.TypeOf(Snapshot{})
	for i := 0; i < st.NumField(); i++ {
		sf := st.Field(i)
		if sf.Type.Kind() != reflect.Int64 {
			t.Errorf("Snapshot.%s is not an int64 counter", sf.Name)
		}
		if _, ok := owner[sf.Offset]; !ok {
			t.Errorf("Snapshot.%s is neither a row's sum nor a cluster-level count", sf.Name)
		}
	}
	if got := len(Snapshot{}.Fields()); got != st.NumField() {
		t.Errorf("Fields() lists %d of %d Snapshot fields", got, st.NumField())
	}
}

// TestGetAcceptsNamesAndCSVAliases pins the two vocabularies Get
// resolves and the one it does not (the Snapshot's names).
func TestGetAcceptsNamesAndCSVAliases(t *testing.T) {
	s := NodeStats{Faults: 1, Fetches: 2, LocalityChecks: 3, MprotectCalls: 4, InvalidatedPages: 5}
	for name, want := range map[string]int64{
		"faults": 1, "fetches": 2, "locality_checks": 3, "checks": 3,
		"mprotect_calls": 4, "mprotects": 4, "invalidated_pages": 5,
	} {
		if got, ok := s.Get(name); !ok || got != want {
			t.Errorf("Get(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "page_faults", "invalidations", "rpcs", "bogus"} {
		if _, ok := s.Get(name); ok {
			t.Errorf("Get(%q) resolved", name)
		}
	}
}

// TestReadmeGlossary holds README's counter glossary to the field
// table: one row per counter, in table order, with the same three
// names.
func TestReadmeGlossary(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(name string) string {
		if name == "" {
			return ""
		}
		return "`" + name + "`"
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `") {
			rows = append(rows, line)
		}
	}
	if len(rows) != len(nodeFields) {
		t.Fatalf("README glossary has %d per-node rows, the table %d", len(rows), len(nodeFields))
	}
	for i, f := range nodeFields {
		cells := strings.Split(rows[i], "|")
		statsCell := strings.TrimSpace(cells[2])
		switch {
		case f.statsName == "":
			if !strings.HasPrefix(statsCell, "—") {
				t.Errorf("README row %d: %q has no Stats name, README says %q", i, f.name, statsCell)
			}
		case f.statsName == f.name:
			if statsCell != "" {
				t.Errorf("README row %d: %q keeps its name in Stats, README says %q", i, f.name, statsCell)
			}
		case statsCell != cell(f.statsName):
			t.Errorf("README row %d: %q is Stats %q, README says %q", i, f.name, f.statsName, statsCell)
		}
		if got := strings.TrimSpace(cells[1]); got != cell(f.name) {
			t.Errorf("README row %d names %s, the table %q", i, got, f.name)
		}
		if got := strings.TrimSpace(cells[3]); got != cell(f.csv) {
			t.Errorf("README row %d: %q has CSV alias %q, README says %s", i, f.name, f.csv, got)
		}
	}
}

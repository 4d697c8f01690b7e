package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// oldKey and oldString are the formulas Point.Key and Point.String had
// before they were rewritten to build their output without
// encoding/json and fmt; every cache key and SSE point field ever
// written came from them, so the rewrite must reproduce them byte for
// byte.
func oldKey(p Point) string {
	q := p
	q.Override.Label = ""
	blob, err := json.Marshal(q)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(append([]byte(cacheKeyVersion+"\n"), blob...))
	return hex.EncodeToString(sum[:])
}

func oldString(p Point) string {
	s := fmt.Sprintf("%s/%s/%s n=%d", p.App, p.Cluster, p.Protocol, p.Nodes)
	if p.ThreadsPerNode > 1 {
		s += fmt.Sprintf(" tpn=%d", p.ThreadsPerNode)
	}
	if p.Override.Label != "" {
		s += " [" + p.Override.Label + "]"
	}
	return s
}

// everyOverride sets every pointer field of Override through
// reflection, so a field added later is covered without editing the
// table.
func everyOverride(f float64, i int) Override {
	var o Override
	v := reflect.ValueOf(&o).Elem()
	for k := 0; k < v.NumField(); k++ {
		fv := v.Field(k)
		switch fv.Type() {
		case reflect.TypeOf((*float64)(nil)):
			x := f * float64(k)
			fv.Set(reflect.ValueOf(&x))
		case reflect.TypeOf((*int)(nil)):
			x := i + k
			fv.Set(reflect.ValueOf(&x))
		}
	}
	o.Label = "all"
	return o
}

func TestPointKeyAndStringMatchOldFormulas(t *testing.T) {
	base := Point{App: "jacobi", Cluster: "myrinet", Protocol: "java_pf", Nodes: 4, ThreadsPerNode: 1, Repeats: 1}
	with := func(f func(p *Point)) Point {
		p := base
		f(&p)
		return p
	}
	points := []Point{
		base,
		{},
		with(func(p *Point) { p.ThreadsPerNode = 3; p.Nodes = 12 }),
		with(func(p *Point) { p.PaperScale, p.Repeats = true, 5 }),
		with(func(p *Point) { p.Nodes, p.ThreadsPerNode, p.Repeats = -1, -2, 0 }),
		with(func(p *Point) { p.Override.Label = "cache_capacity_pages=unlimited" }),
		with(func(p *Point) { p.Override = Override{Label: "cap=8", CacheCapacityPages: intp(8)} }),
		with(func(p *Point) { p.Override = Override{CheckCycles: f64p(16), PageSize: intp(8192)} }),
		with(func(p *Point) { p.Override = Override{CacheCapacityPages: intp(0)} }),
		with(func(p *Point) { p.Override = everyOverride(0.5, 7) }),
		with(func(p *Point) { p.Override = everyOverride(1e21, -3) }),
		with(func(p *Point) { p.Override = everyOverride(1e-7, 0) }),
		with(func(p *Point) { p.Override = everyOverride(123456789.125, 1<<40) }),
		with(func(p *Point) { p.Override = everyOverride(-2.5e-300, 1) }),
		with(func(p *Point) { p.Override = Override{MprotectUS: f64p(math.Copysign(0, -1))} }),
		with(func(p *Point) {
			p.Override = Override{PageFaultUS: f64p(1e20 + 1), ServiceCycles: f64p(3.0000000000000004)}
		}),
		with(func(p *Point) { p.Override.Label = "label [with] \"quotes\" and ü" }),
	}
	// Strings that need JSON escapes take the json.Marshal path.
	for _, s := range []string{`"`, `\`, "<", ">", "&", "\t", "\x00", "\x1f", "\x7f", "ü", "\u2028", string([]byte{0xff})} {
		points = append(points, with(func(p *Point) { p.App = "a" + s + "b" }))
	}
	for _, p := range points {
		if got, want := p.Key(), oldKey(p); got != want {
			t.Errorf("%+v: Key() = %s, old formula %s", p, got, want)
		}
		if got, want := p.String(), oldString(p); got != want {
			t.Errorf("%+v: String() = %q, old formula %q", p, got, want)
		}
	}
}

// The common point keys with one allocation (the key string) and
// formats with one.
func TestPointKeyAndStringAllocations(t *testing.T) {
	p := Point{App: "jacobi", Cluster: "myrinet", Protocol: "java_pf", Nodes: 4, ThreadsPerNode: 2, Repeats: 1,
		Override: Override{Label: "cap=8", CacheCapacityPages: intp(8), CheckCycles: f64p(16)}}
	if n := testing.AllocsPerRun(100, func() { _ = p.Key() }); n != 1 {
		t.Errorf("Key() = %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.String() }); n != 1 {
		t.Errorf("String() = %v allocations, want 1", n)
	}
}

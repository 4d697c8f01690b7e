package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/vtime"
)

// populate opens a store at dir, puts n distinct points twice each (so
// compaction has superseded records to drop) and returns the points.
func populate(t *testing.T, dir string, n int) []sweep.Point {
	t.Helper()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for i := 0; i < n; i++ {
		p := sweep.Point{
			App: "jacobi", Cluster: "sci", Protocol: "java_pf",
			Nodes: 1 + i, ThreadsPerNode: 1, Repeats: 1,
		}
		r := harness.Result{
			App: p.App, Cluster: p.Cluster, Nodes: p.Nodes, Protocol: p.Protocol,
			Workers: p.Nodes,
			Time:    vtime.Time(i+1) * vtime.Time(vtime.Millisecond),
			Check:   apps.Check{Summary: "ok", Valid: true},
		}
		for range 2 {
			if err := cache.Put(p, r); err != nil {
				t.Fatal(err)
			}
		}
		pts = append(pts, p)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestCachectlFullUpgrade drives compact, verify and stats in one
// invocation and checks the resulting store still serves every point.
func TestCachectlFullUpgrade(t *testing.T) {
	store := filepath.Join(t.TempDir(), "packed")
	pts := populate(t, store, 6)

	var out strings.Builder
	err := run([]string{"-store", store, "-compact", "-verify", "-stats"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"6 stale records dropped",
		"verified: 6 entries intact",
		"live records:  6",
		"stale records: 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	cache, err := sweep.OpenCache(store)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for _, p := range pts {
		if _, ok := cache.Get(p); !ok {
			t.Errorf("point missed after compaction: %s", p)
		}
	}
}

// TestCachectlStatsOnly: -stats on a store that already has content,
// without any mutation flags.
func TestCachectlStatsOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := sweep.Point{App: "pi", Cluster: "sci", Protocol: "java_ic", Nodes: 2, ThreadsPerNode: 1, Repeats: 1}
	if err := cache.Put(p, harness.Result{App: p.App, Check: apps.Check{Valid: true}}); err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-store", dir, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "live records:  1") {
		t.Errorf("stats output:\n%s", out.String())
	}
}

// TestCachectlErrors: the argument contract — a store is required, and
// idle invocations, unknown positionals and removed flags are refused.
func TestCachectlErrors(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	cases := [][]string{
		{},                             // no -store
		{"-store", dir},                // nothing to do
		{"-store", dir, "-stats", "x"}, // stray positional
		{"-store", dir, "-migrate-from", dir},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) accepted, want error", args)
		}
	}
	// -version short-circuits and never touches the store.
	if err := run([]string{"-version"}, &out); err != nil {
		t.Errorf("-version: %v", err)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repo-relative paths: the test binary runs in cmd/hyperion-bench-diff.
var (
	benchEngine   = filepath.Join("..", "..", "BENCH_engine.json")
	benchWritelog = filepath.Join("..", "..", "BENCH_writelog.json")
	benchLayers   = filepath.Join("..", "..", "BENCH_layers.json")
)

func runTool(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSelfComparePassesClean is half the gate's acceptance contract:
// the committed file gated against itself must exit 0 — every delta is
// exactly zero, and the schema round-trips.
func TestSelfComparePassesClean(t *testing.T) {
	for _, path := range []string{benchEngine, benchWritelog, benchLayers} {
		code, stdout, stderr := runTool(t, "-baseline", path, "-candidate", path)
		if code != 0 {
			t.Errorf("%s vs itself: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", path, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "ok:") {
			t.Errorf("%s vs itself: no ok summary in:\n%s", path, stdout)
		}
		if strings.Contains(stdout, "!!") {
			t.Errorf("%s vs itself: reported a breach:\n%s", path, stdout)
		}
	}
}

// TestInjectedRegressionFails is the other half: a candidate with one
// benchmark's ns/op inflated 50% must exit 1 and name the offender.
func TestInjectedRegressionFails(t *testing.T) {
	code, stdout, _ := runTool(t,
		"-baseline", benchEngine, "-input", filepath.Join("testdata", "engine_regressed.txt"))
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "!! BenchmarkEngineJacobi/java_pf") {
		t.Errorf("breach line missing or misattributed:\n%s", stdout)
	}
	if !strings.Contains(stdout, "FAIL: 1 metric(s)") {
		t.Errorf("want exactly one breached metric:\n%s", stdout)
	}
}

// TestCleanTextInputPasses: parsed text output identical to the
// committed numbers gates clean, custom points/sec columns and
// GOMAXPROCS suffixes notwithstanding.
func TestCleanTextInputPasses(t *testing.T) {
	code, stdout, stderr := runTool(t,
		"-baseline", benchEngine, "-input", filepath.Join("testdata", "engine_ok.txt"))
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "ok: 8 benchmark(s)") {
		t.Errorf("want all 8 engine benchmarks compared:\n%s", stdout)
	}
}

// TestThresholdIsConfigurable: the same 50% regression passes when the
// operator raises the gate above it.
func TestThresholdIsConfigurable(t *testing.T) {
	code, stdout, _ := runTool(t,
		"-baseline", benchEngine, "-input", filepath.Join("testdata", "engine_regressed.txt"),
		"-max-ns-regress", "1.0")
	if code != 0 {
		t.Fatalf("exit %d with -max-ns-regress 1.0, want 0\n%s", code, stdout)
	}
}

// TestZeroAllocBaselineIsGated: BENCH_layers.json records measured
// zeros for the allocation-free paths (GetLocal, MonitorLocal). A
// candidate that starts allocating there must fail however small the
// allocation, while a candidate run without -benchmem gates nothing.
func TestZeroAllocBaselineIsGated(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	leaky := write("leaky.txt", `
BenchmarkMonitorLocal    7000000    160 ns/op    8 B/op    1 allocs/op
BenchmarkBarrier          800000   1360 ns/op  144 B/op    2 allocs/op
`)
	code, stdout, _ := runTool(t, "-baseline", benchLayers, "-input", leaky)
	if code != 1 || !strings.Contains(stdout, "!! BenchmarkMonitorLocal  allocs/op") {
		t.Errorf("0 -> 1 allocs/op: exit %d, want 1 with the breach named\n%s", code, stdout)
	}
	if strings.Contains(stdout, "!! BenchmarkBarrier") {
		t.Errorf("unchanged benchmark reported:\n%s", stdout)
	}
	nomem := write("nomem.txt", "BenchmarkMonitorLocal    7000000    160 ns/op\n")
	if code, stdout, _ := runTool(t, "-baseline", benchLayers, "-input", nomem); code != 0 {
		t.Errorf("candidate without -benchmem: exit %d, want 0\n%s", code, stdout)
	}
}

// TestParseBenchOutput covers the text-parser corners directly:
// averaging -count>1 samples, suffix stripping, and ignoring
// non-benchmark lines.
func TestParseBenchOutput(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
goos: linux
BenchmarkX/alpha-8    1000    100 ns/op    64 B/op    2 allocs/op
BenchmarkX/alpha-8    1000    300 ns/op    64 B/op    2 allocs/op
BenchmarkX/beta-16    2000    50.5 ns/op
PASS
ok   pkg  1.0s
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(out), out)
	}
	alpha := out["BenchmarkX/alpha"]
	if alpha.NsPerOp != 200 {
		t.Errorf("alpha ns/op = %g, want the 100/300 average 200", alpha.NsPerOp)
	}
	if alpha.BytesPerOp != 64 || alpha.AllocsPerOp != 2 {
		t.Errorf("alpha memory metrics = %+v", alpha)
	}
	beta := out["BenchmarkX/beta"]
	if beta.NsPerOp != 50.5 || beta.BytesPerOp != 0 {
		t.Errorf("beta = %+v, want ns-only", beta)
	}
}

// TestSchemaAndUsageErrors: every operator mistake exits 2, never 0 or
// a spurious 1.
func TestSchemaAndUsageErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"current":{"results":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("no benchmarks here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                         // no -baseline
		{"-baseline", benchEngine}, // no candidate source
		{"-baseline", benchEngine, "-run", "-candidate", benchEngine}, // two sources
		{"-baseline", "does-not-exist.json", "-candidate", benchEngine},
		{"-baseline", bad, "-candidate", benchEngine}, // empty results
		{"-baseline", benchEngine, "-input", empty},   // unparseable input
		{"-baseline", benchEngine, "-candidate", benchEngine, "stray-arg"},
		// writelog numbers don't overlap engine's benchmark names at all
		{"-baseline", benchEngine, "-candidate", benchWritelog},
	}
	for _, args := range cases {
		if code, stdout, stderr := runTool(t, args...); code != 2 {
			t.Errorf("args %q: exit %d, want 2\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
		}
	}
}

// TestVersionFlag matches the other commands' -version contract.
func TestVersionFlag(t *testing.T) {
	code, stdout, _ := runTool(t, "-version")
	if code != 0 || strings.TrimSpace(stdout) == "" {
		t.Fatalf("-version: exit %d, output %q", code, stdout)
	}
}

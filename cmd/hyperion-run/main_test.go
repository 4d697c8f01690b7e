package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pagestats"
	"repro/internal/trace"
)

func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "repro") {
		t.Errorf("version output %q", out.String())
	}
}

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "pi", "-cluster", "sci", "-nodes", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"app:        pi", "protocol:   java_pf", "exec time:", "valid=true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunClusterAliases: -cluster takes every spelling hyperion-sweep
// and the server take, the platforms' display names included.
func TestRunClusterAliases(t *testing.T) {
	for alias, platform := range map[string]string{
		"200mhz/myrinet": "200MHz/Myrinet",
		"450MHz/SCI":     "450MHz/SCI",
		"450mhz/tcp":     "450MHz/TCP",
		"sisci":          "450MHz/SCI",
	} {
		var out bytes.Buffer
		if err := run([]string{"-app", "pi", "-cluster", alias, "-nodes", "2"}, &out); err != nil {
			t.Errorf("-cluster %s: %v", alias, err)
		}
		if want := "platform:   " + platform + ","; !strings.Contains(out.String(), want) {
			t.Errorf("-cluster %s: output missing %q:\n%s", alias, want, out.String())
		}
	}
}

func TestRunTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace.json")
	var out bytes.Buffer
	if err := run([]string{"-app", "jacobi", "-cluster", "sci", "-nodes", "2", "-trace", path, "-trace-dump", "3", "-counters"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace summary:", "engine counters", "faults", path} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(data); err != nil {
		t.Fatalf("emitted trace fails schema check: %v", err)
	}
}

// TestRunPageStats is the acceptance check for the page profiler CLI:
// jacobi-flat (the naive-layout demonstrator) must report a non-empty
// false-shared page set, the JSON must pass the schema validator, the
// CSV must list every page, and two identical runs must produce
// bit-identical reports.
func TestRunPageStats(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "ps.json")
	csvPath := filepath.Join(dir, "ps.csv")
	args := []string{"-app", "jacobi-flat", "-cluster", "sci", "-nodes", "4",
		"-protocol", "java_hlrc", "-pagestats", jsonPath, "-pagestats-csv", csvPath}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"page profile", "false_shared", "hot pages"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pagestats.Validate(blob); err != nil {
		t.Fatalf("emitted pagestats fails schema check: %v", err)
	}
	var r pagestats.Report
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.FalseShared) == 0 {
		t.Error("jacobi-flat reported no false-shared pages")
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(csv, []byte("\n")); got != r.PagesTracked+1 {
		t.Errorf("csv has %d lines for %d pages", got, r.PagesTracked)
	}

	jsonPath2 := filepath.Join(dir, "ps2.json")
	if err := run([]string{"-app", "jacobi-flat", "-cluster", "sci", "-nodes", "4",
		"-protocol", "java_hlrc", "-pagestats", jsonPath2}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	blob2, err := os.ReadFile(jsonPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Error("two identical profiled runs produced different reports")
	}
}

// Stock jacobi's page-aligned owner-homed layout is the counterpoint:
// the profiler must find no false sharing there.
func TestRunPageStatsStockJacobiHasNoFalseSharing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ps.json")
	if err := run([]string{"-app", "jacobi", "-cluster", "sci", "-nodes", "4",
		"-protocol", "java_hlrc", "-pagestats", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r pagestats.Report
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.FalseShared) != 0 {
		t.Errorf("stock jacobi reported false-shared pages %v", r.FalseShared)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "warp"},
		{"-cluster", "dialup"},
		{"-app", "pi", "-protocol", "bogus"},
		{"stray-arg"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

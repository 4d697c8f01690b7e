package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
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

func TestRunPrintSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-apps", "jacobi", "-nodes", "1,2", "-print-spec"}, &out); err != nil {
		t.Fatal(err)
	}
	var spec sweep.Spec
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatalf("print-spec is not JSON: %v\n%s", err, out.String())
	}
	if len(spec.Apps) != 1 || spec.Apps[0] != "jacobi" || len(spec.Nodes) != 2 {
		t.Errorf("resolved spec %+v", spec)
	}
}

// TestRunPreset: a preset stands where a spec file would — the axis
// flags override it, -print-spec shows the resolved spec — and cannot
// be combined with one.
func TestRunPreset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "fig2", "-print-spec"}, &out); err != nil {
		t.Fatal(err)
	}
	var spec sweep.Spec
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatalf("print-spec is not JSON: %v\n%s", err, out.String())
	}
	if spec.Name != "fig2" || len(spec.Apps) != 1 || spec.Apps[0] != "jacobi" || spec.Nodes != nil {
		t.Errorf("resolved spec %+v", spec)
	}

	out.Reset()
	if err := run([]string{"-preset", "fig2", "-nodes", "1,2", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	// 2 clusters x 2 node counts x 2 protocols.
	if rows := strings.Count(out.String(), "\njacobi,"); rows != 8 {
		t.Errorf("-nodes 1,2 over fig2: %d rows, want 8:\n%s", rows, out.String())
	}

	// An ablation preset moved to another app, platform and node count;
	// -aggregate prints its java_pf-vs-java_ic table.
	out.Reset()
	if err := run([]string{"-preset", "tpn", "-apps", "pi", "-clusters", "sci", "-nodes", "2", "-aggregate", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(out.String(), "\npi,sci,2,"); rows != 8 {
		t.Errorf("tpn preset: %d rows, want 4 thread counts x 2 protocols:\n%s", rows, out.String())
	}
	if !strings.Contains(out.String(), "java_pf vs java_ic improvement") || !strings.Contains(out.String(), "pi/sci tpn=4") {
		t.Errorf("aggregate lacks the improvement table:\n%s", out.String())
	}

	spec1 := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(spec1, []byte(`{"apps":["pi"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-preset", "fig2", "-spec", spec1, "-print-spec"}, &out); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-preset with -spec: %v", err)
	}
}

// TestRunReport: -report appends the charts, the improvement table and
// the claims to stdout and succeeds when they hold. (That a failed
// claim fails the command is harness.Report's contract, tested on
// synthetic figures there.)
func TestRunReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "fig1", "-nodes", "1,2", "-report", "-out", os.DevNull, "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1. Pi", "mean impr", "[PASS] pi-identical"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunProtocolsFlag: -protocols goes through the one shared parser,
// so "all" works and a bad list fails before anything runs.
func TestRunProtocolsFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocols", "all", "-print-spec"}, &out); err != nil {
		t.Fatal(err)
	}
	var spec sweep.Spec
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Protocols) != 4 {
		t.Errorf("-protocols all resolved to %v", spec.Protocols)
	}
	for _, bad := range []string{"java_pf,java_zz", " ,"} {
		if err := run([]string{"-protocols", bad, "-print-spec"}, &out); err == nil || !strings.Contains(err.Error(), "protocol") {
			t.Errorf("-protocols %q: %v", bad, err)
		}
	}
}

// TestRunStreamsCSV runs a two-point sweep and checks the CSV comes out
// row-per-point with the streaming writer.
func TestRunStreamsCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "pi", "-clusters", "sci", "-protocols", "java_pf", "-nodes", "1,2", "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out.String())
	}
	if lines[0] != sweep.CSVHeader {
		t.Errorf("header = %q", lines[0])
	}
	for _, row := range lines[1:] {
		if !strings.HasPrefix(row, "pi,sci,") {
			t.Errorf("row %q", row)
		}
	}
}

// TestRunStreamsJSONToFile checks the JSON stream closes into a valid
// document with the summary fields, via -out.
func TestRunStreamsJSONToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	var out bytes.Buffer
	err := run([]string{"-apps", "pi", "-clusters", "sci", "-protocols", "java_pf", "-nodes", "1",
		"-format", "json", "-out", path, "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []struct {
			Point  sweep.Point `json:"point"`
			Cached bool        `json:"cached"`
		} `json:"points"`
		Executed  int `json:"executed"`
		CacheHits int `json:"cache_hits"`
		Failed    int `json:"failed"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("streamed JSON invalid: %v\n%s", err, data)
	}
	if len(doc.Points) != 1 || doc.Executed != 1 || doc.Failed != 0 {
		t.Fatalf("doc %+v", doc)
	}
}

// TestRunColumns selects explicit counter columns (mixing a RunStats
// name with a legacy alias) and checks the header and row widths.
func TestRunColumns(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "pi", "-clusters", "sci", "-protocols", "java_pf", "-nodes", "1",
		"-columns", "flush_bytes,faults,monitor_acquires", "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row:\n%s", out.String())
	}
	wantHeader := "app,cluster,nodes,tpn,protocol,label,seconds,valid,cached,messages,bytes,flush_bytes,faults,monitor_acquires"
	if lines[0] != wantHeader {
		t.Errorf("header = %q, want %q", lines[0], wantHeader)
	}
	if got, want := strings.Count(lines[1], ","), strings.Count(wantHeader, ","); got != want {
		t.Errorf("row has %d commas, header %d:\n%s", got, want, lines[1])
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "xml"},
		{"-apps", "warp"},
		{"-nodes", "two"},
		{"-spec", "no-such-file.json"},
		{"-preset", "fig9"},
		{"-columns", "bogus_counter"},
		{"-columns", "faults", "-format", "json"},
		{"stray-arg"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

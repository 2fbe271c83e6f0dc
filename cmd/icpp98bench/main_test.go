package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOutputPlanStdout: no -out means tables to stdout and JSON in the CWD
// (the historical behaviour).
func TestOutputPlanStdout(t *testing.T) {
	p, err := newOutputPlan("", "md")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, closeTable, err := p.tableWriter("engines")
	if err != nil {
		t.Fatal(err)
	}
	if w != os.Stdout {
		t.Error("tables not going to stdout")
	}
	if err := closeTable(); err != nil {
		t.Fatal(err)
	}
	path, ok := p.jsonPath("engines")
	if !ok || path != "BENCH_engines.json" {
		t.Errorf("jsonPath = %q, %v; want CWD BENCH_engines.json", path, ok)
	}
}

// TestOutputPlanDevNull: -out /dev/null must discard everything — the old
// behaviour dropped BENCH_<name>.json into the CWD regardless, which the CI
// bench step silently depended on.
func TestOutputPlanDevNull(t *testing.T) {
	p, err := newOutputPlan(os.DevNull, "md")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.jsonPath("engines"); ok {
		t.Error("-out os.DevNull still yields a JSON path")
	}
}

// TestOutputPlanDirectory: a directory -out receives per-experiment table
// and JSON files, creating the directory when the path ends in a separator.
func TestOutputPlanDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bench-out") + string(os.PathSeparator)
	p, err := newOutputPlan(dir, "csv")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, closeTable, err := p.tableWriter("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	if err := closeTable(); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(filepath.Clean(dir), "BENCH_fig6.csv")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("table file not created at %s: %v", want, err)
	}
	path, ok := p.jsonPath("fig6")
	if !ok || path != filepath.Join(filepath.Clean(dir), "BENCH_fig6.json") {
		t.Errorf("jsonPath = %q, %v", path, ok)
	}
}

// TestOutputPlanFile: a file -out shares one table file across experiments
// and puts JSON reports next to it — not in the CWD.
func TestOutputPlanFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.md")
	p, err := newOutputPlan(out, "md")
	if err != nil {
		t.Fatal(err)
	}
	w1, close1, err := p.tableWriter("engines")
	if err != nil {
		t.Fatal(err)
	}
	w2, close2, err := p.tableWriter("pruning")
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("experiments do not share the -out file")
	}
	if _, err := w1.Write([]byte("# tables\n")); err != nil {
		t.Fatal(err)
	}
	if err := close1(); err != nil {
		t.Fatal(err)
	}
	if err := close2(); err != nil {
		t.Fatal(err)
	}
	if path, ok := p.jsonPath("pruning"); !ok || path != filepath.Join(dir, "BENCH_pruning.json") {
		t.Errorf("jsonPath = %q, %v; want next to -out", path, ok)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil || len(data) == 0 {
		t.Fatalf("table file empty or unreadable: %v", err)
	}
}

package bench

import (
	"encoding/json"
	"io"
	"time"
)

// This file is the machine-readable side of the harness: WriteJSON turns
// any experiment result into a BENCH_<name>.json report, so the perf
// trajectory of the repository can be recorded run-over-run and diffed by
// tooling instead of read off markdown tables.

// Result is the surface every experiment result shares: render as
// tables, and write in a human format. Every Run* constructor returns
// one.
type Result interface {
	Tables() []*table
	Write(w io.Writer, format string) error
}

// EngineRecord is one fully machine-readable measurement: an engine on an
// instance, with its throughput derived. Only the engines experiment
// produces these (the other experiments export their tables verbatim).
type EngineRecord struct {
	CCR            float64 `json:"ccr"`
	V              int     `json:"v"`
	Engine         string  `json:"engine"`
	Section        string  `json:"section,omitempty"`
	WallMS         float64 `json:"wall_ms"`
	Expanded       int64   `json:"expanded"`
	ExpandedPerSec float64 `json:"expanded_per_sec"`
	Makespan       int32   `json:"makespan"`
	Optimal        bool    `json:"optimal"`
}

// PruningRecord is one machine-readable measurement of the pruning
// ablation: a variant on a corpus cell, with the pruning counters and the
// expansion ratio against that cell's baseline variant.
type PruningRecord struct {
	Cell           string  `json:"cell"`
	V              int     `json:"v"`
	System         string  `json:"system"`
	Variant        string  `json:"variant"`
	WallMS         float64 `json:"wall_ms"`
	Expanded       int64   `json:"expanded"`
	BaselineRatio  float64 `json:"baseline_ratio,omitempty"` // baseline expansions / this variant's
	PrunedEquiv    int64   `json:"pruned_equiv"`
	PrunedFTO      int64   `json:"pruned_fto"`
	Makespan       int32   `json:"makespan"`
	Optimal        bool    `json:"optimal"`
	ExpandedPerSec float64 `json:"expanded_per_sec,omitempty"`
}

// TableJSON is the generic export of one rendered table.
type TableJSON struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// JSONReport is the top-level shape of a BENCH_<name>.json file.
type JSONReport struct {
	Experiment string `json:"experiment"`
	// GeneratedAt is RFC 3339 UTC, so consecutive reports sort by name
	// and diff by time.
	GeneratedAt string          `json:"generated_at"`
	Engines     []EngineRecord  `json:"engines,omitempty"`
	Pruning     []PruningRecord `json:"pruning,omitempty"`
	Failures    []string        `json:"failures,omitempty"`
	Tables      []TableJSON     `json:"tables"`
}

// Records derives the per-engine measurements of the engines experiment,
// including expanded-states/sec (0 for a cell too fast to time).
func (r *EnginesResult) Records() []EngineRecord {
	out := make([]EngineRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec := EngineRecord{
			CCR:      row.CCR,
			V:        row.V,
			Engine:   row.Engine,
			Section:  row.Section,
			WallMS:   float64(row.Time.Microseconds()) / 1000,
			Expanded: row.Expanded,
			Makespan: row.Length,
			Optimal:  row.Optimal,
		}
		if row.Time > 0 {
			rec.ExpandedPerSec = float64(row.Expanded) / row.Time.Seconds()
		}
		out = append(out, rec)
	}
	return out
}

// Records derives the per-(cell, variant) measurements of the pruning
// ablation, including each variant's expansion ratio against its cell's
// baseline.
func (r *PruningResult) Records() []PruningRecord {
	baseline := map[string]int64{}
	for _, row := range r.Rows {
		if row.Variant == "baseline" {
			baseline[row.Cell] = row.Expanded
		}
	}
	out := make([]PruningRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec := PruningRecord{
			Cell:        row.Cell,
			V:           row.V,
			System:      row.System,
			Variant:     row.Variant,
			WallMS:      float64(row.Time.Microseconds()) / 1000,
			Expanded:    row.Expanded,
			PrunedEquiv: row.PrunedEquiv,
			PrunedFTO:   row.PrunedFTO,
			Makespan:    row.Length,
			Optimal:     row.Optimal,
		}
		if b := baseline[row.Cell]; b > 0 && row.Expanded > 0 && row.Variant != "baseline" {
			rec.BaselineRatio = float64(b) / float64(row.Expanded)
		}
		if row.Time > 0 {
			rec.ExpandedPerSec = float64(row.Expanded) / row.Time.Seconds()
		}
		out = append(out, rec)
	}
	return out
}

// WriteJSON writes the machine-readable report of one experiment run.
func WriteJSON(w io.Writer, name string, r Result) error {
	rep := JSONReport{
		Experiment:  name,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if er, ok := r.(*EnginesResult); ok {
		rep.Engines = er.Records()
	}
	if pr, ok := r.(*PruningResult); ok {
		rep.Pruning = pr.Records()
		rep.Failures = pr.Failures
	}
	for _, t := range r.Tables() {
		rep.Tables = append(rep.Tables, TableJSON{
			Title:  t.Title,
			Header: t.Header,
			Rows:   t.Rows,
			Notes:  t.Notes,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Package bench regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (serial A* vs the Chen & Yu branch-and-bound,
// with and without pruning), Figure 6 (parallel A* speedups on 2–16 PPEs),
// and Figure 7 (parallel Aε* deviation-from-optimal and time ratios), plus
// ablation sweeps over the individual pruning techniques, the heuristic
// function, and the parallel distribution policy, a list-heuristic
// deviation study, and a cross-engine comparison. Serving latency and
// multi-core scaling are not paper figures; the repository benchmark in
// perfbench/ measures them.
//
// Workloads follow §4.1: random graphs with CCR ∈ {0.1, 1.0, 10.0}, sizes
// 10..32 step 2, node costs uniform with mean 40, out-degrees uniform with
// mean v/10, scheduled onto v fully-connected homogeneous target PEs. The
// paper's absolute cell times reach days on a 1998 Paragon; the default
// configuration therefore trims sizes and applies a per-cell state budget,
// reporting censored cells as "—" exactly like the paper's missing
// Chen v=32 entry. Use Full (or the -full flag of cmd/icpp98bench) for the
// complete sweep with a wall-clock budget per cell.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Config parameterizes an experiment run.
type Config struct {
	// Sizes are the graph sizes v; nil selects the fast default {10, 12, 14, 16}.
	Sizes []int
	// CCRs are the communication-to-computation ratios; nil selects the
	// paper's {0.1, 1.0, 10.0}.
	CCRs []float64
	// Seed drives the §4.1 workload generator.
	Seed uint64
	// TargetProcs returns the target system for a given graph size; nil
	// selects the paper's v fully-connected homogeneous TPEs.
	TargetProcs func(v int) *procgraph.System
	// CellBudget caps the expansions of one algorithm run on one instance
	// (0 = the default 300k). Cells that hit it are reported censored.
	CellBudget int64
	// CellTimeout additionally caps wall time per cell (0 = none).
	CellTimeout time.Duration
	// PPEs are the parallel A* worker counts for Figure 6; nil selects the
	// paper's {2, 4, 8, 16}.
	PPEs []int
	// Epsilons are the Aε* approximation factors for Figure 7; nil selects
	// the paper's {0.2, 0.5}.
	Epsilons []float64
	// Fig7PPEs is the PPE count for Figure 7; 0 selects the paper's 16.
	Fig7PPEs int
	// PeriodFloor is the parallel engine's minimum communication period
	// (0 = the paper's 2).
	PeriodFloor int
}

func (c Config) withDefaults() Config {
	if c.Sizes == nil {
		c.Sizes = []int{10, 12, 14, 16}
	}
	if c.CCRs == nil {
		c.CCRs = []float64{0.1, 1.0, 10.0}
	}
	if c.TargetProcs == nil {
		c.TargetProcs = func(v int) *procgraph.System { return procgraph.Complete(v) }
	}
	if c.CellBudget == 0 {
		c.CellBudget = 300_000
	}
	if c.PPEs == nil {
		c.PPEs = []int{2, 4, 8, 16}
	}
	if c.Epsilons == nil {
		c.Epsilons = []float64{0.2, 0.5}
	}
	if c.Fig7PPEs == 0 {
		c.Fig7PPEs = 16
	}
	return c
}

// Full returns the paper's complete sweep (sizes 10..32); expect long runs
// unless CellTimeout/CellBudget stay tight.
func Full() Config {
	var sizes []int
	for v := 10; v <= 32; v += 2 {
		sizes = append(sizes, v)
	}
	return Config{Sizes: sizes}
}

// cellConfig is the per-cell engine budget: the expansion cap and wall
// clock every measured run gets.
func (c Config) cellConfig() engine.Config {
	return engine.Config{MaxExpanded: c.CellBudget, Timeout: c.CellTimeout}
}

// runCell measures one registry engine on one instance under ecfg. Every
// harness cell flows through this single entry point, so adding an engine
// to the registry adds it to the benchmarks without new harness code.
func runCell(name string, g *taskgraph.Graph, sys *procgraph.System, ecfg engine.Config) cellResult {
	start := time.Now()
	r, err := engine.Solve(context.Background(), name, g, sys, ecfg)
	if err != nil {
		return cellResult{}
	}
	// A censored run may carry no schedule (bnb cut off before any goal);
	// its effort stats are still the datum the tables report.
	return cellResult{Time: time.Since(start), Expanded: r.Stats.Expanded, Length: r.Length, Optimal: r.Optimal}
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// table is a generic rendered result: a header row plus data rows.
type table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteMarkdown renders the table as GitHub-flavored markdown.
func (t *table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (commas in cells are not expected; the
// harness produces plain numbers and short labels).
func (t *table) WriteCSV(w io.Writer) error {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
	return nil
}

// instance builds the §4.1 instance for one (ccr, v) cell.
func (c Config) instance(ccr float64, v int) (*taskgraph.Graph, *procgraph.System) {
	g := mustGraph(ccr, v, c.Seed)
	return g, c.TargetProcs(v)
}

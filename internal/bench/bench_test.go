package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/procgraph"
)

// fastCfg keeps harness tests quick: tiny sizes, tight budgets.
func fastCfg() Config {
	return Config{
		Sizes:       []int{8, 10},
		CCRs:        []float64{1.0},
		Seed:        7,
		CellBudget:  30_000,
		CellTimeout: 20 * time.Second,
		PPEs:        []int{2, 4},
		Epsilons:    []float64{0.2, 0.5},
		Fig7PPEs:    4,
		TargetProcs: func(v int) *procgraph.System { return procgraph.Complete(3) },
	}
}

func TestRunTable1(t *testing.T) {
	res := RunTable1(fastCfg())
	rows := res.Blocks[1.0]
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Astar.Optimal && r.Full.Optimal && r.Astar.Length != r.Full.Length {
			t.Errorf("v=%d: pruned and unpruned A* disagree: %d vs %d", r.V, r.Astar.Length, r.Full.Length)
		}
		if r.Astar.Optimal && r.Chen.Optimal && r.Astar.Length != r.Chen.Length {
			t.Errorf("v=%d: A* and Chen disagree: %d vs %d", r.V, r.Astar.Length, r.Chen.Length)
		}
		if r.Astar.Optimal && r.Full.Optimal && r.Astar.Expanded > r.Full.Expanded {
			t.Errorf("v=%d: pruning increased expansions: %d > %d", r.V, r.Astar.Expanded, r.Full.Expanded)
		}
	}
	var md, csv bytes.Buffer
	if err := res.Write(&md, "md"); err != nil {
		t.Fatal(err)
	}
	if err := res.Write(&csv, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Table 1") || !strings.Contains(md.String(), "| v |") {
		t.Errorf("markdown output malformed:\n%s", md.String())
	}
	if !strings.Contains(csv.String(), "v,Chen (time)") {
		t.Errorf("csv output malformed:\n%s", csv.String())
	}
}

func TestRunFig6(t *testing.T) {
	res := RunFig6(fastCfg())
	pts := res.Series[1.0]
	if len(pts) != 4 { // 2 sizes x 2 PPE counts
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Censored {
			continue
		}
		if p.WallSpeedup <= 0 || p.ModeledSpeedup <= 0 {
			t.Errorf("non-positive speedup: %+v", p)
		}
		if p.WorkRatio < 0.5 {
			t.Errorf("work ratio %v implausibly low", p.WorkRatio)
		}
	}
	var md bytes.Buffer
	if err := res.Write(&md, "md"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Figure 6") {
		t.Error("markdown missing title")
	}
}

func TestRunFig7(t *testing.T) {
	res := RunFig7(fastCfg())
	for _, eps := range []float64{0.2, 0.5} {
		pts := res.Series[1.0][eps]
		if len(pts) != 2 {
			t.Fatalf("eps=%g: got %d points", eps, len(pts))
		}
		for _, p := range pts {
			if p.Censored {
				continue
			}
			if p.DeviationPct < 0 || p.DeviationPct > 100*eps+1e-9 {
				t.Errorf("eps=%g v=%d: deviation %.2f%% outside [0, %.0f%%]",
					eps, p.V, p.DeviationPct, 100*eps)
			}
			if p.TimeRatio <= 0 {
				t.Errorf("eps=%g v=%d: nonpositive time ratio", eps, p.V)
			}
		}
	}
	var md bytes.Buffer
	if err := res.Write(&md, "md"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Figure 7") {
		t.Error("markdown missing title")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	res := RunAblation(cfg)
	if len(res.Rows) != len(serialVariants()) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(serialVariants()))
	}
	var want int32 = -1
	for _, r := range res.Rows {
		if !r.Optimal {
			continue
		}
		if want < 0 {
			want = r.Length
		} else if r.Length != want {
			t.Errorf("variant %q found SL %d, others %d", r.Variant, r.Length, want)
		}
	}
	var md bytes.Buffer
	if err := res.Write(&md, "md"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Ablation") {
		t.Error("markdown missing title")
	}
}

func TestRunDistribution(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{10}
	cfg.PPEs = []int{4}
	res := RunDistribution(cfg)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	byPolicy := map[string]DistributionRow{}
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
	}
	hash := byPolicy["hash (ref. 15)"]
	rr := byPolicy["neighbor-rr (paper)"]
	if hash.Optimal && rr.Optimal && hash.WorkRatio > rr.WorkRatio {
		t.Errorf("hash work ratio %.2f should not exceed neighbor-rr %.2f", hash.WorkRatio, rr.WorkRatio)
	}
}

func TestRunEngines(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	res := RunEngines(cfg)
	if len(res.Rows) < 5 {
		t.Fatalf("got %d rows; want one per registered engine (>= 5)", len(res.Rows))
	}
	var want int32 = -1
	for _, r := range res.Rows {
		if !r.Optimal || r.Engine == "aeps" {
			continue
		}
		if want < 0 {
			want = r.Length
		} else if r.Length != want {
			t.Errorf("engine %q found SL %d, others %d", r.Engine, r.Length, want)
		}
	}
	if want < 0 {
		t.Fatal("no exact engine proved optimality on the test instance")
	}
	var md bytes.Buffer
	if err := res.Write(&md, "md"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Engine comparison") {
		t.Error("markdown missing title")
	}
}

func TestFullConfig(t *testing.T) {
	cfg := Full()
	if len(cfg.Sizes) != 12 || cfg.Sizes[11] != 32 {
		t.Errorf("full sizes = %v", cfg.Sizes)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2500 * time.Millisecond: "2.50s",
		15 * time.Millisecond:   "15.0ms",
		120 * time.Microsecond:  "120µs",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

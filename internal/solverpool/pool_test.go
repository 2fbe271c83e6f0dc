package solverpool

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// TestSolveBatch runs a mixed batch — several engines, repeated instances —
// and asserts per-request correctness plus model memoization: the pool must
// compile each distinct (graph, system) instance exactly once.
func TestSolveBatch(t *testing.T) {
	g1 := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 1})
	g2 := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 2})
	sys := procgraph.Complete(3)

	p := New(4)
	var reqs []Request
	for _, name := range []string{"astar", "dfbb", "ida"} {
		reqs = append(reqs,
			Request{Graph: g1, System: sys, Engine: name},
			Request{Graph: g2, System: sys, Engine: name},
		)
	}
	resps := p.SolveBatch(context.Background(), reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	lengths := map[int]int32{} // graph index (0/1) -> proven length
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, r.Engine, r.Err)
		}
		if !r.Result.Optimal {
			t.Fatalf("request %d (%s): not proven optimal", i, r.Engine)
		}
		gi := i % 2
		if want, ok := lengths[gi]; ok && r.Result.Length != want {
			t.Errorf("request %d (%s): length %d, other engines found %d", i, r.Engine, r.Result.Length, want)
		}
		lengths[gi] = r.Result.Length
	}

	stats := p.Stats()
	if stats.ModelsBuilt != 2 {
		t.Errorf("built %d models for 2 distinct instances", stats.ModelsBuilt)
	}
	if stats.ModelHits != int64(len(reqs))-2 {
		t.Errorf("model cache hits = %d, want %d", stats.ModelHits, len(reqs)-2)
	}
}

// TestBatchDefaultEngineAndErrors covers the request edge cases: empty
// engine name (defaults to astar), unknown engine, nil instance.
func TestBatchDefaultEngineAndErrors(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 6, CCR: 1.0, Seed: 3})
	sys := procgraph.Complete(2)
	p := New(0)
	resps := p.SolveBatch(context.Background(), []Request{
		{Graph: g, System: sys},
		{Graph: g, System: sys, Engine: "not-an-engine"},
		{Engine: "astar"},
	})
	if resps[0].Err != nil || resps[0].Engine != "astar" || !resps[0].Result.Optimal {
		t.Errorf("default-engine request failed: %+v", resps[0])
	}
	if resps[1].Err == nil {
		t.Error("unknown engine did not error")
	}
	if resps[2].Err == nil {
		t.Error("nil instance did not error")
	}
}

// TestBatchHonoursPerRequestBudget asserts the per-request deadline path:
// a request with a tiny budget is cut off while its sibling completes.
func TestBatchHonoursPerRequestBudget(t *testing.T) {
	hard := gen.MustRandom(gen.RandomConfig{V: 18, CCR: 1.0, Seed: 7})
	easy := gen.MustRandom(gen.RandomConfig{V: 6, CCR: 1.0, Seed: 7})
	sys := procgraph.Complete(3)
	p := New(2)
	resps := p.SolveBatch(context.Background(), []Request{
		{Graph: hard, System: sys, Engine: "astar", Config: engine.Config{MaxExpanded: 100}},
		{Graph: easy, System: sys, Engine: "astar"},
	})
	if resps[0].Err != nil || resps[0].Result.Optimal {
		t.Errorf("budgeted request: err=%v optimal=%v", resps[0].Err, resps[0].Result != nil && resps[0].Result.Optimal)
	}
	if resps[1].Err != nil || !resps[1].Result.Optimal {
		t.Errorf("unbudgeted request should complete: %+v", resps[1])
	}
}

// TestSolvePortfolio races a fast exact engine against the deliberately
// expensive baseline: the winner must prove optimality and the loser must
// be observably cancelled — Optimal=false with partial stats.
func TestSolvePortfolio(t *testing.T) {
	// astar proves this instance in ~200ms; bnb alone needs ~7x longer.
	g := gen.MustRandom(gen.RandomConfig{V: 20, CCR: 1.0, MeanOutDeg: 6, Seed: 5})
	sys := procgraph.Complete(3)
	p := New(0)
	pf, err := p.SolvePortfolio(context.Background(), g, sys, []string{"astar", "bnb"}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Winner != "astar" {
		t.Fatalf("winner = %q, want astar (losers: %v)", pf.Winner, pf.Losers)
	}
	if !pf.Result.Optimal || pf.Result.BoundFactor != 1 {
		t.Fatalf("winner result not proven optimal: optimal=%v factor=%v", pf.Result.Optimal, pf.Result.BoundFactor)
	}
	lose, ok := pf.Losers["bnb"]
	if !ok {
		t.Fatalf("bnb missing from losers: %+v", pf.Losers)
	}
	if lose.Optimal {
		t.Error("cancelled loser claims optimality")
	}
	if lose.Stats.Expanded <= 0 {
		t.Errorf("loser reports no partial work (expanded=%d)", lose.Stats.Expanded)
	}
	if st := p.Stats(); st.ModelsBuilt != 1 {
		t.Errorf("portfolio built %d models; entrants must share one", st.ModelsBuilt)
	}

	// Past the 64-task single-word mask: a v = 80 layered STG on eight
	// processors, where the HPlus static bound lets the exact entrants
	// close the search in a dive. The race must end in a proof.
	wide, err := gen.LayeredSTG(gen.LayeredConfig{Layers: 20, Width: 4, Seed: 1998})
	if err != nil {
		t.Fatal(err)
	}
	wpf, err := p.SolvePortfolio(context.Background(), wide, procgraph.Complete(8),
		[]string{"astar", "aeps", "dfbb"}, engine.Config{HFunc: core.HPlus, MaxExpanded: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if !wpf.Result.Optimal || wpf.Result.BoundFactor != 1 {
		t.Fatalf("v=80 portfolio (winner %s) did not prove the optimum: optimal=%v factor=%v",
			wpf.Winner, wpf.Result.Optimal, wpf.Result.BoundFactor)
	}
}

// TestSolvePortfolioNoProof covers the no-winner path: every entrant is
// budget-cut, so the pool promotes the best finisher without an optimality
// claim.
func TestSolvePortfolioNoProof(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 20, CCR: 1.0, Seed: 1})
	sys := procgraph.Complete(4)
	p := New(0)
	pf, err := p.SolvePortfolio(context.Background(), g, sys, []string{"astar", "dfbb"},
		engine.Config{MaxExpanded: 200})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Result == nil || pf.Result.Schedule == nil {
		t.Fatal("no schedule from a budget-cut portfolio")
	}
	if pf.Result.Optimal {
		t.Error("budget-cut portfolio claims optimality")
	}
	if pf.Winner == "" {
		t.Error("no winner promoted")
	}
}

// TestPortfolioUnknownEngines: unknown names are reported, not fatal, as
// long as one entrant runs; all-unknown fails.
func TestPortfolioUnknownEngines(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 6, CCR: 1.0, Seed: 4})
	sys := procgraph.Complete(2)
	p := New(0)
	pf, err := p.SolvePortfolio(context.Background(), g, sys, []string{"astar", "bogus"}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Errs["bogus"] == nil {
		t.Error("unknown entrant not reported in Errs")
	}
	if !pf.Result.Optimal {
		t.Error("surviving entrant did not solve")
	}
	if _, err := p.SolvePortfolio(context.Background(), g, sys, []string{"bogus"}, engine.Config{}); err == nil {
		t.Error("all-unknown portfolio did not error")
	}
}

// TestBatchCancellation: cancelling the batch context stops in-flight
// solves promptly with Optimal=false.
func TestBatchCancellation(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 20, CCR: 1.0, Seed: 1})
	sys := procgraph.Complete(4)
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	started := time.Now()
	resps := p.SolveBatch(ctx, []Request{
		{Graph: g, System: sys, Engine: "astar"},
		{Graph: g, System: sys, Engine: "dfbb"},
	})
	if elapsed := time.Since(started); elapsed > 5*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Errorf("request %d errored on cancellation: %v", i, r.Err)
			continue
		}
		if r.Result.Optimal {
			t.Errorf("request %d claims optimality after cancellation", i)
		}
	}
}

// TestDigestsDistinguishInstances guards the memoization keys: different
// weights, edges, or systems must produce different digests, identical
// rebuilds the same one.
func TestDigestsDistinguishInstances(t *testing.T) {
	a := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 1})
	b := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 1})
	c := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 2})
	if graphDigest(a) != graphDigest(b) {
		t.Error("identical graphs digest differently")
	}
	if graphDigest(a) == graphDigest(c) {
		t.Error("different graphs share a digest")
	}
	if systemDigest(a, procgraph.Complete(3)) == systemDigest(a, procgraph.Complete(4)) {
		t.Error("different sizes share a system digest")
	}
	if systemDigest(a, procgraph.Ring(4)) == systemDigest(a, procgraph.Chain(4)) {
		t.Error("ring and chain share a system digest")
	}
	if systemDigest(a, procgraph.Ring(4)) != systemDigest(b, procgraph.Ring(4)) {
		t.Error("identical instances digest differently")
	}
	if !sameInstance(a, procgraph.Ring(4), b, procgraph.Ring(4)) {
		t.Error("identical instances compare unequal")
	}
	if sameInstance(a, procgraph.Ring(4), c, procgraph.Ring(4)) {
		t.Error("different graphs compare equal")
	}
	if sameInstance(a, procgraph.Ring(4), a, procgraph.Chain(4)) {
		t.Error("different systems compare equal")
	}
}

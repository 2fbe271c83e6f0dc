package native

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// solveSerial is the serial A* reference for one instance under
// heuristic h.
func solveSerial(t *testing.T, m *core.Model, h core.HFunc) *core.Result {
	t.Helper()
	ref, err := core.SolveModel(m, core.Options{HFunc: h})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Optimal {
		t.Fatal("serial reference did not prove optimality")
	}
	return ref
}

// TestNativeMatchesSerial runs the native engine at several worker counts
// over a mixed corpus and asserts it proves the same optimum as serial A*
// with the registry-wide BoundFactor contract.
func TestNativeMatchesSerial(t *testing.T) {
	systems := []*procgraph.System{procgraph.Complete(3), procgraph.Ring(2)}
	// (v, seed) pairs chosen so every instance proves out in well under
	// 100k expansions — §4.1 instance hardness varies by orders of
	// magnitude seed to seed at equal v.
	for _, cell := range [][2]int{{6, 1}, {6, 2}, {9, 1}, {9, 2}, {12, 5}} {
		v, seed := cell[0], uint64(cell[1])
		g := gen.MustRandom(gen.RandomConfig{V: v, CCR: 1.0, Seed: seed})
		for _, sys := range systems {
			m, err := core.NewModel(g, sys)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("v=%d seed=%d %s", v, seed, sys.Name())
			matchSerial(t, label, m, core.HPaper, []int{1, 2, 4, 7})
		}
	}

	// A layered STG past the 64-task single-word mask (v = 80), which the
	// HPlus static bound proves in a dive: the wide-mask paths of the
	// parallel search must agree with serial A* too.
	g, err := gen.LayeredSTG(gen.LayeredConfig{Layers: 20, Width: 4, Seed: 1998})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 80 {
		t.Fatalf("layered instance has %d nodes, want 80", g.NumNodes())
	}
	m, err := core.NewModel(g, procgraph.Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	matchSerial(t, "layered v=80 complete:8", m, core.HPlus, []int{1, 2, 4})
}

// matchSerial solves m serially and with the native engine at each worker
// count under heuristic h, and fails unless every native run proves the
// serial optimum with a valid schedule.
func matchSerial(t *testing.T, label string, m *core.Model, h core.HFunc, workers []int) {
	t.Helper()
	ref := solveSerial(t, m, h)
	for _, w := range workers {
		res, err := Solve(m, Options{Workers: w, HFunc: h})
		if err != nil {
			t.Fatalf("%s w=%d: %v", label, w, err)
		}
		if !res.Optimal || res.BoundFactor != 1 {
			t.Fatalf("%s w=%d: optimal=%v bound=%g, want a proven optimum",
				label, w, res.Optimal, res.BoundFactor)
		}
		if res.Length != ref.Length {
			t.Fatalf("%s w=%d: length %d, serial optimum %d", label, w, res.Length, ref.Length)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s w=%d: invalid schedule: %v", label, w, err)
		}
	}
}

// TestNativeEpsilonBound runs the ε variant and asserts the returned length
// respects the proven factor against the exact optimum, with Optimal and
// BoundFactor moving together.
func TestNativeEpsilonBound(t *testing.T) {
	for _, seed := range []uint64{3, 5} {
		g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 1.0, Seed: seed})
		m, err := core.NewModel(g, procgraph.Complete(3))
		if err != nil {
			t.Fatal(err)
		}
		ref := solveSerial(t, m, core.HPaper)
		res, err := Solve(m, Options{Workers: 4, Epsilon: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundFactor == 0 {
			t.Fatal("completed ε solve established no bound")
		}
		if res.Optimal != (res.BoundFactor == 1) {
			t.Fatalf("Optimal=%v BoundFactor=%g violate the contract", res.Optimal, res.BoundFactor)
		}
		if float64(res.Length) > res.BoundFactor*float64(ref.Length)+1e-9 {
			t.Fatalf("length %d breaks bound %g × %d", res.Length, res.BoundFactor, ref.Length)
		}
	}
}

// TestNativeCancellation cuts a hard solve off mid-search and proves the
// whole machine winds down: Solve returns promptly with a valid non-optimal
// incumbent, every worker goroutine exits, and every worker arena is
// released to the garbage collector.
func TestNativeCancellation(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 24, CCR: 1.0, Seed: 1})
	m, err := core.NewModel(g, procgraph.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	var cut atomic.Bool
	opt := Options{
		Workers: 4,
		Stop: func(expanded int64) bool {
			// Cut off mid-search: after real work has happened but long
			// before a v=24 proof is plausible.
			return cut.Load() || expanded > 3000
		},
	}
	sv, fallback, err := newSolver(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Watch every worker arena: all must become garbage once the solve's
	// references are dropped, proving no worker or global structure leaks
	// a state reference past the solve.
	released := make(chan int, len(sv.workers))
	for i, w := range sv.workers {
		runtime.AddCleanup(w.exp.Arena(), func(id int) { released <- id }, i)
	}
	time.AfterFunc(200*time.Millisecond, func() { cut.Store(true) })

	start := time.Now()
	sv.run()
	res := sv.result(fallback)
	if since := time.Since(start); since > 10*time.Second {
		t.Fatalf("cancelled solve took %v", since)
	}
	if res.Optimal || res.BoundFactor != 0 {
		t.Fatalf("cut-off solve claims a certificate: optimal=%v bound=%g", res.Optimal, res.BoundFactor)
	}
	if res.Schedule == nil {
		t.Fatal("cut-off solve returned no schedule")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("cut-off incumbent invalid: %v", err)
	}

	// All workers must have exited — not just gone quiet.
	deadline := time.Now().Add(5 * time.Second)
	for ActiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d native workers still alive after the solve returned", ActiveWorkers())
		}
		time.Sleep(time.Millisecond)
	}

	// Drop the solver and result; the arenas must now be collectable.
	workers := len(sv.workers)
	sv, res = nil, nil
	_ = res
	got := 0
	for deadline := time.Now().Add(10 * time.Second); got < workers && time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-released:
			got++
		case <-time.After(20 * time.Millisecond):
		}
	}
	if got != workers {
		t.Fatalf("only %d of %d worker arenas were released after the solve", got, workers)
	}
}

// TestNativeWorkerClamp: a hostile worker count (the knob is reachable from
// the network job API) is clamped, not honoured with a goroutine per unit.
func TestNativeWorkerClamp(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 6, CCR: 1.0, Seed: 1})
	m, err := core.NewModel(g, procgraph.Complete(2))
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := newSolver(m, Options{Workers: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.workers) != maxWorkers {
		t.Fatalf("solver built %d workers for a 2^20 request, want the %d cap", len(sv.workers), maxWorkers)
	}
}

// TestNativeExhaustionWithoutGoal: when the upper bound override prunes the
// whole space below the optimum, the engine must fall back to the heuristic
// schedule without claiming optimality — the serial engine's contract.
func TestNativeUpperBoundFallback(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 4})
	m, err := core.NewModel(g, procgraph.Complete(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(m, Options{Workers: 2, UpperBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("no fallback schedule")
	}
	if res.Optimal {
		t.Fatal("exhausted-by-pruning solve claims optimality")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("fallback invalid: %v", err)
	}
}

// TestNativeStatsSane spot-checks the merged counters of a multi-worker
// solve: expansions, generation, a populated global visited table.
func TestNativeStatsSane(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 12, CCR: 1.0, Seed: 5})
	m, err := core.NewModel(g, procgraph.Complete(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Expanded <= 0 || st.Generated < st.Expanded {
		t.Fatalf("implausible effort counters: expanded=%d generated=%d", st.Expanded, st.Generated)
	}
	if st.VisitedSize <= 0 || int64(st.VisitedSize) > st.Generated {
		t.Fatalf("visited size %d out of range (generated %d)", st.VisitedSize, st.Generated)
	}
	if st.MaxOpen <= 0 {
		t.Fatalf("MaxOpen %d", st.MaxOpen)
	}
}

package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// layerTimes is the per-call timing of one instrumented A* solve. Every
// field is measured from outside, around a call into core's public API.
type layerTimes struct {
	total      time.Duration // the whole solve, model build included
	model      time.Duration // core.NewModel
	ub         time.Duration // core.ResolveUpperBound (the list heuristic)
	setup      time.Duration // NewExpander + NewQueue + NewVisited + Root
	expandSelf time.Duration // Expander.Expand minus the pushes it made
	expandAll  time.Duration // Expander.Expand including its pushes
	push       time.Duration // Queue.Push, called from the emit callback
	pop        time.Duration // Queue.Pop
	scheduleOf time.Duration // Model.ScheduleOf
	expands    int64
	pushes     int64
	pops       int64
}

// children is the time covered by the timed calls.
func (lt *layerTimes) children() time.Duration {
	return lt.model + lt.ub + lt.setup + lt.expandAll + lt.pop + lt.scheduleOf
}

// instrumentedAStar re-drives engine astar's serial A* loop (core.SolveModel
// under an expansion-cap budget) from core's public API, timing every call.
// Its Stats must match the engine's exactly; the caller checks that.
func instrumentedAStar(in instance, capExp int64) (*core.Result, layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	m, err := core.NewModel(in.G, in.Sys)
	lt.model = time.Since(start)
	if err != nil {
		return nil, lt, err
	}
	opt := core.Options{Stop: engine.NewBudget(context.Background(), capExp, 0).Stop}
	solveStart := time.Now()
	var stats core.Stats
	stats.StaticLB = m.StaticLowerBound()
	t := time.Now()
	ub, fallback, err := core.ResolveUpperBound(m, opt)
	lt.ub = time.Since(t)
	if err != nil {
		return nil, lt, err
	}
	stats.UpperBound = ub

	t = time.Now()
	exp := m.NewExpander(opt, &stats)
	open := core.NewQueue(opt)
	visited := core.NewVisited()
	root := core.Root()
	lt.setup = time.Since(t)
	exp.UB = ub
	var goal *core.State
	exp.Bound = func() int32 {
		if goal == nil {
			return 0
		}
		return goal.F()
	}
	emit := func(c *core.State) {
		if c.Complete(m) {
			if goal == nil || c.F() < goal.F() {
				goal = c
			}
			return
		}
		t := time.Now()
		open.Push(c)
		lt.push += time.Since(t)
		lt.pushes++
	}
	expand := func(s *core.State) {
		pushed := lt.push
		t := time.Now()
		exp.Expand(s, visited, emit)
		d := time.Since(t)
		lt.expandAll += d
		lt.expandSelf += d - (lt.push - pushed)
		lt.expands++
	}

	expand(root)
	proved, cutOff := false, false
	for {
		if open.Len() > stats.MaxOpen {
			stats.MaxOpen = open.Len()
		}
		fmin, ok := open.MinF()
		if !ok {
			proved = true
			break
		}
		if goal != nil && goal.F() <= fmin {
			proved = true
			break
		}
		if opt.Stop(stats.Expanded) {
			cutOff = true
			break
		}
		t := time.Now()
		s := open.Pop()
		lt.pop += time.Since(t)
		lt.pops++
		expand(s)
	}
	stats.VisitedSize = visited.Len()

	res := &core.Result{Stats: stats}
	if goal != nil {
		t := time.Now()
		res.Schedule = m.ScheduleOf(goal)
		lt.scheduleOf = time.Since(t)
		res.Length = goal.F()
		if proved && !cutOff {
			res.Optimal, res.BoundFactor = true, 1
		}
	} else {
		res.Schedule, res.Length = fallback, fallback.Length
	}
	res.Stats.WallTime = time.Since(solveStart)
	lt.total = time.Since(start)
	return res, lt, nil
}

// sameSearch compares everything an instrumented solve must reproduce from
// the engine's own run of the same instance.
func sameSearch(want, got *core.Result) error {
	w, g := want.Stats, got.Stats
	type field struct {
		name      string
		want, got int64
	}
	for _, f := range []field{
		{"Expanded", w.Expanded, g.Expanded},
		{"Generated", w.Generated, g.Generated},
		{"Duplicates", w.Duplicates, g.Duplicates},
		{"PrunedIso", w.PrunedIso, g.PrunedIso},
		{"PrunedEquiv", w.PrunedEquiv, g.PrunedEquiv},
		{"PrunedFTO", w.PrunedFTO, g.PrunedFTO},
		{"PrunedUB", w.PrunedUB, g.PrunedUB},
		{"PrunedBound", w.PrunedBound, g.PrunedBound},
		{"MaxOpen", int64(w.MaxOpen), int64(g.MaxOpen)},
		{"VisitedSize", int64(w.VisitedSize), int64(g.VisitedSize)},
		{"UpperBound", int64(w.UpperBound), int64(g.UpperBound)},
		{"Length", int64(want.Length), int64(got.Length)},
	} {
		if f.want != f.got {
			return fmt.Errorf("%s: engine %d, instrumented loop %d", f.name, f.want, f.got)
		}
	}
	if want.Optimal != got.Optimal {
		return fmt.Errorf("Optimal: engine %v, instrumented loop %v", want.Optimal, got.Optimal)
	}
	return nil
}

// tracedSearch alternates an untraced engine pass with an instrumented
// pass until the run's time is spent. The engine pass is the fidelity
// reference for every instance and the base of obs.trace_overhead. A
// final native pass measures the native layer against the first engine
// pass.
func (s *searchRun) tracedSearch() {
	r := s.r
	deadline := time.Now().Add(s.o.seconds)
	var plain, traced []float64
	var lts []layerTimes
	var results []*core.Result
	var firstCounters counters
	var firstRef pass
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		ref := s.solvePass("astar")
		byInst := map[int]*core.Result{}
		for _, o := range ref.obs {
			byInst[o.inst] = o.res
		}
		plain = append(plain, ref.wall.Seconds())
		if round == 0 {
			firstCounters, firstRef = sumCounters(ref.results()), ref
		} else if c := sumCounters(ref.results()); c != firstCounters {
			r.fail("pass %d counters %+v differ from pass 0 %+v", round, c, firstCounters)
		}

		var wall time.Duration
		for i, in := range s.corpus {
			r.attempted++
			res, lt, err := instrumentedAStar(in, s.cap)
			if err != nil {
				r.fail("instrumented %s: %v", in.Name, err)
				continue
			}
			wall += lt.total
			if err := checkSearchResult(in, res); err != nil {
				r.fail("instrumented %s: %v", in.Name, err)
				continue
			}
			want, ok := byInst[i]
			if !ok {
				continue // the engine pass already failed this instance
			}
			if err := sameSearch(want, res); err != nil {
				r.fail("fidelity %s: %v", in.Name, err)
				continue
			}
			if round == 0 {
				results = append(results, res)
			}
			lts = append(lts, lt)
		}
		traced = append(traced, wall.Seconds())
	}
	fmt.Fprintf(s.o.out, "counters %+v\n", firstCounters)

	var model, ub []float64
	var sumLT layerTimes
	for _, lt := range lts {
		model = append(model, ms(lt.model))
		ub = append(ub, ms(lt.ub))
		sumLT.total += lt.total
		sumLT.model += lt.model
		sumLT.ub += lt.ub
		sumLT.setup += lt.setup
		sumLT.expandSelf += lt.expandSelf
		sumLT.expandAll += lt.expandAll
		sumLT.push += lt.push
		sumLT.pop += lt.pop
		sumLT.scheduleOf += lt.scheduleOf
		sumLT.expands += lt.expands
		sumLT.pushes += lt.pushes
		sumLT.pops += lt.pops
	}
	var gaps []float64
	for _, res := range results {
		gaps = append(gaps, ratio(float64(res.Stats.UpperBound-res.Length), float64(res.Length)))
	}
	total := float64(sumLT.total)
	r.add("gen.corpus_ms", median(s.corpusMS), "ms", len(s.corpusMS))
	r.add("core.model_ms", median(model), "ms", len(model))
	r.add("listsched.ub_ms", median(ub), "ms", len(ub))
	r.add("listsched.ub_gap", sum(gaps)/float64(max(len(gaps), 1)), "ratio", len(gaps))
	r.add("core.expand_ns", ratio(float64(sumLT.expandSelf), float64(sumLT.expands)), "ns", int(sumLT.expands))
	r.add("core.expand_busy_frac", ratio(float64(sumLT.expandSelf), total), "ratio", len(lts))
	r.add("core.open_push_ns", ratio(float64(sumLT.push), float64(sumLT.pushes)), "ns", int(sumLT.pushes))
	r.add("core.open_pop_ns", ratio(float64(sumLT.pop), float64(sumLT.pops)), "ns", int(sumLT.pops))
	r.add("core.open_busy_frac", ratio(float64(sumLT.push+sumLT.pop), total), "ratio", len(lts))
	r.add("engine.self_frac", ratio(total-float64(sumLT.children()), total), "ratio", len(lts))
	effortMetrics(r, results)
	r.add("obs.trace_overhead", ratio(median(traced), median(plain))-1, "ratio", len(traced))
	s.nativeLayers(firstRef)
	s.speed.check(s.o, r)
	s.speed.layers(r)
}

// effortMetrics reports the core layer's effort counters summed over one
// pass of results.
func effortMetrics(r *report, results []*core.Result) {
	c := sumCounters(results)
	n := len(results)
	gen, dup := float64(c.Generated), float64(c.Duplicates)
	pruned := float64(c.PrunedIso + c.PrunedEquiv + c.PrunedFTO + c.PrunedUB + c.PrunedBound)
	r.add("core.expand_calls", float64(c.Expanded), "count", n)
	r.add("core.generated_per_expand", ratio(gen, float64(c.Expanded)), "ratio", n)
	r.add("core.dup_ratio", ratio(dup, gen+dup), "ratio", n)
	r.add("core.visited_size", float64(c.VisitedSize), "count", n)
	r.add("core.open_max", float64(c.MaxOpen), "count", n)
	r.add("core.pruned_iso", float64(c.PrunedIso), "count", n)
	r.add("core.pruned_equiv", float64(c.PrunedEquiv), "count", n)
	r.add("core.pruned_fto", float64(c.PrunedFTO), "count", n)
	r.add("core.pruned_ub", float64(c.PrunedUB), "count", n)
	r.add("core.pruned_bound", float64(c.PrunedBound), "count", n)
	r.add("core.useful_ratio", ratio(gen, gen+dup+pruned), "ratio", n)
}

// nativeLayers runs one pass of engine native at nativeWorkers workers
// over the corpus and reports the native layer against base, a serial
// astar pass: search overhead, parallel efficiency, duplicates and
// expansion rate. Proven lengths of the two engines must agree.
func (s *searchRun) nativeLayers(base pass) {
	r := s.r
	p := s.solvePass("native")
	astarByInst := map[int]solveObs{}
	for _, o := range base.obs {
		astarByInst[o.inst] = o
	}
	var overhead []float64
	var nativeWall, astarWall, busy time.Duration
	for _, o := range p.obs {
		busy += o.solve
		a, ok := astarByInst[o.inst]
		if !ok {
			continue
		}
		if o.res.Optimal && a.res.Optimal && o.res.Length != a.res.Length {
			r.fail("native and astar proven lengths differ on %s: %d vs %d",
				s.corpus[o.inst].Name, o.res.Length, a.res.Length)
		}
		overhead = append(overhead, ratio(float64(o.res.Stats.Expanded), float64(a.res.Stats.Expanded)))
		nativeWall += o.solve
		astarWall += a.solve
	}
	results := p.results()
	c := sumCounters(results)
	gen, dup := float64(c.Generated), float64(c.Duplicates)
	r.add("native.search_overhead", median(overhead), "ratio", len(overhead))
	r.add("native.efficiency", ratio(float64(astarWall), float64(nativeWorkers*nativeWall)), "ratio", len(overhead))
	r.add("native.dup_ratio", ratio(dup, gen+dup), "ratio", len(results))
	r.add("native.expand_rate", ratio(float64(c.Expanded), busy.Seconds()), "1/s", len(results))
}

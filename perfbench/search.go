package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// searchGoodputLimit is the per-solve latency within which a search
// solve counts toward goodput_rps.
const searchGoodputLimit = 2 * time.Second

// searchTailQ is the search workloads' tail percentile. Their samples are
// repeated passes over one 25-instance corpus, so the highest percentile
// with ten samples beyond it (the 11th largest) would jump from one
// instance to another as the number of passes a run fits changes; p90 sits
// inside the third-slowest instance's repeats for any pass count, with at
// least ten samples beyond it from four passes on.
const searchTailQ = 0.9

// nativeWorkers is the native engine's worker count in a traced search
// run: one per core of the two-core reference host.
const nativeWorkers = 2

// solveObs is one corpus solve as the closed-loop caller saw it.
type solveObs struct {
	inst  int           // corpus index
	at    time.Time     // when the solve started
	e2e   time.Duration // the engine.Solve call, model build included
	solve time.Duration // Result.Stats.WallTime
	res   *core.Result
}

// pass is one closed-loop sweep over the whole corpus.
type pass struct {
	obs  []solveObs
	wall time.Duration // sum of the e2e times
}

// counters are the summed deterministic effort counters of a set of
// solves; MaxOpen and VisitedSize are the largest single-solve values.
type counters struct {
	Expanded, Generated, Duplicates                          int64
	PrunedIso, PrunedEquiv, PrunedFTO, PrunedUB, PrunedBound int64
	MaxOpen, VisitedSize                                     int64
	Length                                                   int64
	Optimal                                                  int
}

func (p *pass) results() []*core.Result {
	out := make([]*core.Result, len(p.obs))
	for i, o := range p.obs {
		out[i] = o.res
	}
	return out
}

func sumCounters(results []*core.Result) counters {
	var c counters
	for _, res := range results {
		s := res.Stats
		c.Expanded += s.Expanded
		c.Generated += s.Generated
		c.Duplicates += s.Duplicates
		c.PrunedIso += s.PrunedIso
		c.PrunedEquiv += s.PrunedEquiv
		c.PrunedFTO += s.PrunedFTO
		c.PrunedUB += s.PrunedUB
		c.PrunedBound += s.PrunedBound
		c.MaxOpen = max(c.MaxOpen, int64(s.MaxOpen))
		c.VisitedSize = max(c.VisitedSize, int64(s.VisitedSize))
		c.Length += int64(res.Length)
		if res.Optimal {
			c.Optimal++
		}
	}
	return c
}

// searchRun is the state of one search invocation.
type searchRun struct {
	o        options
	r        *report
	corpus   []instance
	cap      int64
	corpusMS []float64 // corpus generation times, one per set-up
	setups   []timed   // set-up times
	speed    hostSpeed // reference-kernel times, one before each set-up and solve
}

// timed is one timed operation: when it started and how long it took.
type timed struct {
	at time.Time
	d  time.Duration
}

// setupSearch generates the corpus setupReps times, keeping the times of
// all but the first; nothing else precedes the first timed solve.
func setupSearch(o options, r *report) (*searchRun, error) {
	spec, err := loadCorpusSpec()
	if err != nil {
		return nil, err
	}
	s := &searchRun{o: o, r: r, cap: spec.Cap}
	limit := 0
	if o.tiny {
		limit, s.cap = tinyCorpus, tinyCap
	}
	for i := 0; i < o.setupReps(true); i++ {
		s.speed.sample()
		t := time.Now()
		s.corpus, err = buildSearchCorpus(spec, o.seed, limit)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			d := time.Since(t)
			s.setups = append(s.setups, timed{t, d})
			s.corpusMS = append(s.corpusMS, ms(d))
		}
	}
	return s, nil
}

// solvePass runs the closed-loop caller once over the corpus with the
// named engine and checks every result. The reference kernel runs before
// each solve, outside its timing.
func (s *searchRun) solvePass(name string) pass {
	cfg := engine.Config{MaxExpanded: s.cap}
	if name == "native" {
		cfg.Workers = nativeWorkers
	}
	var p pass
	for i, in := range s.corpus {
		s.r.attempted++
		s.speed.sample()
		t := time.Now()
		res, err := engine.Solve(context.Background(), name, in.G, in.Sys, cfg)
		d := time.Since(t)
		if err != nil {
			s.r.fail("%s %s: %v", name, in.Name, err)
			continue
		}
		if err := checkSearchResult(in, res); err != nil {
			s.r.fail("%s %s: %v", name, in.Name, err)
			continue
		}
		p.obs = append(p.obs, solveObs{inst: i, at: t, e2e: d, solve: res.Stats.WallTime, res: res})
		p.wall += d
	}
	return p
}

// checkSearchResult is the correctness gate of one search solve: a valid
// schedule whose length is the reported length, the registry-wide
// Optimal ⇔ BoundFactor == 1 contract, and agreement with the pinned
// optimum — equal when proven, no shorter when cut off.
func checkSearchResult(in instance, res *core.Result) error {
	if res.Schedule == nil {
		return fmt.Errorf("no schedule")
	}
	if err := res.Schedule.Validate(); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	if res.Schedule.Length != res.Length {
		return fmt.Errorf("schedule length %d != result length %d", res.Schedule.Length, res.Length)
	}
	if res.Optimal != (res.BoundFactor == 1) {
		return fmt.Errorf("optimal=%v with bound factor %g", res.Optimal, res.BoundFactor)
	}
	if in.Optimal > 0 {
		if res.Optimal && res.Length != in.Optimal {
			return fmt.Errorf("proven length %d != pinned optimum %d", res.Length, in.Optimal)
		}
		if res.Length < in.Optimal {
			return fmt.Errorf("length %d beats pinned optimum %d", res.Length, in.Optimal)
		}
	}
	return nil
}

// runPasses repeats passes of the named engine until the run's time is
// spent, with at least minPasses.
func (s *searchRun) runPasses(name string, minPasses int) []pass {
	deadline := time.Now().Add(s.o.seconds)
	var out []pass
	for len(out) < minPasses || time.Now().Before(deadline) {
		out = append(out, s.solvePass(name))
	}
	return out
}

// checkCounters gates the serial engine's summed effort counters exactly:
// every pass over the same corpus must reproduce the first.
func (s *searchRun) checkCounters(passes []pass) {
	if len(passes) == 0 {
		return
	}
	first := sumCounters(passes[0].results())
	fmt.Fprintf(s.o.out, "counters %+v\n", first)
	for i, p := range passes[1:] {
		if c := sumCounters(p.results()); c != first {
			s.r.fail("pass %d counters %+v differ from pass 0 %+v", i+1, c, first)
		}
	}
}

// endToEnd reports the end-to-end metrics of the search workload, every
// time at the reference host speed (hostspeed.go).
func (s *searchRun) endToEnd(passes []pass) {
	r := s.r
	s.speed.check(s.o, r)
	var solve, e2e, walls []float64
	optimal, good := 0, 0
	busy := 0.0
	for _, p := range passes {
		wall := 0.0
		for _, o := range p.obs {
			e := s.speed.scaled(o.at, o.e2e)
			solve = append(solve, s.speed.scaled(o.at, o.solve))
			e2e = append(e2e, e)
			wall += e / 1000
			if o.res.Optimal {
				optimal++
			}
			if e <= ms(searchGoodputLimit) {
				good++
			}
		}
		walls = append(walls, wall)
		busy += wall
	}
	r.add("setup_s", scaledMedian(&s.speed, s.setups)/1000, "s", len(s.setups))
	r.add("solve_p50_ms", median(solve), "ms", len(solve))
	r.add("solve_tail_ms", quantile(solve, searchTailQ), "ms", len(solve))
	r.add("solve_total_s", median(walls), "s", len(walls))
	r.add("proven_frac", ratio(float64(optimal), float64(len(solve))), "ratio", len(solve))
	r.add("e2e_p50_ms", median(e2e), "ms", len(e2e))
	r.add("e2e_tail_ms", quantile(e2e, searchTailQ), "ms", len(e2e))
	r.add("goodput_rps", ratio(float64(good), busy), "1/s", len(e2e))
	r.add("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.add("ok_frac", 1-ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
}

func runSearch(o options, r *report) error {
	s, err := setupSearch(o, r)
	if err != nil {
		return err
	}
	if o.trace {
		s.tracedSearch()
		return nil
	}
	resetPeakRSS()
	passes := s.runPasses("astar", 2)
	s.checkCounters(passes)
	s.endToEnd(passes)
	return nil
}

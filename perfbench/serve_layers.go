package main

import (
	"strings"

	"repro/internal/obs"
)

// layers reports the per-layer metrics of a traced serve run: client
// round trips, the lifecycle spans the daemon records for every job
// (GET /v1/jobs/{id}/trace) and the /v1/healthz counters of the traced
// serve drive, and the cluster layer from the traced cluster drive; the
// untraced drive is the base of obs.trace_overhead.
func (s *serveRun) layers(plain, traced, clustered *phase) {
	r := s.r
	var submit, status, result, late []float64
	rejected := 0
	jobs := 0
	for _, q := range traced.reqs {
		late = append(late, ms(q.late))
		if q.id == "" {
			rejected++
			continue
		}
		jobs++
		submit = append(submit, ms(q.submit))
		status = append(status, q.statusRTs...)
		if q.done {
			result = append(result, q.resultRT)
		}
	}
	reads := append(append([]float64(nil), status...), result...)
	spans, _ := jobSpans(traced)
	cspans, overhead := jobSpans(clustered)

	h := traced.health
	r.add("gen.corpus_ms", median(s.corpusMS), "ms", len(s.corpusMS))
	if c := h.Cache; c != nil {
		r.add("solverpool.cache_hit_ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)), "ratio", int(c.Hits+c.Misses))
	}
	r.add("solverpool.model_hits", float64(h.ModelHits), "count", 1)
	r.add("solverpool.models_built", float64(h.ModelsBuilt), "count", 1)
	r.add("server.submit_ms_p50", median(submit), "ms", len(submit))
	r.add("server.submit_ms_tail", tail(submit), "ms", len(submit))
	r.add("server.status_ms_tail", tail(status), "ms", len(status))
	r.add("server.result_ms_tail", tail(result), "ms", len(result))
	r.add("server.read_ms_tail", tail(reads), "ms", len(reads))
	for _, m := range []struct {
		name  string
		spans map[string][]float64
		span  string
		stat  func([]float64) float64
	}{
		{"server.admit_ms_tail", spans, "admit", tail},
		{"server.cache_ms_tail", spans, "cache", tail},
		{"server.queue_ms_p50", spans, "queue", median},
		{"server.queue_ms_tail", spans, "queue", tail},
		{"server.solve_ms_p50", spans, "solve", median},
		{"server.solve_ms_tail", spans, "solve", tail},
		{"server.persist_ms_tail", spans, "persist", tail},
		{"cluster.lease_ms_p50", cspans, "lease", median},
		{"cluster.lease_ms_tail", cspans, "lease", tail},
		{"cluster.worker_solve_ms_p50", cspans, "worker.solve", median},
	} {
		if xs := m.spans[m.span]; len(xs) > 0 {
			r.add(m.name, m.stat(xs), "ms", len(xs))
		}
	}
	if len(overhead) > 0 {
		r.add("cluster.overhead_ms_p50", median(overhead), "ms", len(overhead))
	}
	r.add("server.rejected", float64(rejected), "count", len(traced.reqs))
	r.add("server.store_bytes_per_job", ratio(float64(traced.bytes), float64(jobs)), "B", jobs)
	if c := clustered.health.Cluster; c != nil {
		r.add("cluster.dispatched_share", dispatchedShare(clustered), "ratio", len(clustered.reqs))
		r.add("cluster.failovers", float64(c.Failovers), "count", 1)
		r.add("cluster.adoptions", float64(c.Adoptions), "count", 1)
	}
	r.add("loadgen.late_ms_tail", tail(late), "ms", len(late))
	r.add("loadgen.late_ms_max", maxOf(late), "ms", len(late))
	r.add("loadgen.cache_hit_share", cacheHitShare(traced), "ratio", jobs)
	r.add("obs.trace_overhead", ratio(e2eMedian(traced), e2eMedian(plain))-1, "ratio", jobs)
	s.speed.check(s.o, r)
	s.speed.layers(r)
}

// jobSpans groups the durations of a phase's job spans by stage, and
// returns for every job that was leased its lease span minus the worker's
// decode and solve spans: the round-trip cost of remote dispatch.
func jobSpans(ph *phase) (map[string][]float64, []float64) {
	spans := map[string][]float64{}
	var overhead []float64
	for _, q := range ph.reqs {
		if q.spans == nil {
			continue
		}
		var lease, workerWork float64
		for _, sp := range q.spans.Spans {
			key := spanKey(sp)
			spans[key] = append(spans[key], sp.DurationMS)
			switch key {
			case "lease":
				lease = sp.DurationMS // the last attempt's lease
			case "worker.decode", "worker.solve":
				workerWork += sp.DurationMS
			}
		}
		if lease > 0 {
			overhead = append(overhead, lease-workerWork)
		}
	}
	return spans, overhead
}

// spanKey names a span by stage, prefixing worker-observed stages with
// "worker." so they do not mix with the daemon's own solve spans.
func spanKey(sp obs.Span) string {
	if strings.HasPrefix(sp.Origin, obs.OriginWorker) {
		return "worker." + sp.Name
	}
	return sp.Name
}

func e2eMedian(ph *phase) float64 {
	var xs []float64
	for _, q := range ph.reqs {
		if q.done {
			xs = append(xs, ms(q.e2e))
		}
	}
	return median(xs)
}

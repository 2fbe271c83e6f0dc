package main

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run of any workload prints all of them; a layer the workload
// does not exercise reads 0 (the search workloads never reach server or
// cluster, and the serving workloads time no call inside core).
var perLayer = []struct{ name, unit string }{
	{"gen.corpus_ms", "ms"},
	{"core.model_ms", "ms"},
	{"listsched.ub_ms", "ms"},
	{"listsched.ub_gap", "ratio"},
	{"core.expand_calls", "count"},
	{"core.expand_ns", "ns"},
	{"core.expand_busy_frac", "ratio"},
	{"core.generated_per_expand", "ratio"},
	{"core.dup_ratio", "ratio"},
	{"core.visited_size", "count"},
	{"core.open_push_ns", "ns"},
	{"core.open_pop_ns", "ns"},
	{"core.open_busy_frac", "ratio"},
	{"core.open_max", "count"},
	{"core.pruned_iso", "count"},
	{"core.pruned_equiv", "count"},
	{"core.pruned_fto", "count"},
	{"core.pruned_ub", "count"},
	{"core.pruned_bound", "count"},
	{"core.useful_ratio", "ratio"},
	{"engine.self_frac", "ratio"},
	{"native.search_overhead", "ratio"},
	{"native.efficiency", "ratio"},
	{"native.dup_ratio", "ratio"},
	{"native.expand_rate", "1/s"},
	{"solverpool.cache_hit_ratio", "ratio"},
	{"solverpool.model_hits", "count"},
	{"solverpool.models_built", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_tail", "ms"},
	{"server.status_ms_tail", "ms"},
	{"server.result_ms_tail", "ms"},
	{"server.read_ms_tail", "ms"},
	{"server.admit_ms_tail", "ms"},
	{"server.cache_ms_tail", "ms"},
	{"server.queue_ms_p50", "ms"},
	{"server.queue_ms_tail", "ms"},
	{"server.solve_ms_p50", "ms"},
	{"server.solve_ms_tail", "ms"},
	{"server.persist_ms_tail", "ms"},
	{"server.rejected", "count"},
	{"server.store_bytes_per_job", "B"},
	{"cluster.lease_ms_p50", "ms"},
	{"cluster.lease_ms_tail", "ms"},
	{"cluster.worker_solve_ms_p50", "ms"},
	{"cluster.overhead_ms_p50", "ms"},
	{"cluster.dispatched_share", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.adoptions", "count"},
	{"loadgen.late_ms_tail", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.cache_hit_share", "ratio"},
	{"obs.trace_overhead", "ratio"},
	{"host.kernel_ms", "ms"},
	{"host.slowdown", "ratio"},
}

// fillLayers orders a traced run's metrics as perLayer lists them and adds
// a 0 for every layer the workload did not exercise.
func fillLayers(r *report) {
	have := map[string]metric{}
	for _, m := range r.metrics {
		have[m.Name] = m
	}
	r.metrics = r.metrics[:0]
	for _, l := range perLayer {
		m, ok := have[l.name]
		if !ok {
			m = metric{Name: l.name, Unit: l.unit}
		}
		r.metrics = append(r.metrics, m)
	}
}

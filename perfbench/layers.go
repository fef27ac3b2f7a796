package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit; BENCHMARK.json's per_layer section lists the same names (a unit
// test keeps the two in step). A traced run reports all of them: a metric
// of a layer the workload does not call reads 0, and a ratio with nothing
// to divide by reads 0, as PlanCacheStats.HitRate does.
var perLayer = []struct{ name, unit, better string }{
	{"sqlengine.filter.query_ms", "ms", "lower"},
	{"sqlengine.group.query_ms", "ms", "lower"},
	{"sqlengine.join.query_ms", "ms", "lower"},
	{"sqlengine.window.query_ms", "ms", "lower"},
	{"sqlengine.sort.query_ms", "ms", "lower"},
	{"sqlengine.subquery.query_ms", "ms", "lower"},
	{"sqlengine.case.query_ms", "ms", "lower"},
	{"sqlengine.drain_ms", "ms", "lower"},
	{"sqlengine.fingerprint_us", "us", "lower"},
	{"sqlengine.plan_cache_hit_ratio", "ratio", "higher"},
	{"sqlengine.parse_calls", "count", "lower"},
	{"sqlengine.rows_examined_per_row_returned", "ratio", "lower"},
	{"table.load_ms", "ms", "lower"},
	{"table.chunks", "count", "lower"},
	{"table.rows_per_publish", "count", "higher"},
	{"server.first_line_ms", "ms", "lower"},
	{"server.stream_ms", "ms", "lower"},
	{"server.wire_bytes_per_row", "B", "lower"},
	{"server.backpressure_ratio", "ratio", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"agent.plan_us", "us", "lower"},
	{"agent.sql.execute_ms", "ms", "lower"},
	{"agent.anomaly.execute_ms", "ms", "lower"},
	{"agent.causal.execute_ms", "ms", "lower"},
	{"agent.forecast.execute_ms", "ms", "lower"},
	{"agent.cleaning.execute_ms", "ms", "lower"},
	{"agent.impute.execute_ms", "ms", "lower"},
	{"agent.eda.execute_ms", "ms", "lower"},
	{"agent.dscode.execute_ms", "ms", "lower"},
	{"agent.chart.execute_ms", "ms", "lower"},
	{"agent.insight.execute_ms", "ms", "lower"},
	{"comm.proxy_self_us", "us", "lower"},
	{"knowledge.retrieve_us", "us", "lower"},
	{"knowledge.rewrite_us", "us", "lower"},
	{"ask.result_fill_ms", "ms", "lower"},
	{"comm.agent_calls_per_ask", "count", "lower"},
	{"comm.retries_per_ask", "count", "lower"},
	{"comm.agent_success_ratio", "ratio", "higher"},
	{"comm.forwarded_tokens_per_ask", "count", "lower"},
	{"llm.calls_per_ask", "count", "lower"},
	{"llm.prompt_tokens_per_ask", "count", "lower"},
	{"llm.completion_tokens_per_ask", "count", "lower"},
	{"loadgen.lag_p95_ms", "ms", "lower"},
	{"go.gc_cpu_ratio", "ratio", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"trace_overhead_ratio", "ratio", "lower"},
}

// endToEnd lists the end-to-end metrics an untraced run reports, as
// BENCHMARK.json's end_to_end section does.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ingest_rows_s", "1/s", "higher"},
	{"ingest_p95_ms", "ms", "lower"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

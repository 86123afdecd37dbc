package main

// def names a reported metric.
type def struct {
	name, unit, better string
}

// endToEndDefs are the metrics an untraced run prints, on every
// workload; BENCHMARK.json lists the same names.
var endToEndDefs = []def{
	{"setup_s", "s", "lower"},
	{"verdict_s.p50", "s", "lower"},
	{"verdict_s.p90", "s", "lower"},
	{"verdicts_per_s", "1/s", "higher"},
	{"schedules_per_s", "1/s", "higher"},
	{"compile_ms.p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []def{
	{"compile.frontend_ms", "ms", "lower"},
	{"compile.analysis_ms", "ms", "lower"},
	{"compile.instrument_ms", "ms", "lower"},
	{"compile.backend_ms", "ms", "lower"},
	{"compile.statements", "count", "higher"},
	{"compile.ir_insts", "count", "lower"},
	{"interp.free_steps_per_s", "1/s", "higher"},
	{"interp.steps", "count", "lower"},
	{"verifier.cc_checks", "count", "lower"},
	{"verifier.value_checks", "count", "lower"},
	{"mpi.collectives", "count", "lower"},
	{"sched.serial_steps_per_s", "1/s", "higher"},
	{"sched.serial_overhead", "x", "lower"},
	{"explore.explorations", "count", "higher"},
	{"explore.schedules", "count", "lower"},
	{"explore.exhausted_share", "ratio", "higher"},
	{"explore.sleep_skips", "count", "lower"},
	{"explore.diverged", "count", "lower"},
	{"explore.self_s", "s", "lower"},
	{"explore.planted_bugs", "count", "higher"},
	{"explore.missed_bugs", "count", "lower"},
	{"campaign.runs", "count", "higher"},
	{"campaign.coverage", "count", "higher"},
	{"campaign.bugs", "count", "higher"},
	{"campaign.mutants", "count", "higher"},
	{"campaign.retired", "count", "higher"},
	{"campaign.reduce_s", "s", "lower"},
	{"serve.compile_hit_s.p50", "s", "lower"},
	{"serve.compile_cold_s.p50", "s", "lower"},
	{"serve.run_s.p50", "s", "lower"},
	{"serve.explore_s.p50", "s", "lower"},
	{"serve.http_overhead_s", "s", "lower"},
	{"serve.cache_hit_rate", "ratio", "higher"},
	{"serve.queued", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"go.alloc_bytes_per_schedule", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"self_s.op", "s", "lower"},
	{"self_s.compile", "s", "lower"},
	{"self_s.interp", "s", "lower"},
	{"self_s.sched", "s", "lower"},
	{"self_s.explore", "s", "lower"},
	{"self_s.campaign", "s", "lower"},
	{"self_s.serve", "s", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
}

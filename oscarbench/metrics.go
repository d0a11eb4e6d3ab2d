package main

// metricDef describes one reported metric. The name, unit, direction and
// bound are what BENCHMARK.json lists (a test keeps the two in step); module
// and moves record which layer a metric measures and which end-to-end
// metric a change to that layer should move, so a later change can state
// its prediction in these names before it is measured.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the share by which it may worsen
	module string
	moves  string // per-layer only
	// note says what an end-to-end value is, or on which workloads a
	// per-layer metric should move.
	note string
}

// endToEnd is reported by every untraced run, on every workload. Metrics
// that exist on only some workloads (virtual makespan, the query tail) are
// per-layer metrics instead, because every run must report every
// end-to-end metric. The wall-clock metrics get the widest bound allowed:
// on the shared 2-vCPU host the benchmark was tuned on, the same seed's
// job_p50_s moved by up to 10% between runs minutes apart. nrmse_mean and
// alloc_mb_per_op barely move between runs and get tight bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		module: "service", note: "all: server construction, a warm-up job, and artifact publication on surrogate-query; median of three set-ups"},
	{name: "job_p50_s", unit: "s", better: "lower", bound: 0.25,
		module: "service", note: "median submit-to-result latency of wait-mode POST /jobs; surrogate-query reports its artifact-publishing jobs"},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25,
		module: "service", note: "jobs finished per wall second of the phase that ran them"},
	{name: "nrmse_mean", unit: "ratio", better: "lower", bound: 0.05,
		module: "cs", note: "mean NRMSE against the closed-form analytic ground truth of the set-up jobs, whose inputs are the same in every run"},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25,
		module: "service, interp", note: "median POST /landscapes/{id}/query round trip; on job workloads, of the queries that follow each fresh landscape"},
	{name: "query_points_per_s", unit: "1/s", better: "higher", bound: 0.25,
		module: "service, interp", note: "query points answered per second of a client's query round trips"},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.1,
		module: "Go runtime", note: "heap bytes allocated in the process per operation (a job with its query, or a surrogate query)"},
}

// perLayer is reported by every traced run, on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "validate.ms", unit: "ms", better: "lower", module: "service", moves: "job_p50_s", note: "qaoa-sv-shared"},
	{name: "queue.ms", unit: "ms", better: "lower", module: "service", moves: "job_p50_s", note: "qaoa-sv-shared"},
	{name: "publish.ms", unit: "ms", better: "lower", module: "service, landscape", moves: "job_p50_s", note: "qaoa-sv-shared"},
	{name: "service.http_ms", unit: "ms", better: "lower", module: "service", moves: "job_p50_s", note: "table1-analytic, qaoa-sv-shared, fleet-chaos"},
	{name: "exec.batch.ms", unit: "ms", better: "lower", module: "exec", moves: "jobs_per_s", note: "qaoa-sv-shared"},
	{name: "exec.contention_ratio", unit: "ratio", better: "lower", module: "exec", moves: "jobs_per_s", note: "qaoa-sv-shared"},
	{name: "exec.points_requested", unit: "count", better: "lower", module: "exec", moves: "jobs_per_s", note: "qaoa-sv-shared"},
	{name: "exec.points_executed", unit: "count", better: "lower", module: "exec", moves: "jobs_per_s", note: "qaoa-sv-shared"},
	{name: "exec.cache_hits", unit: "count", better: "higher", module: "exec", moves: "jobs_per_s", note: "qaoa-sv-shared; none on table1-analytic"},
	{name: "exec.useful_ratio", unit: "ratio", better: "higher", module: "exec", moves: "jobs_per_s", note: "qaoa-sv-shared; 1.0 on table1-analytic"},
	{name: "backend.statevector.ns_per_point", unit: "ns", better: "lower", module: "backend, qsim", moves: "job_p50_s", note: "qaoa-sv-shared"},
	{name: "cs.solve.ms", unit: "ms", better: "lower", module: "cs", moves: "job_p50_s", note: "table1-analytic, fleet-chaos"},
	{name: "cs.iterations", unit: "count", better: "lower", module: "cs", moves: "job_p50_s", note: "table1-analytic, fleet-chaos"},
	{name: "cs.ns_per_iteration", unit: "ns", better: "lower", module: "cs", moves: "job_p50_s", note: "table1-analytic, fleet-chaos"},
	{name: "dct.line_ns.len16", unit: "ns", better: "lower", module: "dct", moves: "job_p50_s", note: "qaoa-sv-shared (predicted not to matter)"},
	{name: "dct.line_ns.len32", unit: "ns", better: "lower", module: "dct", moves: "job_p50_s", note: "qaoa-sv-shared (predicted not to matter)"},
	{name: "dct.line_ns.len50", unit: "ns", better: "lower", module: "dct", moves: "job_p50_s", note: "table1-analytic, fleet-chaos"},
	{name: "dct.line_ns.len100", unit: "ns", better: "lower", module: "dct", moves: "job_p50_s", note: "table1-analytic, fleet-chaos"},
	{name: "dct.solve_share", unit: "ratio", better: "lower", module: "dct", moves: "job_p50_s", note: "table1-analytic (computed, not traced)"},
	{name: "query.fit.ms", unit: "ms", better: "lower", module: "interp, service", moves: "query_p50_ms", note: "surrogate-query"},
	{name: "artifact.lru_hit_ratio", unit: "ratio", better: "higher", module: "service", moves: "query_p50_ms", note: "surrogate-query"},
	{name: "query.eval.ns_per_point", unit: "ns", better: "lower", module: "interp", moves: "query_points_per_s", note: "surrogate-query"},
	{name: "query.codec_ms", unit: "ms", better: "lower", module: "service", moves: "query_p50_ms", note: "surrogate-query"},
	{name: "query.p99_ms", unit: "ms", better: "lower", module: "service, interp", moves: "query_p50_ms", note: "surrogate-query (0 under 1000 queries)"},
	{name: "fleet.plan.ms", unit: "ms", better: "lower", module: "fleet", moves: "job_p50_s", note: "fleet-chaos"},
	{name: "fleet.solve.ms", unit: "ms", better: "lower", module: "fleet, cs", moves: "job_p50_s", note: "fleet-chaos"},
	{name: "fleet.solves", unit: "count", better: "lower", module: "fleet", moves: "job_p50_s", note: "fleet-chaos"},
	{name: "fleet.warm_iterations", unit: "count", better: "lower", module: "fleet, cs", moves: "job_p50_s", note: "fleet-chaos"},
	{name: "fleet.batches", unit: "count", better: "lower", module: "fleet, qpu", moves: "fleet.virtual_makespan_s", note: "fleet-chaos (repeats exactly)"},
	{name: "fleet.retries", unit: "count", better: "lower", module: "fleet, qpu", moves: "fleet.virtual_makespan_s", note: "fleet-chaos (repeats exactly)"},
	{name: "fleet.virtual_makespan_s", unit: "s", better: "lower", module: "fleet, qpu", moves: "none: the fleet's own virtual-time outcome", note: "fleet-chaos (repeats exactly)"},
	{name: "obs.trace_overhead", unit: "ratio", better: "lower", module: "obs", moves: "none: end-to-end runs trace nothing", note: "all"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower", module: "Go runtime", moves: "alloc_mb_per_op", note: "all"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower", module: "Go runtime", moves: "alloc_mb_per_op", note: "all"},
}

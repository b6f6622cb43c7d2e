// Package report holds what the benchmark and its compare tool share: the
// metric and workload tables (the Go mirror of BENCHMARK.json), the
// results.json schema, and the order statistics every number is built from.
package report

// Metric is one named benchmark metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have no bound.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names one input set and the reason it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists the five workloads in run order.
var Workloads = []Workload{
	{"lib-wavefront", "200k tiny tasks: cold planning and persistent-worker dispatch do all the work, kernels none; a planner or dispatcher gain must show here"},
	{"ode-layered", "four paper solver graphs with real vector payloads on the layered executor: kernel- and collective-bound, so a planner or dispatcher change predicts no change"},
	{"serve-hot", "closed-loop /v1/plan requests over a 32-body hot set far below cache capacity: every request is a cache hit, so JSON decode, fingerprint and encode dominate"},
	{"serve-churn", "same server, never-repeated bodies with cache and family index purged per block: g-search, cost model and cache insert/evict run on every request"},
	{"jobs-trace", "imbalanced arrival trace of sleep-bodied jobs through the machine allocator: admission sizing, backfill and grow/shrink decisions decide the makespan"},
}

// An operation is one plan+execute repetition (lib-wavefront, ode-layered:
// its latency is the time to solution), one request (serve-*), or one trace
// replay (jobs-trace: its latency is the makespan). Every workload reports
// every end-to-end metric, because the benchmark contract has one metric
// list for all workloads. The bounds are sized by ode-layered, the noisiest
// workload on a shared host (see the README's recorded spreads).
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
}

// PerLayer lists the traced-pass metrics, layer = module. A metric a
// workload does not exercise reads 0 there.
var PerLayer = []Metric{
	{Name: "graph.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.contract_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.layers_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.contracted_tasks", Unit: "count", Better: "lower"},
	{Name: "graph.layers", Unit: "count", Better: "lower"},

	{Name: "core.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.map_ms", Unit: "ms", Better: "lower"},
	{Name: "core.precedence_ms", Unit: "ms", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.predicted_makespan_s", Unit: "s", Better: "lower"},

	{Name: "cost.memo_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "plan.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.self_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plan.cold_plans", Unit: "count", Better: "lower"},
	{Name: "plan.incremental_plans", Unit: "count", Better: "higher"},
	{Name: "plan.reused_layers", Unit: "count", Better: "higher"},
	{Name: "plan.coalesced", Unit: "count", Better: "higher"},
	{Name: "plan.partition_plans", Unit: "count", Better: "lower"},

	{Name: "runtime.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "runtime.collectives", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_goroutines", Unit: "count", Better: "lower"},
	{Name: "runtime.work_core_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.span_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "runtime.resizes", Unit: "count", Better: "higher"},
	{Name: "runtime.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.allgather_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.allreduce_ns", Unit: "ns", Better: "lower"},

	{Name: "ode.reference_ms", Unit: "ms", Better: "lower"},
	{Name: "ode.speedup", Unit: "ratio", Better: "higher"},

	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.request_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.response_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},

	{Name: "dynsched.grows", Unit: "count", Better: "higher"},
	{Name: "dynsched.shrinks", Unit: "count", Better: "higher"},
	{Name: "dynsched.backfills", Unit: "count", Better: "higher"},
	{Name: "dynsched.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dynsched.mean_bounded_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "dynsched.max_bounded_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "dynsched.utilization", Unit: "ratio", Better: "higher"},

	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.stage_coverage", Unit: "ratio", Better: "higher"},
}

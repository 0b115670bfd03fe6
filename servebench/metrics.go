package main

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestMetricTableMatchesBenchmarkJSON keeps the two in step. Moves and On
// record, for a per-layer metric, which end-to-end metric it should move
// and on which workload — the mapping a change claiming a gain must
// explain its numbers with. BENCHMARK.json has no field for it, so it
// lives here and `--list` prints it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
	On     string
}

// Workloads, with the reason each exists.
var workloads = []struct{ Name, Why string }{
	{"steady", "one warmed camera on a seen domain, closed loop, nproc workers, no dispatcher or QoS: isolates inference and the Run loop; train runs only in its warm-ups"},
	{"fleet", "four warmed cameras, open loop at 600 f/s aggregate with phase-shifted bursts, dispatcher, Block admission queues and adaptive fidelity: tiny merged windows"},
}

// End-to-end metrics are measured with tracing off, and every workload
// reports every one of them. detect_delay_frames and recover_s come from
// the warm-ups, the only place a drift happens.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "fps", Unit: "frames/s", Better: "higher", Bound: 0.15},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "full_fidelity_frac", Unit: "frac", Better: "higher", Bound: 0.05},
	{Name: "detect_delay_frames", Unit: "frames", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_frame", Unit: "count", Better: "lower", Bound: 0.2},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// Per-layer metrics come from the traced run: public counters,
// runtime/metrics, and CPU, mutex and block profiles taken around the
// timed phase (cluster.outlier_frac and train.* around steady's second
// warm-up). A layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{Name: "tensor.self_cpu_ms_per_frame", Unit: "ms", Better: "lower", Moves: "fps; recover_s", On: "steady"},
	{Name: "nn.self_cpu_ms_per_frame", Unit: "ms", Better: "lower", Moves: "fps; recover_s", On: "steady"},
	{Name: "stream.self_cpu_us_per_frame", Unit: "us", Better: "lower", Moves: "fps; latency_p50_ms", On: "steady; fleet"},
	{Name: "tensor.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "fps", On: "steady"},
	{Name: "runtime.busy_cores", Unit: "cores", Better: "higher", Moves: "fps", On: "steady"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "fps", On: "steady"},
	{Name: "gan.project_cpu_ms_per_frame", Unit: "ms", Better: "lower", Moves: "fps; latency_p50_ms", On: "steady; fleet"},
	{Name: "detect.detect_cpu_ms_per_frame", Unit: "ms", Better: "lower", Moves: "fps; latency_p50_ms", On: "steady; fleet"},
	{Name: "detect.count_cpu_ms_per_frame", Unit: "ms", Better: "lower", Moves: "full_fidelity_frac", On: "fleet"},
	{Name: "core.advance_cpu_us_per_frame", Unit: "us", Better: "lower", Moves: "latency_p95_ms", On: "fleet"},
	{Name: "cluster.observe_cpu_us_per_frame", Unit: "us", Better: "lower", Moves: "latency_p95_ms", On: "fleet"},
	{Name: "core.lock_wait_ms_per_kframe", Unit: "ms", Better: "lower", Moves: "latency_p95_ms", On: "fleet"},
	{Name: "cluster.outlier_frac", Unit: "frac", Better: "lower", Moves: "detect_delay_frames (no move under pure perf changes)", On: "steady (its traced warm-up)"},
	{Name: "train.jobs", Unit: "count", Better: "higher", Moves: "recover_s", On: "steady (its traced warm-up)"},
	{Name: "train.failed", Unit: "count", Better: "lower", Moves: "recover_s", On: "steady (its traced warm-up)"},
	{Name: "train.build_cpu_s_per_job", Unit: "s", Better: "lower", Moves: "recover_s", On: "steady (its traced warm-up)"},
	{Name: "dispatch.frames_per_batch", Unit: "frames", Better: "higher", Moves: "latency_p50_ms; full_fidelity_frac", On: "fleet"},
	{Name: "dispatch.frames_per_window", Unit: "frames", Better: "higher", Moves: "latency_p50_ms; full_fidelity_frac", On: "fleet"},
	{Name: "dispatch.partial_flush_frac", Unit: "frac", Better: "lower", Moves: "latency_p50_ms; full_fidelity_frac", On: "fleet"},
	{Name: "dispatch.submit_wait_ms_per_kframe", Unit: "ms", Better: "lower", Moves: "latency_p50_ms; full_fidelity_frac", On: "fleet"},
	{Name: "qos.transitions", Unit: "count", Better: "lower", Moves: "full_fidelity_frac; latency_p95_ms", On: "fleet"},
	{Name: "qos.lite_frac", Unit: "frac", Better: "lower", Moves: "full_fidelity_frac; latency_p95_ms", On: "fleet"},
	{Name: "qos.count_frac", Unit: "frac", Better: "lower", Moves: "full_fidelity_frac; latency_p95_ms", On: "fleet"},
	{Name: "qos.skip_frac", Unit: "frac", Better: "lower", Moves: "full_fidelity_frac; latency_p95_ms", On: "fleet"},
	{Name: "qos.admission_block_ms_per_kframe", Unit: "ms", Better: "lower", Moves: "full_fidelity_frac; latency_p95_ms", On: "fleet"},
	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "none: generator lateness; latencies are only trusted while it stays small", On: "fleet"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", Moves: "none: traced against untraced phase of the same run (fps on steady, latency_p50_ms on fleet)", On: "all"},
}

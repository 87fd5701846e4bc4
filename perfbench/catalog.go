package main

// metricDesc names one reported metric and its unit. The two lists below
// are the ones BENCHMARK.json declares (perfbench_test.go checks they
// match): every workload reports every metric, and a layer a workload
// does not exercise reports 0.
type metricDesc struct {
	Name, Unit string
}

// endToEnd are the metrics a user sees, reported by --trace 0 runs. Every
// workload reports each of them (README.md gives the per-workload
// definitions).
var endToEnd = []metricDesc{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ns_per_step", "ns"},
	{"cpu_ns_per_step", "ns"},
}

// perLayer are the metrics of single layers, reported by --trace 1 runs.
// Layers are named after the modules; go is the Go runtime and gen the
// benchmark's own load generator.
var perLayer = []metricDesc{
	{"graph.load_s", "s"},
	{"graph.sort_s", "s"},
	{"part.plan_s", "s"},
	{"part.vps", "count"},
	{"part.ps_vertex_share", "ratio"},
	{"core.build_s", "s"},
	{"core.dw.ns_per_step", "ns"},
	{"core.n2v.ns_per_step", "ns"},
	{"core.dw.sample_ns_per_step", "ns"},
	{"core.n2v.sample_ns_per_step", "ns"},
	{"core.other_ns_per_step", "ns"},
	{"core.run_ms.p50", "ms"},
	{"core.run_ms.p99", "ms"},
	{"walk.shuffle_ns_per_step", "ns"},
	{"walk.shuffle_fwd_ns_per_step", "ns"},
	{"walk.shuffle_rev_ns_per_step", "ns"},
	{"pool.barrier_wait_share", "ratio"},
	{"ooc.ns_per_step", "ns"},
	{"ooc.io_wait_share", "ratio"},
	{"ooc.bytes_read_per_step", "B"},
	{"ooc.resident_hit_share", "ratio"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.nominal_requests", "count"},
	{"serve.slo_qps", "req/s"},
	{"serve.goodput_steps_per_s", "steps/s"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p99", "ms"},
	{"serve.overhead_ms.p50", "ms"},
	{"serve.overhead_ms.p99", "ms"},
	{"serve.batch_requests.mean", "count"},
	{"serve.run_cohorts.mean", "count"},
	{"serve.shed_share", "ratio"},
	{"dyn.ingest_p50_ms", "ms"},
	{"dyn.ingest_tail_ms", "ms"},
	{"dyn.compaction_s.mean", "s"},
	{"dyn.compactions", "count"},
	{"dyn.epoch_swaps", "count"},
	{"dyn.delta_edges.mean", "count"},
	{"dyn.epochs_pinned", "count"},
	{"shard.frames_per_run", "count"},
	{"shard.frame_words_per_run", "count"},
	{"shard.emigrants_per_run", "count"},
	{"shard.supersteps_per_run", "count"},
	{"shard.run_ms.p50", "ms"},
	{"shard.run_ms.p99", "ms"},
	{"go.gc_pause_ms.total", "ms"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb_per_s", "MB/s"},
	{"gen.lag_ms.p99", "ms"},
	{"gen.failed_share", "ratio"},
	{"graph.self_share", "ratio"},
	{"part.self_share", "ratio"},
	{"core.self_share", "ratio"},
	{"walk.self_share", "ratio"},
	{"pool.self_share", "ratio"},
	{"ooc.self_share", "ratio"},
	{"serve.self_share", "ratio"},
	{"dyn.self_share", "ratio"},
	{"shard.self_share", "ratio"},
	{"gen.self_share", "ratio"},
	{"trace.residual_share", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead.setup_s", "s"},
	{"trace.overhead.peak_rss_mb", "MB"},
	{"trace.overhead.ns_per_step", "ns"},
	{"trace.overhead.cpu_ns_per_step", "ns"},
}

// layers are the span layers whose self time the traced run reports,
// in catalogue order.
var layers = []string{"graph", "part", "core", "walk", "pool", "ooc", "serve", "dyn", "shard", "gen"}

// zeroLayers presets every per-layer metric to 0, so a workload reports
// only what its layers measure.
func zeroLayers(r *run) {
	for _, m := range perLayer {
		r.values[m.Name] = 0
	}
}

package main

// The metric and workload names below are the benchmark's public contract:
// BENCHMARK.json lists exactly these (bench_test.go pins the agreement) and
// every later issue states its prediction in them.

// Workload names.
const (
	wlSweepCold    = "sweep_cold"
	wlScaleCold    = "scale_cold"
	wlServeHitMem  = "serve_hit_mem"
	wlServeHitDisk = "serve_hit_disk"
)

var workloadNames = []string{wlSweepCold, wlScaleCold, wlServeHitMem, wlServeHitDisk}

// metricDef describes one reported metric. Exact marks simulated-time values
// and event counts, which must repeat bit-for-bit between runs of one build.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Exact  bool
}

// endToEnd is printed by an untraced run (-trace 0). Host time throughout.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer is printed by a traced run (-trace 1). Ungated.
var perLayer = []metricDef{
	// sim: one replayed cold cell per regime (.sat = homo-1/equal, .light =
	// homo-6/equal, .x4 = hetero-1 x4 at 4x bandwidth), host time per step.
	{Name: "sim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.warmup_ms.x4", Unit: "ms", Better: "lower"},
	{Name: "sim.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "sim.snapshot_us.x4", Unit: "us", Better: "lower"},
	{Name: "sim.fork_us", Unit: "us", Better: "lower"},
	{Name: "sim.fork_us.x4", Unit: "us", Better: "lower"},
	{Name: "sim.run_ns_per_cycle.sat", Unit: "ns/cycle", Better: "lower"},
	{Name: "sim.run_ns_per_cycle.light", Unit: "ns/cycle", Better: "lower"},
	{Name: "sim.run_ns_per_cycle.x4", Unit: "ns/cycle", Better: "lower"},
	{Name: "sim.profile_alone_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.bus_util.sat", Unit: "frac", Better: "higher", Exact: true},
	{Name: "sim.total_apc.sat", Unit: "acc/cycle", Better: "higher", Exact: true},
	{Name: "sim.table3_class_matches", Unit: "count", Better: "higher", Exact: true},

	// Component layers, standalone drivers against stub ports.
	{Name: "cpu.tick_ns.dispatch", Unit: "ns", Better: "lower"},
	{Name: "cpu.tick_ns.stalled", Unit: "ns", Better: "lower"},
	{Name: "cache.access_ns.hit", Unit: "ns", Better: "lower"},
	{Name: "cache.access_ns.miss", Unit: "ns", Better: "lower"},
	{Name: "memctrl.tick_ns.sat4", Unit: "ns", Better: "lower"},
	{Name: "memctrl.tick_ns.sat16", Unit: "ns", Better: "lower"},
	{Name: "dram.issue_ns.rowhit", Unit: "ns", Better: "lower"},
	{Name: "dram.issue_ns.conflict", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "event.pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.l2_miss_rate.sat", Unit: "frac", Better: "lower", Exact: true},
	{Name: "memctrl.interference_cycles.sat", Unit: "cycles", Better: "lower", Exact: true},

	// core: model accuracy over the Table IV grid, and scheme installation.
	{Name: "core.model_err_mean_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "core.model_err_max_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "core.apply_scheme_us", Unit: "us", Better: "lower"},

	// exper: engine costs (probes) and the workload's own stage/cache account.
	{Name: "exper.newrunner_us", Unit: "us", Better: "lower"},
	{Name: "exper.alone_ms_per_bench", Unit: "ms", Better: "lower"},
	{Name: "exper.runmix_cold_ms.first", Unit: "ms", Better: "lower"},
	{Name: "exper.runmix_cold_ms.fork", Unit: "ms", Better: "lower"},
	{Name: "exper.stage_profile_s", Unit: "s", Better: "lower"},
	{Name: "exper.stage_warmup_s", Unit: "s", Better: "lower"},
	{Name: "exper.stage_settle_s", Unit: "s", Better: "lower"},
	{Name: "exper.stage_measure_s", Unit: "s", Better: "lower"},
	{Name: "exper.stage_coverage_frac", Unit: "frac", Better: "higher"},
	{Name: "exper.grid_parallel_eff", Unit: "frac", Better: "higher"},
	{Name: "exper.runmix_hit_us", Unit: "us", Better: "lower"},
	{Name: "exper.runmix_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "exper.rungrid_hit_us.wide", Unit: "us", Better: "lower"},
	{Name: "exper.ckpt_load_us", Unit: "us", Better: "lower"},
	{Name: "exper.ckpt_file_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "exper.ckpt_save_us", Unit: "us", Better: "lower"},
	{Name: "exper.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "exper.cache_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "exper.ckpt_hits", Unit: "count", Better: "lower", Exact: true},
	{Name: "exper.warm_forks", Unit: "count", Better: "higher", Exact: true},
	{Name: "exper.prepared_evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "exper.cache_bytes", Unit: "B", Better: "lower", Exact: true},

	// serve: hit path in-process and over loopback, boot, cold requests.
	{Name: "serve.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_hit_us.disk", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "serve.hit_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.journal_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "serve.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.boot_ms.after_run", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_latency_p50_ms.first", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_latency_p50_ms.fork", Unit: "ms", Better: "lower"},
	{Name: "serve.c2_over_c1", Unit: "ratio", Better: "higher"},
	{Name: "serve.metrics_scrape_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_max", Unit: "count", Better: "lower"},

	// obs / Go runtime / the tracer itself.
	{Name: "obs.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "go.allocs_per_cell", Unit: "count", Better: "lower"},
	{Name: "go.bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "go.num_gc", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "higher"},
}

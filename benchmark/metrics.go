package main

// metricDef names one metric. The tables below are the single source of
// the names, units and bounds; BENCHMARK.json repeats them for the
// driver and a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	bound float64
	// gated marks the end-to-end metrics listed in BENCHMARK.json, which
	// the driver holds every later change to. The driver's contract is
	// that every run of every workload prints every listed metric and
	// that ten runs of one commit agree within the bound, so a metric is
	// gated only if every workload has samples for it and it repeats on
	// the shared two-core box the bounds were fixed on. Wall-clock rates
	// and latencies do not (README.md has the measured spreads); they are
	// printed by every run, judged by -compare, and repeated in the
	// per-layer list as host.*, which carries no bound.
	gated bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"ops_per_s", "keys/s", "higher", 0.10, false},
	{"lookup_p50_us", "us", "lower", 0.10, false},
	{"lookup_p99_us", "us", "lower", 0.25, false},
	{"update_p50_us", "us", "lower", 0.10, false},
	{"update_p99_us", "us", "lower", 0.25, false},
	{"allocs_per_op", "allocs", "lower", 0.02, true},
	{"bytes_per_op", "B", "lower", 0.02, true},
	{"ios_per_op", "steps", "lower", 0.02, true},
	{"space_amp", "ratio", "lower", 0.02, false},
	{"heap_live_mb", "MB", "lower", 0.05, true},
	{"failed_share", "ratio", "lower", 0, false},
}

func endToEndDef(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// perLayer lists the traced pass's metrics, grouped by the layer whose
// exported functions are timed. Every traced run prints every one of
// them; a layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	// expander: Family.Neighbors at the dictionary's degree.
	{name: "expander.neighbors_ns", unit: "ns", better: "lower"},
	{name: "expander.neighbors_allocs", unit: "allocs", better: "lower"},
	{name: "expander.calls_per_op", unit: "count", better: "lower"},

	// bucket: the block codec on the blocks the workload's reads return.
	{name: "bucket.decode_ns", unit: "ns", better: "lower"},
	{name: "bucket.decode_allocs", unit: "allocs", better: "lower"},
	{name: "bucket.find_ns", unit: "ns", better: "lower"},
	{name: "bucket.encode_ns", unit: "ns", better: "lower"},
	{name: "bucket.append_ns", unit: "ns", better: "lower"},
	{name: "bucket.records_examined_per_hit", unit: "count", better: "lower"},

	// pdm: the simulated machine, replaying captured addresses.
	{name: "pdm.batchread_d_ns", unit: "ns", better: "lower"},
	{name: "pdm.batchread_d_allocs", unit: "allocs", better: "lower"},
	{name: "pdm.batchread_d_bytes", unit: "B", better: "lower"},
	{name: "pdm.batchread_wide_ns", unit: "ns", better: "lower"},
	{name: "pdm.batchwrite_d_ns", unit: "ns", better: "lower"},
	{name: "pdm.trybatchread_d_ns", unit: "ns", better: "lower"},
	{name: "pdm.batchread_shared_ns", unit: "ns", better: "lower"},
	{name: "pdm.noop_hook_ns", unit: "ns", better: "lower"},
	{name: "pdm.contended_ns", unit: "ns", better: "lower"},
	{name: "pdm.contention_factor", unit: "ratio", better: "lower"},
	{name: "pdm.verify_ns_per_block", unit: "ns", better: "lower"},
	{name: "pdm.blocks_per_op", unit: "count", better: "lower"},
	{name: "pdm.steps_per_op", unit: "steps", better: "lower"},
	{name: "pdm.max_batch_depth", unit: "count", better: "lower"},
	{name: "pdm.space_amp", unit: "ratio", better: "lower"},
	{name: "pdm.retries_per_op", unit: "count", better: "lower"},
	{name: "pdm.hedges_per_op", unit: "count", better: "lower"},
	{name: "pdm.fallback_share", unit: "ratio", better: "lower"},

	// core: the paper's structures, each on a small fixture.
	{name: "core.basic.lookup_ns", unit: "ns", better: "lower"},
	{name: "core.basic.lookup_allocs", unit: "allocs", better: "lower"},
	{name: "core.basic.lookup_bytes", unit: "B", better: "lower"},
	{name: "core.basic.lookupbatch64_ns", unit: "ns", better: "lower"},
	{name: "core.basic.lookupbatch64_allocs", unit: "allocs", better: "lower"},
	{name: "core.basic.lookuptry_ns", unit: "ns", better: "lower"},
	{name: "core.basic.self_ns", unit: "ns", better: "lower"},
	{name: "core.basic.max_load_ratio", unit: "ratio", better: "lower"},
	{name: "core.dynamic.lookup_ns", unit: "ns", better: "lower"},
	{name: "core.dynamic.insert_ns", unit: "ns", better: "lower"},
	{name: "core.dynamic.self_ns", unit: "ns", better: "lower"},
	{name: "core.dict.insert_ns", unit: "ns", better: "lower"},
	{name: "core.dict.delete_ns", unit: "ns", better: "lower"},
	{name: "core.dict.rebuilds", unit: "count", better: "lower"},
	{name: "core.dict.rebuild_share", unit: "ratio", better: "lower"},
	{name: "core.oneprobe.lookup_ns", unit: "ns", better: "lower"},
	{name: "core.static.lookup_ns", unit: "ns", better: "lower"},

	// obs: each hook consumer fed the captured event stream directly.
	{name: "obs.collector_ns", unit: "ns", better: "lower"},
	{name: "obs.collector_allocs", unit: "allocs", better: "lower"},
	{name: "obs.accountant_ns", unit: "ns", better: "lower"},
	{name: "obs.accountant_allocs", unit: "allocs", better: "lower"},
	{name: "obs.monitor_ns", unit: "ns", better: "lower"},
	{name: "obs.monitor_allocs", unit: "allocs", better: "lower"},
	{name: "obs.jsonl_ns", unit: "ns", better: "lower"},
	{name: "obs.jsonl_allocs", unit: "allocs", better: "lower"},
	{name: "obs.ring_ns", unit: "ns", better: "lower"},
	{name: "obs.ring_allocs", unit: "allocs", better: "lower"},
	{name: "obs.spanfolder_ns", unit: "ns", better: "lower"},
	{name: "obs.spanfolder_allocs", unit: "allocs", better: "lower"},
	{name: "obs.events_per_op", unit: "count", better: "lower"},
	{name: "obs.chain_ns_per_op", unit: "ns", better: "lower"},
	{name: "obs.chain_allocs_per_op", unit: "allocs", better: "lower"},
	{name: "obs.hooked_ratio", unit: "ratio", better: "lower"},

	// sched: the group-commit scheduler.
	{name: "sched.lookup_1c_ns", unit: "ns", better: "lower"},
	{name: "sched.overhead_ns", unit: "ns", better: "lower"},
	{name: "sched.coalesce_factor", unit: "ratio", better: "higher"},
	{name: "sched.window_occupancy", unit: "ratio", better: "higher"},
	{name: "sched.steps_per_op", unit: "steps", better: "lower"},
	{name: "sched.dedup_share", unit: "ratio", better: "higher"},
	{name: "sched.insert_ns", unit: "ns", better: "lower"},
	{name: "sched.intentlog_append_ns", unit: "ns", better: "lower"},
	{name: "sched.replay_ns_per_intent", unit: "ns", better: "lower"},
	{name: "sched.overloaded", unit: "count", better: "lower"},

	// fault and heal.
	{name: "fault.access_ns", unit: "ns", better: "lower"},
	{name: "heal.repair_ns_per_block", unit: "ns", better: "lower"},
	{name: "heal.repair_steps", unit: "steps", better: "lower"},
	{name: "heal.scrub_ns_per_block", unit: "ns", better: "lower"},

	// pdmdict: the root package's wrappers and persistence.
	{name: "pdmdict.sync_lookup_ns", unit: "ns", better: "lower"},
	{name: "pdmdict.named_lookup_ns", unit: "ns", better: "lower"},
	{name: "pdmdict.save_ns_per_record", unit: "ns", better: "lower"},
	{name: "pdmdict.load_ns_per_record", unit: "ns", better: "lower"},
	{name: "pdmdict.snapshot_bytes_per_record", unit: "B", better: "lower"},
	{name: "pdmdict.bulkload_ns_per_record", unit: "ns", better: "lower"},
	{name: "pdmdict.scale_nproc", unit: "ratio", better: "higher"},

	// baselines: reference rows only.
	{name: "hashing.table_lookup_ns", unit: "ns", better: "lower"},
	{name: "hashing.cuckoo_lookup_ns", unit: "ns", better: "lower"},
	{name: "btree.lookup_ns", unit: "ns", better: "lower"},

	// host: the Go runtime under the workload, the cost of tracing, and
	// the end-to-end metrics that are not gated, from the traced run's
	// untraced reference pass.
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
	{name: "host.ops_per_s", unit: "keys/s", better: "higher"},
	{name: "host.lookup_p50_us", unit: "us", better: "lower"},
	{name: "host.lookup_p99_us", unit: "us", better: "lower"},
	{name: "host.update_p50_us", unit: "us", better: "lower"},
	{name: "host.update_p99_us", unit: "us", better: "lower"},
}

package main

// metric names one reported number. Later issues refer to metrics by these
// names; BENCHMARK.json lists the same names (bench_test.go checks that).
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

// endToEnd is what a user of the partitioner sees, per workload. The
// failure count is not a metric here: it travels in the result line's
// attempted/failed fields and any failure makes the run incorrect.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p75_ms", "ms", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"imbalance_max", "ratio", "lower", 0.02},
	{"comm_volume", "count", "lower", 0.02},
	{"migrated_frac", "ratio", "lower", 0.05},
}

// perLayer is one traced pass's view of the layers a request crosses. A
// workload that does not cross a layer reports 0 for it.
var perLayer = []metric{
	{Name: "sfc.keys_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "dsort.local_sort_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "dsort.sort_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "core.scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ingest_ms", Unit: "ms", Better: "lower"},

	{Name: "geom.dist2_batch_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "geom.assign_full_ns_per_pc", Unit: "ns", Better: "lower"},
	{Name: "geom.assign_bounded_ns_per_point", Unit: "ns", Better: "lower"},

	{Name: "core.kmeans_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.balance_rounds", Unit: "count", Better: "lower"},
	{Name: "core.dist_calcs_per_point", Unit: "count", Better: "lower"},
	{Name: "core.skip_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.boundary_frac", Unit: "ratio", Better: "lower"},

	{Name: "exact.rowsums_add_ns", Unit: "ns", Better: "lower"},
	{Name: "exact.sum_add_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.alltoallcols_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "mpi.collectives_per_op", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "mpi.barriers_per_op", Unit: "count", Better: "lower"},

	{Name: "repart.new_session_ms", Unit: "ms", Better: "lower"},
	{Name: "repart.cold_partition_ms", Unit: "ms", Better: "lower"},
	{Name: "repart.step_ms", Unit: "ms", Better: "lower"},
	{Name: "repart.update_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "repart.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "repart.alloc_kb_per_step", Unit: "KB", Better: "lower"},
	{Name: "repart.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "repart.checkpoint_mb", Unit: "MB", Better: "lower"},
	{Name: "repart.restore_ms", Unit: "ms", Better: "lower"},

	{Name: "sched.foreach_us", Unit: "us", Better: "lower"},

	{Name: "serve.registry_step_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_weights_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_repartition_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_assign_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.json_decode_weights_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.json_encode_assign_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.evict_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.restore_step_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.restores", Unit: "count", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_mb", Unit: "MB", Better: "lower"},

	// Counts-only cell at 64 ranks (warm_stream3d's traced pass).
	{Name: "mpi.allocs_per_step_p64", Unit: "count", Better: "lower"},
	{Name: "mpi.collectives_per_step_p64", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_step_p64", Unit: "B", Better: "lower"},

	// Diagnostics: reported, never compared.
	{Name: "mesh.inputgen_s", Unit: "s", Better: "lower"},
	{Name: "metrics.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "host.pass_spread", Unit: "ratio", Better: "lower"},
}

package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (the benchmark's test checks they agree);
// deterministic marks the metrics that are a pure function of the seed.
type metricDef struct {
	name, unit, better string
	deterministic      bool
}

// endToEnd is what a user of the simulator sees: throughput at a stated
// input size, set-up time, memory, and the simulated viewers' outcomes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false},
	{"viewer_s_per_s", "viewer-s/s", "higher", false},
	{"peak_rss_mb", "MB", "lower", false},
	{"locality", "ratio", "higher", true},
	{"swarm_locality", "ratio", "higher", true},
	{"continuity_p50", "ratio", "higher", true},
	{"continuity_tail", "ratio", "higher", true},
	{"startup_p50_s", "s", "lower", true},
	{"startup_tail_s", "s", "lower", true},
}

// perLayer is printed by the traced run, grouped by the layer it measures.
var perLayer = []metricDef{
	// core
	{"heap_after_build_mb", "MB", "lower", false},
	// eventsim
	{"events", "count", "lower", true},
	{"events_per_s", "1/s", "higher", false},
	{"timers_pending_peak", "count", "lower", true},
	// simnet barrier hook
	{"windows", "count", "lower", true},
	{"window_us_p50", "us", "lower", false},
	{"window_us_tail", "us", "lower", false},
	{"events_per_window_p50", "count", "higher", true},
	{"domain_imbalance", "ratio", "lower", true},
	{"parallel_speedup", "ratio", "higher", false},
	// underlay
	{"net_delivered", "count", "lower", true},
	{"net_drop_queue_frac", "ratio", "lower", true},
	{"net_drop_loss", "count", "lower", true},
	{"net_drop_nohost", "count", "lower", true},
	// peer (full-protocol clients)
	{"data_requests", "count", "lower", true},
	{"data_reply_ratio", "ratio", "higher", true},
	{"data_timeouts", "count", "lower", true},
	{"data_busies", "count", "lower", true},
	{"dup_recv_ratio", "ratio", "lower", true},
	{"handshake_accept_ratio", "ratio", "higher", true},
	{"tracker_queries", "count", "lower", true},
	{"gossip_sent", "count", "lower", true},
	{"keepalive_evictions", "count", "lower", true},
	{"channel_switches", "count", "higher", true},
	// peer (flow swarms)
	{"flow_alive", "count", "higher", true},
	{"peers_spawned", "count", "higher", true},
	// cdn
	{"edge_served", "count", "higher", true},
	{"edge_bytes", "B", "higher", true},
	{"edge_shed_ratio", "ratio", "lower", true},
	// analysis
	{"report_s", "s", "lower", false},
	{"unanswered_data", "count", "lower", true},
	{"unanswered_lists", "count", "lower", true},
	// Go runtime
	{"alloc_bytes_per_event", "B/event", "lower", false},
	{"allocs_per_event", "1/event", "lower", false},
	{"gc_cycles", "count", "lower", false},
	{"gc_pause_ms", "ms", "lower", false},
	{"heap_peak_mb", "MB", "lower", false},
	// phases
	{"warmup_wall_s", "s", "lower", false},
	{"watch_wall_s", "s", "lower", false},
	// tracing itself
	{"traced_viewer_s_per_s", "viewer-s/s", "higher", false},
	{"trace_overhead", "ratio", "lower", false},
	{"viewer_samples", "count", "higher", true},
}

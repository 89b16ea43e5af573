package main

// layerMetric is one per-layer metric of the --trace 1 ledger.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in BENCHMARK.json order. A
// traced run prints all of them; a metric of a layer the workload does
// not exercise reads 0 (README.md says which workload measures which).
func perLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit string) { out = append(out, layerMetric{name, unit}) }
	for _, c := range sweepCells {
		add("faultsim."+c.id+".trials_per_s", "1/s")
		add("faultsim."+c.id+".run_ns_per_trial", "ns")
		add("faultsim."+c.id+".self_ns_per_trial", "ns")
		add(c.arrivalLayer()+"."+c.id+".append_ns_per_trial", "ns")
		add(c.arrivalLayer()+"."+c.id+".faults_per_trial", "count")
		if c.swapAndSpare {
			add("tsv."+c.id+".apply_calls", "count")
			add("tsv."+c.id+".apply_ns", "ns")
			add("tsv."+c.id+".reset_ns", "ns")
			add("tsv."+c.id+".repaired_ratio", "ratio")
		}
		add("ecc."+c.id+".add_calls", "count")
		add("ecc."+c.id+".add_ns", "ns")
		add("ecc."+c.id+".remove_ns", "ns")
		if c.swapAndSpare {
			add("sparing."+c.id+".offer_calls", "count")
			add("sparing."+c.id+".offer_ns", "ns")
			add("sparing."+c.id+".spared_ratio", "ratio")
		}
	}
	add("faultsim.scaling_efficiency", "ratio")
	add("faultsim.merge_us", "us")
	for _, m := range []layerMetric{
		{"jobs.queue_wait_ms_p50", "ms"}, {"jobs.run_ms_p50", "ms"}, {"jobs.run_chunk_ms", "ms"},
		{"jobs.overhead_share", "ratio"}, {"jobs.unattributed_share", "ratio"},
		{"jobs.checkpoints", "count"}, {"jobs.cache_hits", "count"},
		{"store.put_job_ms", "ms"}, {"store.put_result_ms", "ms"}, {"store.get_result_us", "us"},
		{"stream.publish_us", "us"}, {"stream.terminal_lag_ms", "ms"}, {"stream.frames", "count"}, {"stream.coalesced", "count"},
		{"api.submit_ms_p50", "ms"}, {"api.status_304_ms_p50", "ms"}, {"api.cache_hit_p50_ms", "ms"}, {"api.requests", "count"},
		{"cluster.lease_rtt_ms_p50", "ms"}, {"cluster.complete_rtt_ms_p50", "ms"}, {"cluster.first_lease_ms_p50", "ms"},
		{"cluster.leases", "count"}, {"cluster.heartbeats", "count"}, {"cluster.chunks_completed", "count"},
		{"cluster.wasted_ratio", "ratio"}, {"cluster.reassignments", "count"},
		{"workload.generate_ns_per_request", "ns"},
	} {
		add(m.name, m.unit)
	}
	for _, c := range perfConfigs {
		p := "perfsim." + c.id
		add(p+".requests_per_s", "1/s")
		add(p+".sim_cycles", "cycles")
		add(p+".row_hit_rate", "ratio")
		add(p+".avg_read_latency_cycles", "cycles")
		add(p+".queue_cycles", "cycles")
		add(p+".activate_cycles", "cycles")
		add(p+".bus_cycles", "cycles")
		add(p+".burst_cycles", "cycles")
		add("power."+c.id+".active_w", "W")
	}
	add("cache.parity_access_ns", "ns")
	add("cache.parity_hit_rate", "ratio")
	add("trace_overhead_ratio", "ratio")
	return out
}

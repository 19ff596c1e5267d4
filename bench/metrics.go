package main

// metricDef is one entry of BENCHMARK.json's metric lists. The tables
// below are the single definition; TestBenchmarkJSON holds the file to
// them.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

func (d metricDef) higherBetter() bool { return d.better == "higher" }

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. fail_ratio is printed beside them but is not
// in this list: it is 0 on every workload by construction and its bound
// is absolute (any failed op fails the run), which the result line's
// attempted/failed/correct fields carry instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"unit_p50_ms", "ms", "lower", 0.25},
	{"unit_tail_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"alloc_kb_per_op", "KiB", "lower", 0.03},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayerDefs are the metrics of single layers, reported by every
// workload's traced run. A metric that does not exist on a workload
// (no daemon, no open loop, no edge in the path, no access to the
// registry) reads 0 there.
var perLayerDefs = []metricDef{
	{name: "ranges.parse_ns", unit: "ns", better: "lower"},
	{name: "ranges.parse_alloc_b", unit: "B", better: "lower"},
	{name: "httpwire.req_rt_ns", unit: "ns", better: "lower"},
	{name: "httpwire.resp_read_mb_s", unit: "MiB/s", better: "higher"},
	{name: "httpwire.resp_write_mb_s", unit: "MiB/s", better: "higher"},
	{name: "httpwire.resp_alloc_ratio", unit: "ratio", better: "lower"},
	{name: "httpwire.resp_alloc_ratio_25m", unit: "ratio", better: "lower"},
	{name: "multipart.encode_mb_s", unit: "MiB/s", better: "higher"},
	{name: "multipart.encoded_size_ns", unit: "ns", better: "lower"},
	{name: "resource.synthetic_ns", unit: "ns", better: "lower"},
	{name: "resource.slice_ns", unit: "ns", better: "lower"},
	{name: "origin.handle_small_ns", unit: "ns", better: "lower"},
	{name: "origin.handle_full1m_ns", unit: "ns", better: "lower"},
	{name: "origin.handle_obr_ns", unit: "ns", better: "lower"},
	{name: "origin.handle_alloc_b", unit: "B", better: "lower"},
	{name: "netsim.pipe_mb_s", unit: "MiB/s", better: "higher"},
	{name: "netsim.dial_ns", unit: "ns", better: "lower"},
	{name: "netsim.smallmsg_rt_ns", unit: "ns", better: "lower"},
	{name: "cache.get_hit_ns", unit: "ns", better: "lower"},
	{name: "cache.put_evict_ns", unit: "ns", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cdn.handle_hit_ns", unit: "ns", better: "lower"},
	{name: "cdn.handle_miss_ns", unit: "ns", better: "lower"},
	{name: "cdn.upstream_fetches_per_req", unit: "ratio", better: "lower"},
	{name: "cdn.upstream_dials_per_req", unit: "ratio", better: "lower"},
	{name: "transport.conn_setup_us", unit: "us", better: "lower"},
	{name: "transport.origin_direct_p50_us", unit: "us", better: "lower"},
	{name: "proc.cdnsim_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "proc.origind_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "proc.loadgen_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "proc.cpu_busy_ratio", unit: "ratio", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "vtime.sched_events_s", unit: "1/s", better: "higher"},
	{name: "vtime.replay_clients_s", unit: "1/s", better: "higher"},
	{name: "vtime.link_transfers_s", unit: "1/s", better: "higher"},
	{name: "vtime.calibrate_ms", unit: "ms", better: "lower"},
	{name: "vtime.alloc_b_per_client", unit: "B", better: "lower"},
	{name: "core.sbr_topology_setup_us", unit: "us", better: "lower"},
	{name: "core.obr_topology_setup_us", unit: "us", better: "lower"},
	{name: "core.sbr_1m_ms", unit: "ms", better: "lower"},
	{name: "campaign.expand_ms", unit: "ms", better: "lower"},
	{name: "campaign.cell_sbr_ms", unit: "ms", better: "lower"},
	{name: "campaign.cell_flood_pipe_ms", unit: "ms", better: "lower"},
	{name: "campaign.cell_flood_vtime_ms", unit: "ms", better: "lower"},
	{name: "campaign.cell_obr_ms", unit: "ms", better: "lower"},
	{name: "campaign.bytes_written_per_cell", unit: "B", better: "lower"},
	{name: "campaign.resume_cells_s", unit: "1/s", better: "higher"},
	{name: "exp.table1_ms", unit: "ms", better: "lower"},
	{name: "exp.table2_ms", unit: "ms", better: "lower"},
	{name: "exp.table3_ms", unit: "ms", better: "lower"},
	{name: "exp.sbr_ms", unit: "ms", better: "lower"},
	{name: "exp.obr_ms", unit: "ms", better: "lower"},
	{name: "exp.bandwidth_ms", unit: "ms", better: "lower"},
	{name: "exp.bandwidth-all_ms", unit: "ms", better: "lower"},
	{name: "exp.mitigation_ms", unit: "ms", better: "lower"},
	{name: "exp.corpus_ms", unit: "ms", better: "lower"},
	{name: "exp.cost_ms", unit: "ms", better: "lower"},
	{name: "exp.h2_ms", unit: "ms", better: "lower"},
	{name: "exp.nodes_ms", unit: "ms", better: "lower"},
	{name: "exp.vtimeflood_ms", unit: "ms", better: "lower"},
	{name: "metrics.snapshot_us", unit: "us", better: "lower"},
	{name: "trace.spans_per_req", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "hop.client_self_us", unit: "us", better: "lower"},
	{name: "hop.edge_self_us", unit: "us", better: "lower"},
	{name: "hop.origin_self_us", unit: "us", better: "lower"},
}

// workloads are the benchmark's seven named sets of inputs, in the
// order they run. Later issues refer to them by name.
var workloads = []*workload{expAll, pipeSmall, obrCascade, vtimeFlood, campaignSweep, tcpMiss, tcpHit}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

package main

import "encoding/json"

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metric and workload a change to this
	// layer should move (per-layer metrics only), so later work can cite
	// the row by name.
	Moves string `json:"moves,omitempty"`
}

// endToEnd is what a user of the reproduction sees, measured untraced.
// Every workload reports every one. A "unit" is one result-producing
// run: a mesh run (mesh-hub), or one cold sweep plus warm resume
// (sched-sweep).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "pkts_per_s", Unit: "packets/s", Better: "higher"},
	{Name: "allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer is the traced ledger. Layer names are the internal/ package
// names. A layer a workload's traced run does not reach reports 0 there.
var perLayer = []metricDef{
	{"sim.events_per_pkt", "count", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"sim.self_ns_per_event", "ns", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"sim.pending_p50", "count", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"sim.pending_max", "count", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"sim.self_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"tcp.ack_self_ns_p50", "ns", "lower", "pkts_per_s@sched-sweep; little change@mesh-hub"},
	{"tcp.ack_self_ns_p99", "ns", "lower", "pkts_per_s@sched-sweep; little change@mesh-hub"},
	{"tcp.rcv_self_ns_per_pkt", "ns", "lower", "pkts_per_s@sched-sweep; little change@mesh-hub"},
	{"tcp.sack_blocks_per_ack", "count", "lower", "pkts_per_s@sched-sweep; little change@mesh-hub"},
	{"tcp.retx_frac", "ratio", "lower", "pkts_per_s@sched-sweep; little change@mesh-hub"},
	{"tcp.self_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"netem.link_self_ns_per_pkt", "ns", "lower", "pkts_per_s@sched-sweep"},
	{"netem.demux_self_ns_per_pkt", "ns", "lower", "pkts_per_s@sched-sweep"},
	{"netem.bottleneck_qdelay_ms_p50", "ms", "lower", "pkts_per_s@sched-sweep"},
	{"netem.bottleneck_qdelay_ms_p99", "ms", "lower", "pkts_per_s@sched-sweep"},
	{"netem.drop_frac", "ratio", "lower", "pkts_per_s@sched-sweep"},
	{"netem.self_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"qdisc.sfq.enq_ns_p50", "ns", "lower", "wall_s@mesh-hub; wall_s@sched-sweep"},
	{"qdisc.sfq.deq_ns_p50", "ns", "lower", "wall_s@mesh-hub; wall_s@sched-sweep"},
	{"qdisc.fifo.enq_ns_p50", "ns", "lower", "wall_s@mesh-hub; wall_s@sched-sweep"},
	{"qdisc.fifo.deq_ns_p50", "ns", "lower", "wall_s@mesh-hub; wall_s@sched-sweep"},
	{"qdisc.wfq.enq_ns_p50", "ns", "lower", "wall_s@sched-sweep"},
	{"qdisc.wfq.deq_ns_p50", "ns", "lower", "wall_s@sched-sweep"},
	{"qdisc.sp.enq_ns_p50", "ns", "lower", "wall_s@sched-sweep"},
	{"qdisc.sp.deq_ns_p50", "ns", "lower", "wall_s@sched-sweep"},
	{"qdisc.sendbox_depth_p99", "packets", "lower", "wall_s@mesh-hub; wall_s@sched-sweep"},
	{"qdisc.work_conservation", "ratio", "higher", "must stay 1@sched-sweep"},
	{"qdisc.self_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"bundle.sendbox_self_ns_per_pkt", "ns", "lower", "wall_s@mesh-hub"},
	{"bundle.tick_self_us_p50", "us", "lower", "wall_s@mesh-hub"},
	{"bundle.ctl_pkts_per_kpkt", "count", "lower", "wall_s@mesh-hub"},
	{"bundle.sendbox_qdelay_ms_p50", "ms", "lower", "wall_s@mesh-hub"},
	{"bundle.self_ms", "ms", "lower", "wall_s@mesh-hub; wall_s@sched-sweep"},
	{"workload.self_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"pkt.live_max", "packets", "lower", "peak_rss_mb@mesh-hub; peak_rss_mb@sched-sweep"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"runtime.gc_pause_ms", "ms", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"runtime.heap_peak_mb", "MB", "lower", "wall_s@sched-sweep; wall_s@mesh-hub"},
	{"scenario.build_ms", "ms", "lower", "setup_s@mesh-hub"},
	{"scenario.self_ms", "ms", "lower", "setup_s@mesh-hub"},
	{"shard.parallel_eff", "ratio", "higher", "wall_s@mesh-hub; no change@sched-sweep"},
	{"shard.xfer_per_pkt", "count", "lower", "wall_s@mesh-hub; no change@sched-sweep"},
	{"shard.self_ms", "ms", "lower", "wall_s@mesh-hub"},
	{"exp.cell_p50_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"exp.cell_p90_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"exp.worker_busy_frac", "ratio", "higher", "wall_s@sched-sweep"},
	{"exp.tail_idle_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"exp.self_ms", "ms", "lower", "wall_s@sched-sweep"},
	{"runstore.save_ms_p50", "ms", "lower", "wall_s@sched-sweep"},
	{"runstore.save_ms_p99", "ms", "lower", "wall_s@sched-sweep"},
	{"runstore.load_ms_p50", "ms", "lower", "wall_s@sched-sweep"},
	{"runstore.hit_frac", "ratio", "higher", "wall_s@sched-sweep"},
	{"runstore.bytes_per_cell", "B", "lower", "wall_s@sched-sweep"},
	{"topo.load_ms", "ms", "lower", "setup_s@sched-sweep"},
	{"topo.self_ms", "ms", "lower", "setup_s@sched-sweep"},
	{"trace.overhead_frac", "ratio", "lower", "none: traced wall / untraced wall - 1, per workload"},
	{"trace.wall_ms", "ms", "lower", "wall_s of the same workload"},
	{"trace.unattributed_ms", "ms", "lower", "none: traced time no layer span covers"},
}

// workloadDef is one workload and the reason it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads lists the program's workloads, with the lines BENCHMARK.json
// gives them.
var workloads = []workloadDef{
	{"mesh-hub", "32-site hub mesh, 992 bundles with SFQ re-keying at shards=auto: per-bundle state, cross-partition transfers and barriers load shard, qdisc and runtime"},
	{"sched-sweep", "144-cell fifo/sp/wfq megasweep, cold into a fresh run store then warm resume: topo compile, classful qdiscs, GC, worker-pool tail, runstore"},
}

// heldOutSeed is reserved for checking a claimed gain on a seed no one
// tuned against; development runs use other seeds.
const heldOutSeed = 7919

// describeLedger renders ledger.json: the workloads and why each was chosen,
// both metric tables with each per-layer row's should-move target, and
// the held-out seed.
func describeLedger() []byte {
	b, err := json.MarshalIndent(struct {
		HeldOutSeed int64         `json:"held_out_seed"`
		Workloads   []workloadDef `json:"workloads"`
		EndToEnd    []metricDef   `json:"end_to_end"`
		PerLayer    []metricDef   `json:"per_layer"`
	}{heldOutSeed, workloads, endToEnd, perLayer}, "", "  ")
	if err != nil {
		panic(err) // static tables always marshal
	}
	return append(b, '\n')
}

package main

// The metric and workload catalog. BENCHMARK.json at the repository
// root mirrors these tables (names, units, directions, bounds, and the
// one-line reason for each workload); the self-test fails when the two
// drift apart. Moves records, for each per-layer metric, which
// end-to-end metric it should move and on which workload — the
// prediction a change to that layer is judged against.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Moves  string  // per-layer only: end-to-end metric → workload(s) it should move
}

type workloadSpec struct {
	Name string
	Why  string
	Run  func(*run) error
}

var workloads = []workloadSpec{
	{"sim_fine", "simulator engine, dispatch and core pick/LoadIndex alone: 10k servers, Fine-Grain trace at rho 0.9, Poll(2)", runSimFine},
	{"mem_zero", "per-access CPU cost on the mem fabric: poll fan-out, codecs, node queue/worker and Client.Access, zero service time", runMemZero},
	{"mem_fine90", "decision quality under queueing: open-loop Poisson arrivals, Fine-Grain service at rho 0.9 on the mem fabric", runMemFine90},
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "accesses_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "access_mean_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "access_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "access_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// gatewayMoves is the prediction for the gateway and net-transport
// metrics. Their end-to-end workload, POST /access through the gateway
// over loopback TCP, is not gated: its throughput is set by wake-up
// latency on the host, and two sets of runs of the same code moved its
// median by more than any allowed bound.
const gatewayMoves = "no gated workload: measured by the gateway and net transport rungs only"

var perLayer = []metricSpec{
	{Name: "gateway.http_us.p50", Unit: "us", Better: "lower", Moves: gatewayMoves},
	{Name: "gateway.self_us.p50", Unit: "us", Better: "lower", Moves: gatewayMoves},
	{Name: "gateway.allocs_per_req", Unit: "count", Better: "lower", Moves: gatewayMoves},
	{Name: "gateway.reject_frac", Unit: "ratio", Better: "lower", Moves: gatewayMoves},

	{Name: "cluster.client.access_us.p50", Unit: "us", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.client.access_us.p99", Unit: "us", Better: "lower", Moves: "access_p90_us -> mem_zero"},
	{Name: "cluster.client.allocs_per_access", Unit: "count", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.client.bytes_per_access", Unit: "B", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.client.retries_per_access", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.client.poll_share", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> mem_zero"},

	{Name: "cluster.poll.round_us.p50", Unit: "us", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.poll.round_us.p99", Unit: "us", Better: "lower", Moves: "access_p90_us -> mem_zero"},
	{Name: "cluster.poll.allocs_per_round", Unit: "count", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.poll.rtt_us.p50", Unit: "us", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.poll.answered_frac", Unit: "ratio", Better: "higher", Moves: "access_mean_us -> mem_fine90"},
	{Name: "cluster.poll.late_answers", Unit: "count", Better: "lower", Moves: "access_mean_us -> mem_fine90"},

	{Name: "cluster.node.rpc_us.p50", Unit: "us", Better: "lower", Moves: "access_p50_us -> mem_zero"},
	{Name: "cluster.node.queue_wait_us.p50", Unit: "us", Better: "lower", Moves: "access_p50_us -> mem_zero; access_mean_us -> mem_fine90"},
	{Name: "cluster.node.served_cv", Unit: "ratio", Better: "lower", Moves: "access_mean_us -> mem_fine90"},
	{Name: "cluster.node.overloads", Unit: "count", Better: "lower", Moves: "access_mean_us -> mem_fine90"},
	{Name: "cluster.node.inquiries_per_access", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> mem_zero"},

	{Name: "cluster.codec.request_rt_ns", Unit: "ns", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.codec.request_allocs", Unit: "count", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.codec.datagram_rt_ns", Unit: "ns", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "cluster.codec.datagram_allocs", Unit: "count", Better: "lower", Moves: "accesses_per_s -> mem_zero"},

	{Name: "transport.datagrams_per_access", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "transport.stream_writes_per_access", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "transport.bytes_per_access", Unit: "B", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "transport.dials", Unit: "count", Better: "lower", Moves: "setup_s -> mem_zero"},
	{Name: "transport.dgram_rt_us.mem", Unit: "us", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "transport.dgram_rt_us.net", Unit: "us", Better: "lower", Moves: gatewayMoves},
	{Name: "transport.stream_rt_us.mem", Unit: "us", Better: "lower", Moves: "accesses_per_s -> mem_zero"},
	{Name: "transport.stream_rt_us.net", Unit: "us", Better: "lower", Moves: gatewayMoves},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Moves: "accesses_per_s -> sim_fine"},
	{Name: "sim.events_per_access", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> sim_fine"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower", Moves: "accesses_per_s, peak_heap_mb -> sim_fine"},

	{Name: "runtime.cpu_util", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> every workload (cost or idle)"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "accesses_per_s -> every workload"},
	{Name: "runtime.sched_lat_p99_us", Unit: "us", Better: "lower", Moves: "access_p90_us -> every workload"},

	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower", Moves: "validity of access_mean_us, access_p90_us -> mem_fine90"},
	{Name: "loadgen.inflight_max", Unit: "count", Better: "lower", Moves: "validity of access_mean_us -> mem_fine90"},

	{Name: "ledger.e2e_mean_us", Unit: "us", Better: "lower", Moves: "access_mean_us -> every workload"},
	{Name: "ledger.layer_sum_us", Unit: "us", Better: "lower", Moves: "access_mean_us -> every workload"},
	{Name: "ledger.residual_frac", Unit: "ratio", Better: "lower", Moves: "honesty of the ledger -> every workload"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "honesty of the ledger -> every workload"},
}

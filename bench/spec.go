package main

// The names below are the benchmark's vocabulary: BENCHMARK.json lists
// exactly these (bench_test.go pins the equality), and later issues
// cite workloads and metrics by them.

// workload is one input set of the benchmark.
type workload struct {
	name string
	why  string
	// unit names what one unit of work is; units_per_s,
	// allocs_per_unit and alloc_bytes_per_unit are relative to it.
	unit string
	run  func(*childEnv) error
}

var workloads = []workload{
	{"paper_bounded_seq", "paper's bounded cell on the reference engine: 8 wide levels, exact store, machine does most of the work", "state", runPaperBoundedSeq},
	{"paper_bounded_pipeline", "paper's headline protocol on the parallel engine and compact store: mc merge and shard set do real work", "state", runPaperBoundedPipeline},
	{"complete_batch_seq", "four protocols to completion at 3c/1d/1a: deep narrow levels, every state expanded, visited sets fit in cache", "state", runCompleteBatchSeq},
	{"complete_batch_dist", "the same four searches through dist with 2 loopback workers: adds codec, transport and barrier only", "state", runCompleteBatchDist},
	{"deadlock_hunt_dfs", "Table I Class 2 cell: DFS to a counterexample with traces on and 13 VNs, so every ICN state is large", "state", runDeadlockHuntDFS},
	{"static_sweep", "the paper's algorithm over built-ins, transforms and seeded protocols: bypasses machine, mc and icn entirely", "protocol", runStaticSweep},
	{"serve_mixed", "closed-loop analyze, cold-verify and hot-verify mix through vnserved: admission, singleflight, cache and JSON", "request", runServeMixed},
}

// layerReplay is the child that replays the recorded corpus through
// the layers' exported functions. It is part of every traced run, not
// a workload of its own.
var layerReplay = workload{name: "layer_replay", run: replayLayers}

func findWorkload(name string) *workload {
	if name == layerReplay.name {
		return &layerReplay
	}
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one named metric. bound is the share of the baseline
// median by which the metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees, reported by every
// workload from untraced repetitions. One op is one top-level call the
// user makes: a search, one protocol minimised, one HTTP request.
//
// The bounds are at least three times the run-to-run spread seen on
// the reference box (a shared 2-vCPU VM whose speed drifts by tens of
// percent over minutes) across ten seeds; README.md has the numbers.
// Allocation counts repeat to 0.01 % for a fixed seed, but the seeded
// workloads' inputs differ by a few percent from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_s", "s", "lower", 0.25},
	{"verdict_cpu_s", "s", "lower", 0.25},
	{"units_per_s", "1/s", "higher", 0.25},
	{"allocs_per_unit", "count", "lower", 0.10},
	{"alloc_bytes_per_unit", "B", "lower", 0.10},
	{"peak_rss_bytes", "B", "lower", 0.15},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p95", "ms", "lower", 0.25},
	{"op_ms_p99", "ms", "lower", 0.25},
}

// perLayer comes from the traced repetition and the corpus replay. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Model decorator around the engine call (in-process verify workloads).
	{"machine.successors_ns", "ns", "lower", 0},
	{"machine.successors_calls", "count", "lower", 0},
	{"machine.successors_out", "count", "lower", 0},
	{"machine.canonicalize_ns", "ns", "lower", 0},
	{"machine.canonicalize_calls", "count", "lower", 0},
	{"machine.quiescent_ns", "ns", "lower", 0},
	{"mc.self_ns", "ns", "lower", 0},
	{"mc.dedup_hit_share", "share", "lower", 0},
	// Corpus replay through machine's exported functions.
	{"machine.successors_ns_op", "ns/op", "lower", 0},
	{"machine.successors_allocs_op", "count", "lower", 0},
	{"machine.successors_bytes_op", "B", "lower", 0},
	{"machine.successors_named_ns_op", "ns/op", "lower", 0},
	{"machine.enabled_rules_ns_op", "ns/op", "lower", 0},
	{"machine.apply_ns_op", "ns/op", "lower", 0},
	{"machine.canonicalize_ns_op", "ns/op", "lower", 0},
	{"machine.canonicalize_4c_ns_op", "ns/op", "lower", 0},
	{"machine.quiescent_ns_op", "ns/op", "lower", 0},
	{"machine.new_ns", "ns", "lower", 0},
	// Synthetic ICN states at 2 and 13 virtual networks.
	{"icn.encode_ns_op.vn2", "ns/op", "lower", 0},
	{"icn.encode_ns_op.vn13", "ns/op", "lower", 0},
	{"icn.decode_into_ns_op.vn2", "ns/op", "lower", 0},
	{"icn.decode_into_ns_op.vn13", "ns/op", "lower", 0},
	{"icn.clone_ns_op.vn2", "ns/op", "lower", 0},
	{"icn.clone_ns_op.vn13", "ns/op", "lower", 0},
	{"icn.send_deliver_ns_op.vn2", "ns/op", "lower", 0},
	{"icn.send_deliver_ns_op.vn13", "ns/op", "lower", 0},
	// Visited set and fingerprint, then the engine's own Result.Stats.
	{"mc.fingerprint_ns_op", "ns/op", "lower", 0},
	{"mc.visited_insert_fresh_ns_op.exact", "ns/op", "lower", 0},
	{"mc.visited_insert_fresh_ns_op.compact", "ns/op", "lower", 0},
	{"mc.visited_insert_dup_ns_op.exact", "ns/op", "lower", 0},
	{"mc.visited_insert_dup_ns_op.compact", "ns/op", "lower", 0},
	{"mc.visited_bytes_per_state.exact", "B", "lower", 0},
	{"mc.visited_bytes_per_state.compact", "B", "lower", 0},
	{"mc.set_bytes", "B", "lower", 0},
	{"mc.arena_bytes", "B", "lower", 0},
	{"mc.lock_wait_ns", "ns", "lower", 0},
	{"mc.queue_wait_ns", "ns", "lower", 0},
	{"mc.reorder_stalls", "count", "lower", 0},
	{"mc.unverified_hits", "count", "lower", 0},
	// Timing middleware around the dist workers' handlers.
	{"dist.rpc_init_ns", "ns", "lower", 0},
	{"dist.rpc_expand_ns", "ns", "lower", 0},
	{"dist.rpc_frontier_ns", "ns", "lower", 0},
	{"dist.rpc_settle_ns", "ns", "lower", 0},
	{"dist.rpc_calls", "count", "lower", 0},
	{"dist.rounds", "count", "lower", 0},
	{"dist.frontier_bytes", "B", "lower", 0},
	{"dist.coord_wait_share", "share", "lower", 0},
	// Static pipeline: per-call costs over the built-ins, then the
	// obs.Timeline stage sums of the traced static_sweep pass.
	{"protocol.encode_ns_op", "ns/op", "lower", 0},
	{"protocol.decode_ns_op", "ns/op", "lower", 0},
	{"xform.nonstalling_ns_op", "ns/op", "lower", 0},
	{"xform.compose_ns_op", "ns/op", "lower", 0},
	{"analysis.analyze_ns_op", "ns/op", "lower", 0},
	{"vnassign.assign_ns_op", "ns/op", "lower", 0},
	{"analysis.causes_ns", "ns", "lower", 0},
	{"analysis.stalls_ns", "ns", "lower", 0},
	{"analysis.waits_ns", "ns", "lower", 0},
	{"vnassign.depgraph_ns", "ns", "lower", 0},
	{"vnassign.fas_ns", "ns", "lower", 0},
	{"vnassign.coloring_ns", "ns", "lower", 0},
	{"vnassign.refine_ns", "ns", "lower", 0},
	// Request classes of serve_mixed and the server's own /v1/stats.
	{"serve.analyze_ms_p50", "ms", "lower", 0},
	{"serve.verify_cold_ms_p50", "ms", "lower", 0},
	{"serve.verify_hot_ms_p50", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.resp_bytes_mean", "B", "lower", 0},
	{"serve.cache_hit_share", "share", "higher", 0},
	{"serve.rejected_busy", "count", "lower", 0},
	{"serve.jobs_done", "count", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// sizes are the workload dimensions. The smoke set (about 1/50) exists
// for bench_test.go; published numbers always use the full set.
type sizes struct {
	boundedStates   int // MaxStates of the two paper_bounded workloads
	batchMaxStates  int // 0 = run the complete_batch searches to completion
	dfsMaxStates    int
	staticSeeded    int // seeded ptest protocols in the static sweep
	staticPasses    int
	serveRequests   int
	serveColdStates int // base max_states of a cold verify request
	corpusStates    int // frontier states sampled at 3 caches
	corpus4cStates  int // ... and at 4 caches
	corpus4cBound   int
}

var fullSizes = sizes{
	boundedStates: 400_000, batchMaxStates: 0, dfsMaxStates: 600_000,
	staticSeeded: 600, staticPasses: 12,
	serveRequests: 1000, serveColdStates: 3000,
	corpusStates: 20_000, corpus4cStates: 5_000, corpus4cBound: 100_000,
}

var smokeSizes = sizes{
	boundedStates: 8_000, batchMaxStates: 2_000, dfsMaxStates: 12_000,
	staticSeeded: 10, staticPasses: 4,
	serveRequests: 40, serveColdStates: 300,
	corpusStates: 400, corpus4cStates: 100, corpus4cBound: 2_000,
}

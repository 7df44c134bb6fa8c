//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! lists exactly these (a test compares the two); a metric that does not
//! apply to a workload reads 0 there.

/// What a user of the system sees. `samples_per_s` is training samples per
/// second on the training workloads and *simulated* training samples per
/// host second on `sim_zoo32`; `bytes_per_step` is counted (or simulated)
/// wire bytes per operation and repeats exactly.
pub const END_TO_END: [(&str, &str); 4] = [
    ("samples_per_s", "1/s"),
    ("bytes_per_step", "B"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics that are counts and must be identical between two runs
/// of the same commit and seed.
pub const EXACT_END_TO_END: [&str; 1] = ["bytes_per_step"];

/// Per-layer metrics, `<module>.<metric>`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.serial_samples_per_s", "1/s"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.onebit_encode_ns_per_elem", "ns"),
    ("tensor.onebit_decode_ns_per_elem", "ns"),
    ("tensor.sf_codec_us", "us"),
    ("wire.encode_frame_GBps", "GB/s"),
    ("wire.decode_frame_GBps", "GB/s"),
    ("wire.frame_small_ns", "ns"),
    ("wire.f32_encode_GBps", "GB/s"),
    ("wire.f32_decode_GBps", "GB/s"),
    ("pool.hit_ratio", "ratio"),
    ("pool.resident_mib", "MiB"),
    ("transport.tcp_rtt_small_us", "us"),
    ("transport.tcp_rtt_large_us", "us"),
    ("transport.tcp_stream_GBps", "GB/s"),
    ("transport.inproc_rtt_small_us", "us"),
    ("transport.connect_ms", "ms"),
    ("transport.frames_per_step", "count"),
    ("transport.writev_batch_p50", "count"),
    ("transport.tx_queue_peak_frames", "count"),
    ("syncer.encode_push_GBps", "GB/s"),
    ("syncer.ring_hop_add_GBps", "GB/s"),
    ("syncer.sf_reconstruct_ms", "ms"),
    ("kvstore.fold_apply_GBps", "GB/s"),
    ("kvstore.serve_p50_us", "us"),
    ("runtime.step_ms", "ms"),
    ("runtime.compute_ms", "ms"),
    ("runtime.exposed_comm_ms", "ms"),
    ("runtime.exposed_comm_share", "ratio"),
    ("runtime.scaling_efficiency", "ratio"),
    ("runtime.sync_window_ms", "ms"),
    ("runtime.apply_ms", "ms"),
    ("runtime.step_ms_p50", "ms"),
    ("runtime.step_ms_tail", "ms"),
    ("runtime.trace_overhead_pct", "%"),
    ("runtime.final_loss", "loss"),
    ("coordinator.plan_ms", "ms"),
    ("coordinator.layers_ps", "count"),
    ("coordinator.layers_sfb", "count"),
    ("coordinator.layers_ring", "count"),
    ("sim.runs_per_s", "1/s"),
    ("sim.host_ms_vgg19_22k", "ms"),
    ("sim.host_ms_inception_v3", "ms"),
    ("sim.host_ms_resnet152", "ms"),
    ("sim.speedup_vgg19_22k_32", "x"),
    ("sim.speedup_inception_v3_32", "x"),
    ("netsim.transfer_ns", "ns"),
];

/// Per-layer metrics that are counts or simulated statistics and must be
/// identical between two runs of the same commit and seed.
pub const EXACT_PER_LAYER: [&str; 7] = [
    "transport.frames_per_step",
    "runtime.final_loss",
    "coordinator.layers_ps",
    "coordinator.layers_sfb",
    "coordinator.layers_ring",
    "sim.speedup_vgg19_22k_32",
    "sim.speedup_inception_v3_32",
];

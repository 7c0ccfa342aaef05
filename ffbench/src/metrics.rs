//! The metric tables: the one place names, units, directions and bounds
//! are written down. `BENCHMARK.json` is printed from here
//! (`ffbench --benchmark-json`), so the two cannot drift apart.

use crate::workload::WORKLOADS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "frame_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "frame_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "uplink_bytes_per_frame",
        unit: "bytes",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`, grouped by the module each one times.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    // ff_video frame/source
    ("video.decode_us", "us", "lower"),
    ("video.poll_us", "us", "lower"),
    // ff_video::codec
    ("codec.encode_us", "us", "lower"),
    ("codec.bytes_per_frame", "bytes", "lower"),
    // ff_tensor
    ("tensor.gemm_f32_gmadds", "Gmadd/s", "higher"),
    ("tensor.gemm_i8i8_gmadds", "Gmadd/s", "higher"),
    ("tensor.quantize_gbps", "GB/s", "higher"),
    ("tensor.im2col_gbps", "GB/s", "higher"),
    ("tensor.panel_bytes", "bytes", "lower"),
    ("tensor.pool_busy_frac", "ratio", "higher"),
    ("tensor.peak_fma_gmadds", "Gmadd/s", "higher"),
    ("tensor.peak_maddubs_gmadds", "Gmadd/s", "higher"),
    // ff_nn
    ("nn.conv1_ms", "ms", "lower"),
    ("nn.dw_ms", "ms", "lower"),
    ("nn.sep_ms", "ms", "lower"),
    ("nn.conv1_gmadds", "Gmadd/s", "higher"),
    ("nn.dw_gmadds", "Gmadd/s", "higher"),
    ("nn.sep_gmadds", "Gmadd/s", "higher"),
    ("nn.act_bytes_per_frame", "bytes", "lower"),
    ("nn.top_layer_ms", "ms", "lower"),
    // ff_models
    ("models.build_ms", "ms", "lower"),
    // ff_core::extractor
    ("extractor.ms", "ms", "lower"),
    ("extractor.batch_ms", "ms", "lower"),
    ("extractor.madds_per_frame", "count", "lower"),
    ("extractor.share", "ratio", "lower"),
    // ff_core::spec
    ("mc.full_frame_us", "us", "lower"),
    ("mc.localized_us", "us", "lower"),
    ("mc.windowed_us", "us", "lower"),
    ("mc.share", "ratio", "lower"),
    ("mc.madds_per_frame", "count", "lower"),
    // ff_core::smoothing + events
    ("smoothing.push_ns", "ns", "lower"),
    ("events.closed_per_kframe", "count", "lower"),
    // ff_core::pipeline
    ("pipeline.self_us", "us", "lower"),
    ("pipeline.upload_frac", "ratio", "lower"),
    ("pipeline.allocs_per_frame", "count", "lower"),
    ("pipeline.setup_ms", "ms", "lower"),
    ("pipeline.frame_ms_p99", "ms", "lower"),
    // ff_core::archive
    ("archive.record_us", "us", "lower"),
    ("archive.bytes_per_frame", "bytes", "lower"),
    // ff_core::runtime + task + control
    ("runtime.overhead_us", "us", "lower"),
    ("runtime.sleeper_ns", "ns", "lower"),
    ("runtime.rounds", "count", "lower"),
    ("runtime.wakes", "count", "lower"),
    ("runtime.gather_fill", "ratio", "higher"),
    ("control.ticks", "count", "lower"),
    ("runtime.setup_ms", "ms", "lower"),
    // ff_core::uplink + faults
    ("uplink.offer_ns", "ns", "lower"),
    ("uplink.utilization", "ratio", "lower"),
    ("uplink.peak_delay_s", "s", "lower"),
    ("uplink.queue_drops", "count", "lower"),
    ("faults.delivered", "count", "higher"),
    ("faults.late", "count", "lower"),
    ("faults.dropped", "count", "lower"),
    // ff_core::hub + query + fleet
    ("hub.ingest_ns", "ns", "lower"),
    ("hub.dedup_hits", "count", "lower"),
    ("query.eval_ns", "ns", "lower"),
    ("fleet.segments_per_s", "1/s", "higher"),
    // ff_obs, and the bench's own tracing
    ("obs.overhead_frac", "ratio", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.cells", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    // ff_core::node
    ("node.model_mib", "MiB", "lower"),
    // the gate's one reported number, and load generation
    ("check.verdict_agreement_f32", "ratio", "higher"),
    ("loadgen_s", "s", "lower"),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 24;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"ffbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"ffbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

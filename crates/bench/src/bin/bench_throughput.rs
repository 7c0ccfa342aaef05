//! Emits `BENCH_throughput.json`: frames/sec for the Figure 5 strategies
//! plus the raw single-threaded base-DNN forward rate, so successive PRs
//! can track the perf trajectory of the hot path — plus a `"batched"`
//! section sweeping micro-batch sizes B ∈ {1, 2, 4, 8} through the batched
//! extraction path (one GEMM over all the frames' output rows per layer; see
//! `FeatureExtractor::extract_batch`) and a `"precision"` section sweeping
//! the backbone precision (f32 / int8act — see `ff_tensor::Precision`) at
//! B ∈ {1, 8}, and a `"panel_bound"` section sweeping the same precisions
//! through an α=1 backbone at 480×270 — the geometry whose weight set and
//! activation buffers dwarf the per-core L2 (override its frame count with
//! `BENCH_PANEL_FRAMES=n`).
//!
//! All numbers are single-threaded (see
//! [`ff_bench::throughput::single_threaded`]) — the Figure 5 framing — and
//! use the fastest-of-repeats convention of the shared harness. The config
//! block records the container's `available_parallelism` so single-core
//! containers can't be mistaken for multi-core results.
//!
//! Usage: `cargo run --release -p ff-bench --bin bench_throughput`
//! (override the output path with `BENCH_OUT=/path/file.json`, frame count
//! with `BENCH_FRAMES=n`).

use std::io::Write;
use std::time::Instant;

use ff_bench::throughput::{
    bench_frames, measure_dcs, measure_ff, measure_mobilenets, single_threaded,
};
use ff_core::spec::McKind;
use ff_core::FeatureExtractor;
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_tensor::{Precision, Tensor};
use ff_video::Frame;

/// Classifier count for the per-strategy points (a mid-curve Figure 5
/// operating point: enough classifiers that per-MC marginal cost shows).
const N_CLASSIFIERS: usize = 4;

/// Micro-batch sizes swept through the batched extraction path.
const BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Backbone precisions swept through the batched extraction path (f32
/// baseline and whole-int8 — weights *and* activations quantized).
const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Int8Act];

/// Panel-bound geometry: an α=1 backbone at the largest frame the
/// pure-Rust inference budget admits (scale 4 ⇒ 480×270). What makes the
/// sweep panel-bound is the α=1 weight set — ~17 MB of f32 panels, 8× the
/// 2 MB per-core L2, streamed in full by every GEMM — not the frame size;
/// the bigger frames just amortize dispatch overhead and push the im2col
/// working set past L2 as well.
const PANEL_ALPHA: f32 = 1.0;
const PANEL_SCALE: usize = 4;

fn main() {
    single_threaded();
    let scale = 16; // 120×67, the components.rs bench geometry
    let n_frames: usize = std::env::var("BENCH_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let frames = bench_frames(scale, n_frames);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());

    let extractor_fps = measure_extractor_fps(&frames, 0.5);

    let mut rows: Vec<(String, f64)> = vec![("extractor_base_dnn_a0.5".into(), extractor_fps)];
    for (name, kind) in [
        ("ff_full_frame", McKind::FullFrame),
        ("ff_localized", McKind::Localized),
        ("ff_windowed", McKind::Windowed),
    ] {
        let p = measure_ff(kind, N_CLASSIFIERS, &frames, 0.5);
        rows.push((name.to_string(), p.fps));
    }
    rows.push((
        "discrete_classifiers".into(),
        measure_dcs(N_CLASSIFIERS, &frames, 7).fps,
    ));
    rows.push((
        "mobilenet_per_filter".into(),
        measure_mobilenets(1, &frames, 0.5).fps,
    ));

    // Batch-size sweep: the same extraction through the batched path. B=1
    // exercises the batched machinery at serial geometry (its fps may
    // differ slightly from the per-frame row above — same GEMMs, plus the
    // stack/split copies); the B=8 / B=1 ratio is the panel-streaming
    // amortization batching buys on this container.
    let batched: Vec<(usize, f64)> = BATCH_SIZES
        .iter()
        .map(|&b| {
            (
                b,
                measure_batched_extractor_fps(&frames, 0.5, b, Precision::F32),
            )
        })
        .collect();
    let b1 = batched[0].1;
    let b8 = batched[batched.len() - 1].1;
    let speedup = b8 / b1;

    // Precision sweep: the same batched extraction at f32 and at
    // whole-int8, at B = 1 and B = 8.
    let precision: Vec<(String, f64)> = PRECISIONS
        .iter()
        .flat_map(|&p| {
            [1usize, 8].map(|b| {
                (
                    format!("{}_b{b}", p.label()),
                    measure_batched_extractor_fps(&frames, 0.5, b, p),
                )
            })
        })
        .collect();

    // Panel-bound sweep: the α=1 backbone at 1080p-class resolution runs
    // every precision through the serial batched path (B=1: at this
    // geometry a single frame's GEMMs are already panel-scale). Few frames
    // — each forward is ~256× the scale-16 cost.
    let panel_frames: usize = std::env::var("BENCH_PANEL_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let pframes = bench_frames(PANEL_SCALE, panel_frames);
    let panel_bound: Vec<(String, f64)> = PRECISIONS
        .iter()
        .map(|&p| {
            let fps = measure_batched_extractor_fps(&pframes, PANEL_ALPHA, 1, p);
            println!("panel_bound_{:<15} {fps:>10.3} fps", p.label());
            (p.label().to_string(), fps)
        })
        .collect();
    let panel_lookup = |name: &str| {
        panel_bound
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, f)| f)
            .expect("swept")
    };
    let int8act_vs_f32 = panel_lookup("int8act") / panel_lookup("f32");

    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale\": {scale}, \"frames\": {n_frames}, \"classifiers\": {N_CLASSIFIERS}, \"threads\": 1, \"available_parallelism\": {available}}},\n"
    ));
    json.push_str("  \"fps\": {\n");
    for (i, (name, fps)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {fps:.2}{comma}\n"));
        println!("{name:<28} {fps:>10.2} fps");
    }
    json.push_str("  },\n");
    json.push_str("  \"batched\": {\n");
    json.push_str(&format!(
        "    \"config\": {{\"scale\": {scale}, \"frames\": {n_frames}, \"threads\": 1, \"available_parallelism\": {available}}},\n"
    ));
    json.push_str("    \"extractor_fps\": {\n");
    for (i, (b, fps)) in batched.iter().enumerate() {
        let comma = if i + 1 == batched.len() { "" } else { "," };
        json.push_str(&format!("      \"b{b}\": {fps:.2}{comma}\n"));
        println!("extractor_batched_b{b:<10} {fps:>10.2} fps");
    }
    json.push_str("    },\n");
    json.push_str(&format!("    \"speedup_b8_vs_b1\": {speedup:.2},\n"));
    json.push_str(
        "    \"note\": \"speedup is hardware-bounded on this container: the packed weight \
         panels (~2 MB at this geometry) stay resident in the very large shared LLC, and the \
         B=1 micro-kernel already runs near FMA peak, so there is no panel streaming left to \
         amortize; the batched path's gains appear when the weight set exceeds the LLC or when \
         B*positions crosses the parallel-dispatch threshold on multi-core parts\"\n  },\n",
    );
    json.push_str("  \"precision\": {\n");
    json.push_str(&format!(
        "    \"config\": {{\"scale\": {scale}, \"frames\": {n_frames}, \"threads\": 1, \"available_parallelism\": {available}}},\n"
    ));
    json.push_str("    \"extractor_fps\": {\n");
    for (i, (name, fps)) in precision.iter().enumerate() {
        let comma = if i + 1 == precision.len() { "" } else { "," };
        json.push_str(&format!("      \"{name}\": {fps:.2}{comma}\n"));
        println!("extractor_{name:<14} {fps:>10.2} fps");
    }
    json.push_str("    },\n");
    json.push_str(
        "    \"note\": \"the f32 weight set (~2 MB at this geometry) fits the very large \
         shared LLC, so whole-int8's gain here is arithmetic density (integer MACs), not \
         panel bytes; the panel_bound section below is the geometry where bytes count too\"\n  },\n",
    );
    json.push_str("  \"panel_bound\": {\n");
    json.push_str(&format!(
        "    \"config\": {{\"scale\": {PANEL_SCALE}, \"alpha\": {PANEL_ALPHA}, \"frames\": {panel_frames}, \"threads\": 1, \"available_parallelism\": {available}}},\n"
    ));
    json.push_str("    \"extractor_fps\": {\n");
    for (i, (name, fps)) in panel_bound.iter().enumerate() {
        let comma = if i + 1 == panel_bound.len() { "" } else { "," };
        json.push_str(&format!("      \"{name}\": {fps:.3}{comma}\n"));
    }
    json.push_str("    },\n");
    json.push_str(&format!(
        "    \"speedup_int8act_vs_f32\": {int8act_vs_f32:.2},\n"
    ));
    json.push_str(
        "    \"note\": \"alpha=1 at 480x270 (the largest frame the pure-Rust budget admits): \
         the weight panels (~17 MB f32) and im2col buffers overflow this container's 2 MB L2 \
         by an order of magnitude, so every GEMM streams its panels — the geometry the scale-16 sections \
         above cannot reach; the whole-int8 rung swaps the f32 FMA chain \
         for vpmaddubsw/vpmaddwd integer MACs (2 multiply-adds per byte lane per \
         instruction vs 1 per f32 FMA lane), so its win here combines streamed-byte \
         reduction (4x fewer panel bytes than f32) with integer-kernel arithmetic density; \
         the 260 MB shared LLC still backstops DRAM traffic on this container, bounding the \
         bandwidth half of the win\"\n  }\n",
    );
    json.push('}');
    json.push('\n');
    println!("batched extraction B=8 vs B=1: {speedup:.2}x (single-threaded)");
    println!(
        "panel-bound (alpha={PANEL_ALPHA}, scale {PANEL_SCALE}): int8act vs f32 {int8act_vs_f32:.2}x (single-threaded)"
    );
    let mut f = std::fs::File::create(&out_path).expect("create BENCH_throughput.json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote {out_path}");
}

/// Frames/sec of the bare shared feature extraction (both paper taps) —
/// the single-threaded MobileNet forward that gates every strategy.
fn measure_extractor_fps(frames: &[Frame], alpha: f32) -> f64 {
    let mut extractor = FeatureExtractor::new(
        MobileNetConfig::with_width(alpha),
        vec![LAYER_LOCALIZED_TAP.into(), LAYER_FULL_FRAME_TAP.into()],
    );
    let tensors: Vec<_> = frames.iter().map(Frame::to_tensor).collect();
    let _ = extractor.extract(&tensors[0]);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for t in &tensors[1..] {
            let _ = std::hint::black_box(extractor.extract(t));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (tensors.len() - 1) as f64 / best
}

/// Frames/sec of batched extraction at micro-batch size `batch` with the
/// weight panels stored at `precision`: the frame set is processed in
/// `batch`-sized gathers through [`FeatureExtractor::extract_batch`] (one
/// GEMM per layer per gather).
fn measure_batched_extractor_fps(
    frames: &[Frame],
    alpha: f32,
    batch: usize,
    precision: Precision,
) -> f64 {
    let mut extractor = FeatureExtractor::new(
        MobileNetConfig::with_width(alpha).with_precision(precision),
        vec![LAYER_LOCALIZED_TAP.into(), LAYER_FULL_FRAME_TAP.into()],
    );
    let tensors: Vec<Tensor> = frames.iter().map(Frame::to_tensor).collect();
    // Warm-up: one full batch grows the workspace to its steady-state set.
    let _ = extractor.extract_batch(&tensors[..batch.min(tensors.len())]);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for chunk in tensors.chunks(batch) {
            let _ = std::hint::black_box(extractor.extract_batch(chunk));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    tensors.len() as f64 / best
}

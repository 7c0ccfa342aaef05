//! Per-layer measurements made from outside: wall clocks around calls into
//! the public functions of each module, at the geometry of the workload
//! being traced. Every function adds named values to a [`Layers`] map; the
//! names are the `per_layer` metrics of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ff_core::archive::{ArchiveConfig, EdgeArchive};
use ff_core::events::TransitionDetector;
use ff_core::faults::FleetFaultPlan;
use ff_core::fleet::{Fleet, FleetConfig, BASELINE_VERSION};
use ff_core::hub::EventSegment;
use ff_core::query::Query;
use ff_core::smoothing::{KVotingSmoother, SmoothingConfig};
use ff_core::uplink::Uplink;
use ff_core::{CloudHub, McId, McSpec};
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP};
use ff_nn::Phase;
use ff_tensor::{
    i8i8_padded_k, im2col_into, quantize_a_rows_into, quantize_map_u8_into, Conv2dGeometry,
    Epilogue, PackedPanels, Padding, Precision, Tensor, Workspace,
};
use ff_video::codec::{Encoder, EncoderConfig};
use ff_video::{DutyCycleSource, Frame, FrameSource, Resolution, SourcePoll};

use crate::load::{extractor, ClipSource, Stamped, Stamps, FPS};
use crate::stats::median;

pub type Layers = BTreeMap<&'static str, f64>;

/// What the micro-measurements need to know about the traced workload.
pub struct Geometry<'a> {
    pub res: Resolution,
    pub mobilenet: MobileNetConfig,
    pub clip: &'a std::sync::Arc<[Frame]>,
    pub upload_bitrate_bps: f64,
    /// Frames per shared extractor pass (1 on the serial workloads).
    pub gather: usize,
    /// `period` of the cameras' 1-in-`period` duty cycle (1 = always on).
    pub duty_period: u64,
    /// Which clip frames the workload's pipeline uploaded.
    pub uploaded: &'a [bool],
    /// The classifiers one frame passes through.
    pub specs: &'a [McSpec],
    /// Multiplies every timing budget below (`--quick` shrinks them).
    pub scale: f64,
}

/// Mean seconds per call of `f`, over at least `budget` of calls after one
/// warm-up call.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let spent = t0.elapsed();
        if spent >= budget {
            return spent.as_secs_f64() / calls as f64;
        }
    }
}

const BRIEF: Duration = Duration::from_millis(150);

fn ms(millis: u64, scale: f64) -> Duration {
    Duration::from_millis(millis).mul_f64(scale)
}

fn pseudo(n: usize, mut state: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1 << 24) as f32 - 0.25
        })
        .collect()
}

/// `ff_nn` and `ff_models`: every layer of the extractor's own net up to
/// the deepest tap, one `forward_ws` at a time, grouped by layer class.
/// Returns the `(m, k, n)` of the heaviest `*/sep` GEMM for
/// [`tensor_kernels`].
pub fn nn_layers(g: &Geometry, out: &mut Layers) -> (usize, usize, usize) {
    let builds: Vec<f64> = (0..if g.scale < 1.0 { 1 } else { 3 })
        .map(|_| {
            let t = Instant::now();
            black_box(g.mobilenet.build());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("models.build_ms", median(&builds));

    let mut ex = extractor(g.mobilenet);
    let net = ex.net_mut();
    let names: Vec<String> = net.layer_names().map(str::to_string).collect();
    let last = net.index_of(LAYER_FULL_FRAME_TAP).expect("tap exists");
    let input = g.clip[0].to_tensor();
    let mut ws = Workspace::new();
    let mut secs = vec![0.0f64; last + 1];
    let mut madds = vec![0u64; last + 1];
    let mut act_bytes = 0usize;
    let mut panel_bytes = 0usize;
    let mut heaviest = (0usize, 0usize, 0usize);
    let mut passes = 0u32;
    let t0 = Instant::now();
    // Pass 0 warms up (packs panels, sizes the workspace) and records the
    // shapes; the later passes are timed.
    while passes < 2 || t0.elapsed() < ms(500, g.scale) {
        let mut x = ws.take(input.dims());
        x.data_mut().copy_from_slice(input.data());
        for i in 0..=last {
            let layer = net.layer_at_mut(i);
            let t = Instant::now();
            let y = layer.forward_ws(&x, Phase::Inference, &mut ws);
            let dt = t.elapsed().as_secs_f64();
            if passes == 0 {
                madds[i] = layer.multiply_adds(x.dims());
                act_bytes += (x.len() + y.len()) * 4;
                if !names[i].ends_with("/dw") {
                    // Conv cost is positions x fan-in x channels out.
                    let (k, n) = (madds[i] as usize / y.len(), y.dims()[2]);
                    panel_bytes += g.mobilenet.precision.packed_panel_bytes(k, n);
                    let m = y.len() / n;
                    if names[i].ends_with("/sep")
                        && m * k * n > heaviest.0 * heaviest.1 * heaviest.2
                    {
                        heaviest = (m, k, n);
                    }
                }
            } else {
                secs[i] += dt;
            }
            ws.recycle(std::mem::replace(&mut x, y));
        }
        ws.recycle(x);
        passes += 1;
    }
    let timed = (passes - 1) as f64;
    let class = |want: fn(&str) -> bool| {
        let (mut s, mut m) = (0.0, 0u64);
        for i in (0..=last).filter(|&i| want(&names[i])) {
            s += secs[i] / timed;
            m += madds[i];
        }
        (s * 1e3, m as f64 / s.max(1e-12) / 1e9)
    };
    let (ms, rate) = class(|n| n == "conv1");
    out.insert("nn.conv1_ms", ms);
    out.insert("nn.conv1_gmadds", rate);
    let (ms, rate) = class(|n| n.ends_with("/dw"));
    out.insert("nn.dw_ms", ms);
    out.insert("nn.dw_gmadds", rate);
    let (ms, rate) = class(|n| n.ends_with("/sep"));
    out.insert("nn.sep_ms", ms);
    out.insert("nn.sep_gmadds", rate);
    let top = secs.iter().fold(0.0f64, |a, &s| a.max(s / timed));
    out.insert("nn.top_layer_ms", top * 1e3);
    // Computed from the layer shapes, not measured: f32 bytes read plus
    // written by each layer.
    out.insert("nn.act_bytes_per_frame", act_bytes as f64);
    out.insert("tensor.panel_bytes", panel_bytes as f64);
    out.insert(
        "extractor.madds_per_frame",
        madds.iter().sum::<u64>() as f64,
    );
    heaviest
}

/// `ff_tensor`: the two GEMMs at the workload's heaviest `*/sep` shape,
/// activation quantization, the stem im2col, and the register-only peaks
/// the GEMM rates are read against.
pub fn tensor_kernels(g: &Geometry, (m, k, n): (usize, usize, usize), out: &mut Layers) {
    let a = pseudo(m * k, 1);
    let b = pseudo(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    let madds = (m * k * n) as f64;

    let f32_panels = PackedPanels::pack(Precision::F32, &b, k, n);
    let secs = per_call(BRIEF.mul_f64(g.scale), || {
        f32_panels.gemm(&a, &mut c, m, k, n, Epilogue::default());
    });
    out.insert("tensor.gemm_f32_gmadds", madds / secs / 1e9);

    let i8_panels = PackedPanels::pack(Precision::Int8Act, &b, k, n);
    let mut aq = vec![0u8; m * i8i8_padded_k(k)];
    let (mut scales, mut zps) = (vec![0.0f32; m], vec![0u8; m]);
    quantize_a_rows_into(&a, &mut aq, &mut scales, &mut zps, m, k);
    let secs = per_call(BRIEF.mul_f64(g.scale), || {
        i8_panels.gemm_u8(&aq, &scales, &zps, &mut c, m, k, n, Epilogue::default());
    });
    out.insert("tensor.gemm_i8i8_gmadds", madds / secs / 1e9);

    let mut q = vec![0u8; a.len()];
    let secs = per_call(BRIEF.mul_f64(g.scale), || {
        black_box(quantize_map_u8_into(&a, &mut q));
    });
    out.insert("tensor.quantize_gbps", (a.len() * 4) as f64 / secs / 1e9);

    let x = g.clip[0].to_tensor();
    let geo = Conv2dGeometry::resolve((g.res.height, g.res.width, 3), (3, 3), 2, Padding::Same);
    let mut cols = Tensor::zeros(vec![geo.positions(), geo.fan_in()]);
    let secs = per_call(BRIEF.mul_f64(g.scale), || im2col_into(&x, &geo, &mut cols));
    out.insert("tensor.im2col_gbps", (cols.len() * 4) as f64 / secs / 1e9);

    let (fma, maddubs) = peaks();
    out.insert("tensor.peak_fma_gmadds", fma);
    out.insert("tensor.peak_maddubs_gmadds", maddubs);
}

/// Multiply-adds per second of register-only FMA and `vpmaddubsw` loops,
/// in G/s: the roofline denominators, so the best of three tries each (a
/// peak is an upper bound; a try that shared the core reads low). Zero
/// where the CPU lacks AVX2+FMA.
fn peaks() -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if !(std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")) {
            return (0.0, 0.0);
        }
        const ITERS: u64 = 2_000_000;
        let (mut fma, mut dot) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            unsafe {
                let t = Instant::now();
                black_box(x86::fma_loop(ITERS));
                fma = fma.min(t.elapsed().as_secs_f64());
                let t = Instant::now();
                black_box(x86::maddubs_loop(ITERS));
                dot = dot.min(t.elapsed().as_secs_f64());
            }
        }
        let chains = ITERS as f64 * x86::CHAINS as f64;
        (chains * 8.0 / fma / 1e9, chains * 32.0 / dot / 1e9)
    }
    #[cfg(not(target_arch = "x86_64"))]
    (0.0, 0.0)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// Independent accumulators: enough to cover the latency of either
    /// chain, few enough to stay in the sixteen vector registers.
    pub const CHAINS: usize = 12;

    #[target_feature(enable = "avx2,fma")]
    pub fn fma_loop(iters: u64) -> f32 {
        let a = _mm256_set1_ps(black_box(0.999_999));
        let b = _mm256_set1_ps(black_box(1e-7));
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for c in &mut acc {
                *c = _mm256_fmadd_ps(*c, a, b);
            }
        }
        let mut sum = acc[0];
        for c in &acc[1..] {
            sum = _mm256_add_ps(sum, *c);
        }
        _mm256_cvtss_f32(sum)
    }

    /// The whole-int8 inner step: u8 x s8 pair sums, widened to i32 and
    /// accumulated, 32 multiply-adds per chain per iteration.
    #[target_feature(enable = "avx2")]
    pub fn maddubs_loop(iters: u64) -> i32 {
        let a = _mm256_set1_epi8(black_box(3));
        let b = _mm256_set1_epi8(black_box(-2));
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); CHAINS];
        for _ in 0..iters {
            for c in &mut acc {
                let pairs = _mm256_maddubs_epi16(a, _mm256_xor_si256(b, *c));
                *c = _mm256_add_epi32(*c, _mm256_madd_epi16(pairs, ones));
            }
        }
        let mut sum = acc[0];
        for c in &acc[1..] {
            sum = _mm256_add_epi32(sum, *c);
        }
        _mm256_extract_epi32::<0>(sum)
    }
}

/// `ff_core::extractor`: one frame alone, and per frame at the workload's
/// gather size.
pub fn extraction(g: &Geometry, out: &mut Layers) {
    let mut ex = extractor(g.mobilenet);
    let tensors: Vec<Tensor> = g
        .clip
        .iter()
        .take(g.gather.max(1))
        .map(Frame::to_tensor)
        .collect();
    let budget = ms(300, g.scale);
    let secs = per_call(budget, || {
        black_box(ex.extract(&tensors[0]));
    });
    out.insert("extractor.ms", secs * 1e3);
    let secs = per_call(budget, || {
        black_box(ex.extract_batch(&tensors));
    });
    out.insert("extractor.batch_ms", secs * 1e3 / tensors.len() as f64);
}

/// `ff_video`: `Frame::to_tensor`, and one poll of the clip source behind
/// the duty-cycle and stamping wrappers (the load generator's own cost).
pub fn video(g: &Geometry, out: &mut Layers) {
    let secs = per_call(BRIEF.mul_f64(g.scale), || {
        black_box(g.clip[0].to_tensor());
    });
    out.insert("video.decode_us", secs * 1e6);

    let polls = 20_000u64;
    let sink = Stamps::new(1, 0);
    let mut src = Stamped::new(
        DutyCycleSource::new(
            ClipSource::new(g.clip.clone(), 0, polls),
            1,
            g.duty_period - 1,
        ),
        0,
        sink,
    );
    let t = Instant::now();
    let mut n = 0u64;
    while n < polls && !matches!(black_box(src.poll_frame()), SourcePoll::End) {
        n += 1;
    }
    out.insert("video.poll_us", t.elapsed().as_secs_f64() * 1e6 / n as f64);
}

/// `ff_video::codec` and `ff_core::archive`: the upload encoder over the
/// frames the pipeline uploaded (a gap restarts the GOP, as in the
/// pipeline), and the archive encoder over every frame. Each is the median
/// of three passes with a fresh encoder, a pass being too short to sit
/// through a slow spell of the machine.
pub fn codec_archive(g: &Geometry, out: &mut Layers) {
    let frames = g.clip.len().min(240);
    let any = g.uploaded.iter().take(frames).any(|&u| u);
    let uploads = |i: usize| !any || g.uploaded[i];
    let passes = if g.scale < 1.0 { 1 } else { 3 };

    let mut bytes_per_frame = 0.0;
    let encode_us: Vec<f64> = (0..passes)
        .map(|_| {
            let cfg = EncoderConfig::with_bitrate(g.res, FPS, g.upload_bitrate_bps);
            let mut enc = Encoder::new(cfg);
            let (mut secs, mut bytes, mut calls) = (0.0f64, 0usize, 0u32);
            let mut last = None;
            for (i, f) in g.clip.iter().enumerate().take(frames) {
                if !uploads(i) {
                    continue;
                }
                if last != i.checked_sub(1) {
                    enc.force_keyframe();
                }
                let t = Instant::now();
                let e = enc.encode(f);
                secs += t.elapsed().as_secs_f64();
                bytes += e.data.len();
                calls += 1;
                last = Some(i);
            }
            bytes_per_frame = bytes as f64 / calls as f64;
            secs * 1e6 / calls as f64
        })
        .collect();
    out.insert("codec.encode_us", median(&encode_us));
    out.insert("codec.bytes_per_frame", bytes_per_frame);

    let record_us: Vec<f64> = (0..passes)
        .map(|_| {
            let mut archive = EdgeArchive::new(ArchiveConfig::default(), g.res, FPS);
            let t = Instant::now();
            let bytes: usize = g.clip.iter().take(frames).map(|f| archive.record(f)).sum();
            bytes_per_frame = bytes as f64 / frames as f64;
            t.elapsed().as_secs_f64() * 1e6 / frames as f64
        })
        .collect();
    out.insert("archive.record_us", median(&record_us));
    out.insert("archive.bytes_per_frame", bytes_per_frame);
}

/// `ff_core::spec`: one `process_tap` of each classifier kind at the
/// workload's tap shapes, and the multiply-adds of the deployed ones.
pub fn classifiers(g: &Geometry, out: &mut Layers) {
    let mut ex = extractor(g.mobilenet);
    let maps: Vec<_> = g
        .clip
        .iter()
        .take(if g.scale < 1.0 { 2 } else { 8 })
        .map(|f| ex.extract(&f.to_tensor()).clone())
        .collect();
    let region = Some(ff_data::CropRect {
        x0: 0.2,
        y0: 0.3,
        x1: 0.7,
        y1: 0.9,
    });
    let kinds = [
        ("mc.full_frame_us", McSpec::full_frame("probe", 1)),
        ("mc.localized_us", McSpec::localized("probe", region, 2)),
        ("mc.windowed_us", McSpec::windowed("probe", region, 3)),
    ];
    for (name, spec) in kinds {
        let mut mc = spec.build(&ex, g.res, McId(0));
        let mut i = 0;
        let secs = per_call(ms(100, g.scale), || {
            black_box(mc.process_tap(maps[i % maps.len()].get(&spec.tap)));
            i += 1;
        });
        out.insert(name, secs * 1e6);
    }
    let madds: u64 = g
        .specs
        .iter()
        .map(|s| {
            s.build(&ex, g.res, McId(0))
                .model()
                .multiply_adds(&s.input_shape(&ex, g.res))
        })
        .sum();
    out.insert("mc.madds_per_frame", madds as f64);
}

/// `ff_core::smoothing` + `events`, and `ff_core::uplink`: one smoothed,
/// event-tagged decision; one offer to the link model.
pub fn smoothing_uplink(scale: f64, out: &mut Layers) {
    let mut smoother = KVotingSmoother::new(SmoothingConfig::default());
    let mut detector = TransitionDetector::new(McId(0));
    let mut state = 7u32;
    let secs = per_call(ms(50, scale), || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        if let Some((f, positive)) = smoother.push(state >> 29 == 0) {
            black_box(detector.push(f, positive));
        }
    });
    out.insert("smoothing.push_ns", secs * 1e9);

    let mut link = Uplink::new(250_000.0, 60.0);
    let mut i = 0usize;
    let secs = per_call(ms(50, scale), || {
        i += 1;
        black_box(link.offer(if i.is_multiple_of(3) { 420 } else { 0 }));
    });
    out.insert("uplink.offer_ns", secs * 1e9);
}

fn subscriptions() -> Vec<Query> {
    (0..16)
        .map(|i| {
            let mc = |j: usize| Query::mc(McId((i + j) % 4));
            mc(0).and(mc(1).not()).or(mc(2))
        })
        .collect()
}

/// What replaying a node's delivered segments into a hub found.
pub struct HubReplay {
    /// Every segment accepted exactly once, no double delivery.
    pub exactly_once: bool,
    pub ingest_ns: f64,
    pub dedup_hits: u64,
}

/// `ff_core::hub`: `segments` in-order arrivals from one node, every tenth
/// sent twice, into a hub with 16 composite subscriptions.
pub fn hub_replay(segments: u64) -> HubReplay {
    let mut hub = CloudHub::new(64);
    let node = hub.register_node();
    for q in subscriptions() {
        hub.subscribe(q).expect("composite queries reference MCs");
    }
    let segs: Vec<EventSegment> = (0..segments)
        .map(|seq| EventSegment {
            node,
            seq,
            classes: vec![McId(seq as usize % 4), McId((seq as usize / 4) % 4)],
            round: seq,
            bytes: 420,
            version: BASELINE_VERSION,
        })
        .collect();
    let t = Instant::now();
    let mut arrivals = 0u64;
    for seg in &segs {
        for _ in 0..1 + u64::from(seg.seq % 10 == 9) {
            hub.ingest(seg).expect("registered node");
            arrivals += 1;
        }
    }
    HubReplay {
        exactly_once: hub.accepted() == segments && hub.double_deliveries() == 0,
        ingest_ns: t.elapsed().as_secs_f64() * 1e9 / arrivals.max(1) as f64,
        dedup_hits: hub.dup_hits(),
    }
}

/// `ff_core::hub` + `query`: a [`hub_replay`], and one composite
/// `Query::matches_classes`. Returns whether the replay was exactly-once.
pub fn hub_query(segments: u64, scale: f64, out: &mut Layers) -> bool {
    let replay = hub_replay(segments);
    out.insert("hub.ingest_ns", replay.ingest_ns);
    out.insert("hub.dedup_hits", replay.dedup_hits as f64);

    let queries = subscriptions();
    let classes = [McId(1), McId(2)];
    let mut i = 0;
    let secs = per_call(ms(50, scale), || {
        i += 1;
        black_box(queries[i % queries.len()].matches_classes(black_box(&classes)));
    });
    out.insert("query.eval_ns", secs * 1e9);
    replay.exactly_once
}

/// `ff_core::fleet`: 200 simulated nodes for 2400 rounds (fewer under
/// `--quick`) with a crash, a duplicate storm and message loss. The
/// fleet's nodes are synthetic, so no end-to-end metric follows from this
/// yet.
pub fn fleet(scale: f64, out: &mut Layers) -> bool {
    let cfg = FleetConfig {
        nodes: 200,
        rounds: (2400.0 * scale) as u64,
        shards: 1,
        faults: FleetFaultPlan::new()
            .node_crash(3, 60, 20)
            .dup_storm(120, 30, 1)
            .message_loss(40, 30, 0.2),
        subscriptions: vec![Query::mc(McId(0)).or(Query::mc(McId(1)))],
        ..Default::default()
    };
    let fleet = Fleet::new(cfg).expect("valid fleet config");
    let t = Instant::now();
    let report = fleet.run();
    let secs = t.elapsed().as_secs_f64();
    out.insert("fleet.segments_per_s", report.accepted as f64 / secs);
    report.ledger.conserves() && report.double_deliveries == 0
}

/// `ff_core::node`: the modelled memory envelope of one base DNN, to read
/// beside the measured `peak_heap_mib`.
pub fn node_model(g: &Geometry, out: &mut Layers) {
    let bytes = ff_core::node::mobilenet_instance_bytes(&g.mobilenet, g.res);
    out.insert("node.model_mib", bytes as f64 / (1 << 20) as f64);
}

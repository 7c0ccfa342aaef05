//! The two passes over a workload: the untraced one that yields the
//! end-to-end metrics, and the traced one that yields the per-layer
//! metrics. End-to-end metrics never come from a traced run; the
//! difference between the passes is reported as the overhead metrics.

use std::time::{Duration, Instant};

use crate::layers::{self, Geometry, Layers};
use crate::stats::{median, quantiles_f32, Summary};
use crate::trace::Tracer;
use crate::workload::{Kind, Node, NodeExtras, Obs, Sample, Serial, Workload};

/// Untraced segments of one workload, with the pooled service intervals.
pub struct Acc {
    pub samples: Vec<Sample>,
    pub intervals_ms: Vec<f32>,
    /// One segment's intervals, sorted, for its own percentiles.
    scratch: Vec<f32>,
    /// Measured seconds spent so far (segments and their set-up).
    pub spent: Duration,
}

impl Acc {
    /// Sized before any baseline is taken so that recording a sample never
    /// allocates while the product runs.
    pub fn with_room(w: &Workload, segments: usize) -> Acc {
        Acc {
            samples: Vec::with_capacity(segments),
            intervals_ms: Vec::with_capacity(segments * w.intervals_per_segment()),
            scratch: Vec::with_capacity(w.intervals_per_segment()),
            spent: Duration::ZERO,
        }
    }

    pub fn has_room(&self, w: &Workload) -> bool {
        self.samples.len() < self.samples.capacity()
            && self.intervals_ms.len() + w.intervals_per_segment() <= self.intervals_ms.capacity()
    }

    pub fn run_one(&mut self, w: &Workload) {
        let t = Instant::now();
        let first = self.intervals_ms.len();
        let mut sample = w.segment(&mut self.intervals_ms);
        self.spent += t.elapsed();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.intervals_ms[first..]);
        [sample.p50_ms, sample.p95_ms] = quantiles_f32(&mut self.scratch, [0.5, 0.95]);
        self.samples.push(sample);
    }
}

/// The six end-to-end values of a pass, in `END_TO_END` order, with the
/// quartiles of the per-segment ones.
pub struct EndToEndValues {
    pub values: [f64; 6],
    pub fps: Summary,
    pub setup: Summary,
    pub interval_samples: usize,
    pub p99_ms: f64,
}

pub fn end_to_end(acc: &mut Acc) -> EndToEndValues {
    let per = |f: fn(&Sample) -> f64| -> Vec<f64> { acc.samples.iter().map(f).collect() };
    let fps = Summary::of(&per(|s| s.frames as f64 / s.wall_s));
    let setup = Summary::of(&per(|s| s.setup_s));
    let bytes = median(&per(|s| {
        s.bytes_uploaded as f64 / s.frames_out.max(1) as f64
    }));
    let heap = median(&per(|s| s.peak_bytes as f64 / (1 << 20) as f64));
    // Percentiles per segment, then the median over segments: a slow spell
    // of the machine moves a few segments, not the reported value. Only
    // the 99th percentile needs the pooled sample.
    let (p50, p95) = (median(&per(|s| s.p50_ms)), median(&per(|s| s.p95_ms)));
    let interval_samples = acc.intervals_ms.len();
    let [p99] = quantiles_f32(&mut acc.intervals_ms, [0.99]);
    EndToEndValues {
        values: [fps.median, p50, p95, bytes, heap, setup.median],
        fps,
        setup,
        interval_samples,
        // A 99th percentile needs a thousand samples to have ten beyond it.
        p99_ms: if interval_samples >= 1000 { p99 } else { 0.0 },
    }
}

/// What the correctness gate found wrong, one line each; empty means the
/// outputs were correct.
#[derive(Default)]
pub struct Gate {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Every segment of a workload sees the same inputs from the same
    /// state, so verdicts and uploaded bytes must repeat exactly.
    pub fn segments(&mut self, name: &str, samples: &[Sample]) {
        let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
        let failed: u64 = samples.iter().map(|s| s.failed).sum();
        self.attempted += attempted;
        self.failed += failed;
        let first = &samples[0];
        self.expect(samples.iter().all(|s| s.digest == first.digest), || {
            format!("{name}: verdict digest differs between segments")
        });
        self.expect(
            samples.iter().all(|s| {
                (s.bytes_uploaded, s.frames_out) == (first.bytes_uploaded, first.frames_out)
            }),
            || format!("{name}: uploaded bytes differ between segments"),
        );
        self.expect(failed == 0, || {
            format!("{name}: {failed} of {attempted} operations failed")
        });
    }
}

fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>())
}

/// Which frames of the clip a serial pipeline with `specs` uploads.
fn upload_pattern(serial: &Serial) -> Vec<bool> {
    serial
        .verdicts_at(serial.cfg.mobilenet.precision)
        .iter()
        .map(|v| v.uploaded_bytes > 0)
        .collect()
}

/// Measurements that need only the workload's geometry.
fn common_layers(g: &Geometry, hub_segments: u64, out: &mut Layers, gate: &mut Gate) {
    let heaviest = layers::nn_layers(g, out);
    layers::tensor_kernels(g, heaviest, out);
    layers::extraction(g, out);
    layers::video(g, out);
    layers::codec_archive(g, out);
    layers::classifiers(g, out);
    layers::smoothing_uplink(g.scale, out);
    layers::node_model(g, out);
    let once = layers::hub_query(hub_segments, g.scale, out);
    gate.expect(once, || {
        "hub: a replayed segment was not accepted exactly once".into()
    });
    let conserved = layers::fleet(g.scale, out);
    gate.expect(conserved, || {
        "fleet: ledger broken or a double delivery".into()
    });
}

/// The traced pass of a serial workload: untraced and traced segments
/// alternate for `seconds`, so machine drift hits both alike.
fn traced_serial(
    name: &str,
    s: &Serial,
    (seconds, min_pairs): (f64, usize),
    out: &mut Layers,
    gate: &mut Gate,
) -> Tracer {
    let frames = s.clip.len();
    let pairs_cap = 64;
    let mut tracer = Tracer::with_capacity(pairs_cap * frames * 5);
    let mut intervals = Vec::with_capacity(pairs_cap * frames);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while plain.len() < min_pairs
        || (t0.elapsed().as_secs_f64() < seconds && plain.len() < pairs_cap)
    {
        plain.push(s.segment(&mut intervals));
        traced.push(s.traced_segment(&mut tracer));
    }
    gate.segments(name, &plain);
    gate.expect(traced.iter().all(|t| t.digest == plain[0].digest), || {
        format!("{name}: traced composition's verdicts differ from process()")
    });

    let plain_ms = median_of(plain.iter().map(|p| p.wall_s * 1e3 / p.frames as f64));
    let traced_ms = median_of(traced.iter().map(|t| t.frame_ms));
    out.insert("trace.overhead_frac", traced_ms / plain_ms - 1.0);

    let frame_ns = tracer.total("frame") as f64;
    let n = traced.iter().map(|t| t.frames).sum::<u64>() as f64;
    out.insert(
        "extractor.share",
        tracer.total("extractor") as f64 / frame_ns,
    );
    out.insert("mc.share", tracer.total("mc") as f64 / frame_ns);
    let last = traced.last().expect("at least one pair");
    let upload_frac = last.stats.frames_uploaded as f64 / last.stats.frames_out as f64;
    out.insert("pipeline.upload_frac", upload_frac);
    out.insert(
        "events.closed_per_kframe",
        last.stats.events_closed as f64 * 1e3 / last.stats.frames_out as f64,
    );
    out.insert(
        "pipeline.allocs_per_frame",
        median_of(plain.iter().map(|p| p.allocs as f64 / p.frames as f64)),
    );
    out.insert(
        "pipeline.setup_ms",
        median_of(plain.iter().map(|p| p.setup_s * 1e3)),
    );
    let [p99] = quantiles_f32(&mut intervals, [0.99]);
    out.insert(
        "pipeline.frame_ms_p99",
        if intervals.len() >= 1000 { p99 } else { 0.0 },
    );

    // The waterfall closes by construction; a gap would mean a span was
    // lost, so it is checked rather than assumed.
    let selves: u64 = tracer.self_times().values().map(|&(ns, _)| ns).sum();
    gate.expect(
        selves.abs_diff(frame_ns as u64) <= 1 + frame_ns as u64 / 1000,
        || format!("{name}: span self times do not sum to the traced frame time"),
    );

    let pipeline_us = (tracer.total("pipeline") - tracer.total("mc")) as f64 / n / 1e3;
    out.insert("pipeline.self_us", pipeline_us);
    tracer
}

/// Finishes `pipeline.self_us` once the standalone encode and archive
/// times are known: what `process_with_maps` spends outside its MC phase,
/// the upload encode and the archive write.
fn settle_pipeline_self(out: &mut Layers, archive_on: bool) {
    let encode = out["codec.encode_us"] * out["pipeline.upload_frac"];
    let archive = if archive_on {
        out["archive.record_us"]
    } else {
        0.0
    };
    if let Some(v) = out.get_mut("pipeline.self_us") {
        *v -= encode + archive;
    }
}

/// The traced pass of a node workload: runs with and without
/// `with_obs(ObsConfig::default())` alternate for `seconds`.
fn traced_node(
    name: &str,
    node: &Node,
    (seconds, min_pairs): (f64, usize),
    out: &mut Layers,
    gate: &mut Gate,
) -> (Option<String>, NodeExtras) {
    let pairs_cap = 32;
    let mut intervals =
        Vec::with_capacity(2 * pairs_cap * node.streams() * node.frames_per_cam as usize);
    let mut off: Vec<(Sample, NodeExtras)> = Vec::new();
    let mut on: Vec<(Sample, NodeExtras)> = Vec::new();
    let mut sparser: Vec<(f64, u64)> = Vec::new();
    let t0 = Instant::now();
    while off.len() < min_pairs || (t0.elapsed().as_secs_f64() < seconds && off.len() < pairs_cap) {
        off.push(node.run(Obs::Off, &mut intervals));
        // Only the first instrumented run's trace is written out.
        let obs = if on.is_empty() {
            Obs::OnKeepTrace
        } else {
            Obs::On
        };
        on.push(node.run(obs, &mut intervals));
        if sparser.len() < 3.min(min_pairs) {
            sparser.extend(node.sparser_run());
        }
    }
    let all: Vec<Sample> = off.iter().chain(&on).map(|(s, _)| *s).collect();
    gate.segments(name, &all);

    // Signed, with quartiles: the instrumented run may well be the faster
    // one inside the noise, and that is what should be printed.
    let ratios: Vec<f64> = off
        .iter()
        .zip(&on)
        .map(|((a, _), (b, _))| b.wall_s / a.wall_s - 1.0)
        .collect();
    let overhead = Summary::of(&ratios);
    out.insert("obs.overhead_frac", overhead.median);
    println!(
        "{name} obs.overhead_frac.quartiles {:.5} {:.5} n={}",
        overhead.q1, overhead.q3, overhead.n
    );

    // The sparser fleet polls every camera once more per extra round and
    // serves nothing more: the extra wall per extra poll is what a
    // sleeping camera costs.
    if let Some(&(_, sparse_rounds)) = sparser.first() {
        let wall = median_of(off.iter().map(|(s, _)| s.wall_s));
        let sparse_wall = median_of(sparser.iter().map(|r| r.0));
        let extra_polls = (sparse_rounds - off[0].1.rounds) * node.streams() as u64;
        out.insert(
            "runtime.sleeper_ns",
            (sparse_wall - wall) * 1e9 / extra_polls as f64,
        );
    }

    let width = node.node_cfg.shards.budget() as f64;
    let x = &on[0].1;
    let counts = |e: &NodeExtras| (e.rounds, e.wakes, e.ticks, e.spans, e.cells, e.ledger);
    gate.expect(on.iter().all(|(_, e)| counts(e) == counts(x)), || {
        format!("{name}: round, wake, span, cell or ledger counts differ between runs")
    });
    let frames = x.stats.frames_out as f64;
    out.insert("runtime.rounds", x.rounds as f64);
    out.insert("runtime.wakes", x.wakes as f64);
    out.insert("runtime.gather_fill", x.gather_fill);
    out.insert("control.ticks", x.ticks as f64);
    out.insert("uplink.utilization", x.utilization);
    out.insert("uplink.peak_delay_s", x.peak_delay_s);
    out.insert("uplink.queue_drops", x.queue_drops as f64);
    out.insert("faults.delivered", x.ledger.delivered as f64);
    out.insert("faults.late", x.ledger.delivered_late as f64);
    out.insert("faults.dropped", x.ledger.dropped as f64);
    out.insert("obs.spans", x.spans as f64);
    out.insert("obs.cells", x.cells as f64);
    out.insert(
        "pipeline.upload_frac",
        x.stats.frames_uploaded as f64 / frames,
    );
    out.insert(
        "events.closed_per_kframe",
        x.stats.events_closed as f64 * 1e3 / frames,
    );
    out.insert(
        "extractor.share",
        median_of(on.iter().map(|(_, e)| e.extract_ns as f64 / 1e9 / e.wall_s)),
    );
    out.insert(
        "mc.share",
        median_of(
            off.iter()
                .map(|(_, e)| e.timers.microclassifiers.as_secs_f64() / e.wall_s),
        ),
    );
    out.insert(
        "tensor.pool_busy_frac",
        median_of(
            on.iter()
                .map(|(_, e)| e.busy_ns as f64 / 1e9 / (e.wall_s * width)),
        ),
    );
    out.insert(
        "pipeline.allocs_per_frame",
        median_of(off.iter().map(|(s, _)| s.allocs as f64 / s.frames as f64)),
    );
    out.insert(
        "runtime.setup_ms",
        median_of(off.iter().map(|(s, _)| s.setup_s * 1e3)),
    );
    let [p99] = quantiles_f32(&mut intervals, [0.99]);
    out.insert(
        "pipeline.frame_ms_p99",
        if intervals.len() >= 1000 { p99 } else { 0.0 },
    );
    let totals = off[0].1.clone();
    (on.into_iter().next().and_then(|(_, e)| e.chrome), totals)
}

/// Finishes `runtime.overhead_us`: node wall time no `PhaseTimers` phase
/// (decode, extraction, MCs) and no encode or archive write accounts for,
/// per frame.
fn settle_runtime_overhead(out: &mut Layers, x: &NodeExtras, archive_on: bool) {
    let frames = x.stats.frames_out as f64;
    let phases = (x.timers.base_dnn + x.timers.microclassifiers).as_secs_f64() * 1e6;
    let encode = out["codec.encode_us"] * x.stats.frames_uploaded as f64;
    let archive = if archive_on {
        out["archive.record_us"] * frames
    } else {
        0.0
    };
    out.insert(
        "runtime.overhead_us",
        (x.wall_s * 1e6 - phases - encode - archive) / frames,
    );
}

/// What a traced pass leaves behind besides its metrics.
pub struct Traced {
    pub layers: Layers,
    /// Chrome trace JSON: the bench's own spans (serial) or the node's
    /// `ff_obs` spans with wall times (node).
    pub chrome: Option<String>,
}

pub fn traced_pass(w: &Workload, seconds: f64, gate: &mut Gate) -> Traced {
    let (scale, budget) = if w.quick {
        (0.1, (0.0, 1))
    } else {
        (1.0, (seconds, 2))
    };
    let mut out = Layers::new();
    out.insert("loadgen_s", w.loadgen_s);
    out.insert("check.verdict_agreement_f32", 1.0);
    let chrome = match &w.kind {
        Kind::Serial(s) => {
            let tracer = traced_serial(w.name, s, budget, &mut out, gate);
            let uploaded = upload_pattern(s);
            let g = Geometry {
                res: s.cfg.resolution,
                mobilenet: s.cfg.mobilenet,
                clip: &s.clip,
                upload_bitrate_bps: s.cfg.upload_bitrate_bps,
                gather: 1,
                duty_period: 1,
                uploaded: &uploaded,
                specs: &s.specs,
                scale,
            };
            common_layers(&g, 2000, &mut out, gate);
            settle_pipeline_self(&mut out, s.cfg.archive.is_some());
            if s.cfg.mobilenet.precision != ff_tensor::Precision::F32 && !w.quick {
                // Reported, not gated: activation quantization may move a
                // borderline frame.
                let f32_verdicts = s.verdicts_at(ff_tensor::Precision::F32);
                let agree = f32_verdicts
                    .iter()
                    .zip(&uploaded)
                    .filter(|(v, &u)| v.matched() == u)
                    .count();
                out.insert(
                    "check.verdict_agreement_f32",
                    agree as f64 / uploaded.len() as f64,
                );
            }
            Some(tracer.chrome_json())
        }
        Kind::Node(n) => {
            let (chrome, x) = traced_node(w.name, n, budget, &mut out, gate);
            // The standalone encoder sees uploads as sparse as the node's.
            let step = (x.stats.frames_out / x.stats.frames_uploaded.max(1)).max(1) as usize;
            let pattern: Vec<bool> = (0..n.clip().len()).map(|i| i % step == 0).collect();
            let g = Geometry {
                res: n.pipeline.resolution,
                mobilenet: n.pipeline.mobilenet,
                clip: n.clip(),
                upload_bitrate_bps: n.pipeline.upload_bitrate_bps,
                gather: n.gather_size(),
                duty_period: n.duty_period(),
                uploaded: &pattern,
                specs: std::slice::from_ref(n.spec()),
                scale,
            };
            let delivered = x.ledger.delivered + x.ledger.delivered_late;
            common_layers(
                &g,
                if delivered > 0 { delivered } else { 2000 },
                &mut out,
                gate,
            );
            settle_runtime_overhead(&mut out, &x, n.pipeline.archive.is_some());
            chrome
        }
    };
    Traced {
        layers: out,
        chrome,
    }
}

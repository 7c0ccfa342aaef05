//! The four workloads: what each builds, how one segment of it runs, and
//! what is checked about the outputs.
//!
//! Serial workloads drive `FilterForward::process` frame by frame on one
//! thread; a segment is a fresh pipeline over the whole clip, so every
//! segment sees the same inputs from the same state and must produce the
//! same verdicts. Node workloads build a fresh `EdgeNode` per run and drive
//! it to the end of its sources with `run_controlled`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_core::archive::ArchiveConfig;
use ff_core::control::ControlConfig;
use ff_core::pipeline::PhaseTimers;
use ff_core::runtime::{ControlledReport, GatherBatch, ObsConfig};
use ff_core::{
    EdgeNode, EdgeNodeConfig, FaultPlan, FilterForward, FrameVerdict, McSpec, PipelineConfig,
    PipelineStats, SegmentLedger, ShardLayout, SmoothingConfig,
};
use ff_data::CropRect;
use ff_models::MobileNetConfig;
use ff_tensor::Precision;
use ff_video::{DutyCycleSource, Frame, FrameSource, Resolution};

use crate::alloc;
use crate::load::{
    calibrate_thresholds, extractor, render_clip, score_clip, ClipSource, Stamped, Stamps, FPS,
};
use crate::stats::{Digest, SeedMix};
use crate::trace::Tracer;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "backbone_int8act",
        "one 480x270 camera, MobileNet 1.0 at Int8Act, 2 MCs at ~6% upload, serial: the base DNN is ~95% of a frame, so tensor and nn kernel work shows here",
    ),
    (
        "mc_fanout",
        "one 120x67 camera, MobileNet 0.5 f32, 50 MCs of all three kinds at ~10% upload, serial: MCs are ~70% of a frame, so spec, smoothing and pipeline work shows here",
    ),
    (
        "many_cams",
        "1000 cameras at 1-in-10 duty, 64x32, one MC each, shared backbone, run_controlled: the one workload where scheduling, polling and decode of a large fleet show",
    ),
    (
        "event_storm",
        "4 always-on cameras, every frame matches, archive on, 250 kb/s uplink with outage, loss and a capacity dip: the encode, archive and recovery path",
    ),
];

/// What one untraced serial segment or node run measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Frames processed (serial) or finalized (node) inside `wall_s`.
    pub frames: u64,
    /// Median and 95th percentile of the segment's service intervals,
    /// filled in by the pass that pooled them.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub frames_out: u64,
    pub bytes_uploaded: u64,
    pub peak_bytes: usize,
    pub digest: u64,
    /// Operations offered: frames, plus upload segments under faults.
    pub attempted: u64,
    pub failed: u64,
    /// Allocations inside `wall_s`.
    pub allocs: u64,
}

/// Extra counters a node run yields, all read from the product's public
/// report.
#[derive(Debug, Clone, Default)]
pub struct NodeExtras {
    pub timers: PhaseTimers,
    pub stats: PipelineStats,
    pub wall_s: f64,
    /// Wall time of the gather extract spans (obs runs only).
    pub extract_ns: u64,
    pub rounds: u64,
    pub wakes: u64,
    pub gather_fill: f64,
    pub ticks: u64,
    pub utilization: f64,
    pub peak_delay_s: f64,
    pub queue_drops: u64,
    pub ledger: SegmentLedger,
    pub spans: u64,
    pub cells: u64,
    pub busy_ns: u64,
    /// The node's `ff_obs` spans as Chrome trace JSON (`Obs::OnKeepTrace`).
    pub chrome: Option<String>,
}

/// What one traced serial segment measured besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedSegment {
    pub digest: u64,
    pub frame_ms: f64,
    pub stats: PipelineStats,
    pub frames: u64,
}

fn verdict_words(d: &mut Digest, stream: u64, v: &FrameVerdict) {
    d.word(stream);
    d.word(v.frame);
    d.word(v.uploaded_bytes as u64);
    d.word(v.closed_events.len() as u64);
    for (mc, ev) in v.metadata.entries() {
        d.word(mc.0 as u64);
        d.word(ev.0);
    }
}

/// Folds verdicts into the digest and counts the ones out of order.
struct Absorb {
    digest: Digest,
    next: u64,
    out_of_order: u64,
}

impl Absorb {
    fn new() -> Absorb {
        Absorb {
            digest: Digest::new(),
            next: 0,
            out_of_order: 0,
        }
    }

    fn take(&mut self, verdicts: &[FrameVerdict]) {
        for v in verdicts {
            if v.frame != self.next {
                self.out_of_order += 1;
            }
            self.next = v.frame + 1;
            verdict_words(&mut self.digest, 0, v);
        }
    }

    /// Frames with no verdict or one out of order, of `offered`.
    fn failed(&self, offered: u64) -> u64 {
        self.out_of_order + offered.abs_diff(self.next)
    }
}

// ---------------------------------------------------------------------------
// Serial workloads
// ---------------------------------------------------------------------------

pub struct Serial {
    pub cfg: PipelineConfig,
    pub specs: Vec<McSpec>,
    pub clip: Arc<[Frame]>,
}

fn crop(i: usize) -> CropRect {
    let (c, r) = ((i % 6) as f64, (i / 6) as f64);
    CropRect {
        x0: c * 0.08,
        y0: r * 0.06,
        x1: c * 0.08 + 0.6,
        y1: r * 0.06 + 0.7,
    }
}

impl Serial {
    fn prepare(
        res: Resolution,
        mobilenet: MobileNetConfig,
        upload_bitrate_bps: f64,
        (period, repeats): (usize, usize),
        mut specs: Vec<McSpec>,
        upload_share: f64,
        scene_seed: u64,
    ) -> Serial {
        let rendered = render_clip(res, scene_seed, period);
        let clip: Arc<[Frame]> = rendered
            .iter()
            .cycle()
            .take(period * repeats)
            .cloned()
            .collect();
        let cfg = PipelineConfig {
            mobilenet,
            resolution: res,
            fps: FPS,
            upload_bitrate_bps,
            archive: None,
        };
        let mut ex = extractor(mobilenet);
        let scores = score_clip(&mut ex, res, &specs, &clip);
        let one_camera = std::iter::once(0..specs.len()).collect::<Vec<_>>();
        calibrate_thresholds(&mut specs, &scores, &one_camera, upload_share);
        Serial { cfg, specs, clip }
    }

    fn backbone_int8act(seed: u64, quick: bool) -> Serial {
        let mut mix = SeedMix::new(seed, 1);
        // Unsmoothed, and a 16-frame clip played twice: each classifier's
        // top-scoring frame recurs at a fixed period, so the one that
        // clears its threshold uploads as two isolated keyframes on every
        // seed. With thirty-two distinct frames and K-voting, one to nine
        // frames uploaded depending on the seed, as key or predicted frames,
        // and `uplink_bytes_per_frame` swung by half between seeds.
        let unsmoothed = SmoothingConfig { n: 1, k: 1 };
        let specs = vec![
            McSpec {
                smoothing: unsmoothed,
                ..McSpec::full_frame("anything", mix.next())
            },
            McSpec {
                smoothing: unsmoothed,
                ..McSpec::localized("crosswalk", Some(crop(8)), mix.next())
            },
        ];
        Serial::prepare(
            Resolution::new(480, 270),
            MobileNetConfig::with_width(1.0).with_precision(Precision::Int8Act),
            250_000.0,
            if quick { (2, 2) } else { (16, 2) },
            specs,
            0.0625,
            mix.next(),
        )
    }

    fn mc_fanout(seed: u64, quick: bool) -> Serial {
        let mut mix = SeedMix::new(seed, 2);
        let specs = (0..50)
            .map(|i| {
                let name = format!("app{i}");
                match i % 3 {
                    0 => McSpec::full_frame(name, mix.next()),
                    1 => McSpec::localized(name, Some(crop(i / 3)), mix.next()),
                    _ => McSpec::windowed(name, Some(crop(17 + i / 3)), mix.next()),
                }
            })
            .collect();
        Serial::prepare(
            Resolution::new(120, 67),
            MobileNetConfig::with_width(0.5),
            50_000.0,
            (if quick { 40 } else { 240 }, 1),
            specs,
            0.10,
            mix.next(),
        )
    }

    /// One segment: a fresh pipeline over the whole clip. Building it,
    /// deploying the MCs and the first frame (which packs the weight panels
    /// and sizes every workspace) are the set-up; the remaining frames are
    /// timed one `process` call at a time.
    pub fn segment(&self, intervals_ms: &mut Vec<f32>) -> Sample {
        let baseline = alloc::reset_peak();
        let t0 = Instant::now();
        let mut ff = FilterForward::new(self.cfg);
        for spec in &self.specs {
            ff.deploy(spec.clone());
        }
        let mut seen = Absorb::new();
        seen.take(&ff.process(&self.clip[0]));
        let setup_s = t0.elapsed().as_secs_f64();

        let allocs0 = alloc::count();
        let tw = Instant::now();
        for f in &self.clip[1..] {
            let t = Instant::now();
            let verdicts = ff.process(f);
            intervals_ms.push(t.elapsed().as_secs_f32() * 1e3);
            seen.take(&verdicts);
        }
        let wall_s = tw.elapsed().as_secs_f64();
        let allocs = alloc::count() - allocs0;

        let (tail, stats, _) = ff.finish();
        seen.take(&tail);
        let offered = self.clip.len() as u64;
        Sample {
            setup_s,
            wall_s,
            frames: offered - 1,
            frames_out: stats.frames_out,
            bytes_uploaded: stats.bytes_uploaded,
            peak_bytes: alloc::peak_above(baseline),
            digest: seen.digest.0,
            attempted: offered,
            failed: seen.failed(offered),
            allocs,
            ..Sample::default()
        }
    }

    /// The same frames through the layer boundaries the public API
    /// exposes: `Frame::to_tensor`, a bench-owned `FeatureExtractor`, and a
    /// deferred pipeline fed through `process_with_maps`. Frame 0 warms up
    /// unrecorded; every later frame is one `frame` span whose children
    /// cover it.
    pub fn traced_segment(&self, tr: &mut Tracer) -> TracedSegment {
        let mut ex = extractor(self.cfg.mobilenet);
        let mut ff = FilterForward::new_deferred(self.cfg);
        for spec in &self.specs {
            ff.deploy_with(spec.clone(), &ex);
        }
        let mut seen = Absorb::new();
        let maps = ex.extract(&self.clip[0].to_tensor());
        seen.take(&ff.process_with_maps(&self.clip[0], maps, Duration::ZERO));

        let tw = Instant::now();
        for (i, f) in self.clip.iter().enumerate().skip(1) {
            let frame = tr.begin("frame", i as u32);
            let s = tr.begin("video.decode", i as u32);
            let tensor = f.to_tensor();
            tr.end(s);
            let s = tr.begin("extractor", i as u32);
            let maps = ex.extract(&tensor);
            tr.end(s);
            let s = tr.begin("pipeline", i as u32);
            let mc0 = ff.timers().microclassifiers;
            let verdicts = ff.process_with_maps(f, maps, Duration::ZERO);
            let mc = ff.timers().microclassifiers - mc0;
            tr.end(s);
            tr.child_of(s, "mc", mc.as_nanos() as u64);
            tr.end(frame);
            seen.take(&verdicts);
        }
        let frames = self.clip.len() as u64 - 1;
        let frame_ms = tw.elapsed().as_secs_f64() * 1e3 / frames as f64;
        let (tail, stats, _) = ff.finish();
        seen.take(&tail);
        TracedSegment {
            digest: seen.digest.0,
            frame_ms,
            stats,
            frames,
        }
    }

    /// Verdicts of the clip through a pipeline at another precision, for
    /// `check.verdict_agreement_f32`.
    pub fn verdicts_at(&self, precision: Precision) -> Vec<FrameVerdict> {
        let mut cfg = self.cfg;
        cfg.mobilenet.precision = precision;
        reference_verdicts(cfg, &self.specs, self.clip.iter())
    }
}

/// The serial `FilterForward::process` path over `frames`: the reference
/// node verdicts are compared with.
fn reference_verdicts<'a>(
    cfg: PipelineConfig,
    specs: &[McSpec],
    frames: impl Iterator<Item = &'a Frame>,
) -> Vec<FrameVerdict> {
    let mut ff = FilterForward::new(cfg);
    for spec in specs {
        ff.deploy(spec.clone());
    }
    let mut out = Vec::new();
    for f in frames {
        out.extend(ff.process(f));
    }
    out.extend(ff.finish().0);
    out
}

// ---------------------------------------------------------------------------
// Node workloads
// ---------------------------------------------------------------------------

struct Camera {
    clip: Arc<[Frame]>,
    offset: usize,
    /// `(period, phase)` of a 1-in-`period` duty cycle.
    duty: Option<(u64, u64)>,
    spec: McSpec,
}

/// Whether a node run turns `EdgeNodeConfig::with_obs` on, and whether its
/// span trace is rendered to Chrome JSON afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obs {
    Off,
    On,
    OnKeepTrace,
}

pub struct Node {
    pub pipeline: PipelineConfig,
    pub node_cfg: EdgeNodeConfig,
    pub frames_per_cam: u64,
    cameras: Vec<Camera>,
    stamps: Arc<Stamps>,
    /// Streams checked against the serial reference, with its verdicts.
    reference: Vec<(usize, Vec<FrameVerdict>)>,
}

/// Never more pool threads than the machine has cores.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Node {
    fn assemble(
        pipeline: PipelineConfig,
        node_cfg: EdgeNodeConfig,
        frames_per_cam: u64,
        cameras: Vec<Camera>,
        checked: &[usize],
    ) -> Node {
        let mut reference_cfg = pipeline;
        reference_cfg.archive = None;
        let reference = checked
            .iter()
            .map(|&s| {
                let c = &cameras[s];
                let frames = c
                    .clip
                    .iter()
                    .cycle()
                    .skip(c.offset % c.clip.len())
                    .take(frames_per_cam as usize);
                let spec = std::slice::from_ref(&c.spec);
                (s, reference_verdicts(reference_cfg, spec, frames))
            })
            .collect();
        Node {
            pipeline,
            node_cfg,
            frames_per_cam,
            stamps: Stamps::new(cameras.len(), frames_per_cam as usize),
            cameras,
            reference,
        }
    }

    fn many_cams(seed: u64, quick: bool) -> Node {
        let mut mix = SeedMix::new(seed, 3);
        let res = Resolution::new(64, 32);
        let mobilenet = MobileNetConfig::with_width(0.25);
        let (cams, frames_per_cam, period) = if quick {
            (200usize, 2, 10u64)
        } else {
            (1000, 10, 10)
        };
        let clip = render_clip(res, mix.next(), if quick { 60 } else { 240 });
        let mut specs: Vec<McSpec> = (0..cams)
            .map(|s| McSpec::full_frame(format!("cam{s}/activity"), mix.next()))
            .collect();
        let mut ex = extractor(mobilenet);
        let (stride, shift) = (mix.next() as usize % 97 + 1, mix.next());
        // Each camera replays its own window of the shared clip; its
        // classifier is scored on exactly the frames it will see.
        let scores: Vec<Vec<f32>> = score_clip(&mut ex, res, &specs, &clip)
            .iter()
            .enumerate()
            .map(|(s, whole)| {
                (0..frames_per_cam as usize)
                    .map(|i| whole[(s * stride + i) % whole.len()])
                    .collect()
            })
            .collect();
        let each_alone: Vec<_> = (0..cams).map(|s| s..s + 1).collect();
        calibrate_thresholds(&mut specs, &scores, &each_alone, 0.05);
        let cameras = specs
            .into_iter()
            .enumerate()
            .map(|(s, spec)| Camera {
                clip: clip.clone(),
                offset: s * stride,
                duty: Some((period, (s as u64 + shift) % period)),
                spec,
            })
            .collect();
        let mut node_cfg = EdgeNodeConfig::new(ShardLayout::single(pool_width()))
            .with_gather_batch(GatherBatch {
                max_batch: 64,
                gather_wait: Duration::from_millis(1),
            })
            .with_shared_backbone();
        node_cfg.uplink_capacity_bps = 10_000_000.0;
        let pipeline = PipelineConfig {
            mobilenet,
            resolution: res,
            fps: FPS,
            upload_bitrate_bps: 50_000.0,
            archive: None,
        };
        Node::assemble(
            pipeline,
            node_cfg,
            frames_per_cam,
            cameras,
            &[0, cams / 2 - 1, cams - 1],
        )
    }

    fn event_storm(seed: u64, quick: bool) -> Node {
        let mut mix = SeedMix::new(seed, 4);
        let res = Resolution::new(120, 67);
        let frames_per_cam: u64 = if quick { 20 } else { 200 };
        let cameras: Vec<Camera> = (0..4)
            .map(|s| Camera {
                clip: render_clip(res, mix.next(), frames_per_cam as usize),
                offset: 0,
                duty: None,
                spec: McSpec {
                    threshold: 0.0,
                    ..McSpec::full_frame(format!("cam{s}/everything"), mix.next())
                },
            })
            .collect();
        // Each fault lasts a tenth of the run; a round is one frame
        // interval, so the run is about `frames_per_cam` rounds long.
        let tenth = frames_per_cam / 10;
        let mut plan = FaultPlan::new()
            .uplink_outage(2 * tenth, tenth)
            .packet_loss(5 * tenth, tenth, 0.25)
            .capacity_dip(8 * tenth, tenth, 0.5);
        plan.loss_seed = mix.next();
        let mut node_cfg = EdgeNodeConfig::new(ShardLayout::single(pool_width()))
            .with_gather_batch(GatherBatch {
                max_batch: 8,
                gather_wait: Duration::from_millis(1),
            })
            .with_faults(plan);
        node_cfg.uplink_capacity_bps = 250_000.0;
        let pipeline = PipelineConfig {
            mobilenet: MobileNetConfig::with_width(0.5),
            resolution: res,
            fps: FPS,
            upload_bitrate_bps: 50_000.0,
            archive: Some(ArchiveConfig::default()),
        };
        Node::assemble(pipeline, node_cfg, frames_per_cam, cameras, &[0, 1, 2, 3])
    }

    pub fn streams(&self) -> usize {
        self.cameras.len()
    }

    pub fn clip(&self) -> &Arc<[Frame]> {
        &self.cameras[0].clip
    }

    pub fn spec(&self) -> &McSpec {
        &self.cameras[0].spec
    }

    /// `period` of the cameras' 1-in-`period` duty cycle (1 = always on).
    pub fn duty_period(&self) -> u64 {
        self.cameras[0].duty.map_or(1, |(period, _)| period)
    }

    pub fn gather_size(&self) -> usize {
        self.node_cfg.gather_batch.map_or(1, |g| g.max_batch)
    }

    /// Camera `s`'s source. `sparser` stretches the duty period by that
    /// factor and spreads the phases over the longer period: the same
    /// frames, more idle polls between them.
    fn source(&self, s: usize, sparser: u64) -> Box<dyn FrameSource> {
        let c = &self.cameras[s];
        let clip = ClipSource::new(c.clip.clone(), c.offset, self.frames_per_cam);
        match c.duty {
            Some((period, phase)) => {
                let phase = phase + period * (s as u64 / period % sparser);
                Box::new(Stamped::new(
                    DutyCycleSource::with_phase(clip, 1, period * sparser - 1, phase),
                    s,
                    self.stamps.clone(),
                ))
            }
            None => Box::new(Stamped::new(clip, s, self.stamps.clone())),
        }
    }

    /// Builds a fresh node and runs it to the end of its sources.
    fn drive(&self, sparser: u64, obs: bool) -> (ControlledReport, f64) {
        self.stamps.reset();
        let t0 = Instant::now();
        let mut cfg = self.node_cfg.clone();
        if obs {
            cfg = cfg.with_obs(ObsConfig::default());
        }
        let mut node = EdgeNode::new(cfg);
        for (s, c) in self.cameras.iter().enumerate() {
            let id = node.add_stream(self.source(s, sparser), self.pipeline);
            node.deploy(id, c.spec.clone());
        }
        let report = node.run_controlled(ControlConfig::observe_only(8));
        let total_s = t0.elapsed().as_secs_f64();
        (report, total_s)
    }

    /// One whole run on a fresh node. Set-up is everything outside the
    /// node's own wall clock: building it, adding the streams, deploying
    /// the MCs, and `run_controlled`'s preparation before its first round.
    pub fn run(&self, obs: Obs, intervals_ms: &mut Vec<f32>) -> (Sample, NodeExtras) {
        let baseline = alloc::reset_peak();
        let allocs0 = alloc::count();
        let (report, total_s) = self.drive(1, obs != Obs::Off);
        let allocs = alloc::count() - allocs0;
        let peak_bytes = alloc::peak_above(baseline);
        let wall_s = report.node.wall.as_secs_f64();

        let mut digest = Digest::new();
        let mut failed = 0u64;
        for (s, stream) in report.streams.iter().enumerate() {
            let mut next = 0u64;
            for v in &stream.verdicts {
                failed += u64::from(v.frame != next);
                next = v.frame + 1;
                verdict_words(&mut digest, s as u64, v);
            }
            failed += self.frames_per_cam.abs_diff(next);
            intervals_ms.extend(self.stamps.intervals_ms(s));
        }
        for (s, expected) in &self.reference {
            let got = &report.streams[*s].verdicts;
            failed += expected.iter().zip(got).filter(|(e, g)| e != g).count() as u64;
        }
        let ledger = report.faults.as_ref().map(|f| f.ledger).unwrap_or_default();
        failed += ledger.dropped + report.node.uplink_dropped;
        if !ledger.conserves() {
            failed += ledger.offered.abs_diff(ledger.accounted());
        }
        // What the link delivered must reach subscribers exactly once.
        let delivered = ledger.delivered + ledger.delivered_late;
        if delivered > 0 && !crate::layers::hub_replay(delivered).exactly_once {
            failed += 1;
        }

        let offered = self.streams() as u64 * self.frames_per_cam;
        let sample = Sample {
            setup_s: total_s - wall_s,
            wall_s,
            frames: report.node.pipeline.frames_out,
            frames_out: report.node.pipeline.frames_out,
            bytes_uploaded: report.node.pipeline.bytes_uploaded,
            peak_bytes,
            digest: digest.0,
            attempted: offered + ledger.offered,
            failed,
            allocs,
            ..Sample::default()
        };
        (sample, extras(&report, ledger, obs == Obs::OnKeepTrace))
    }

    /// Wall seconds and rounds of the same fleet at a quarter of the duty:
    /// the same cameras, frames and verdicts with four times the idle polls
    /// between them, for `runtime.sleeper_ns`. `None` for always-on fleets.
    pub fn sparser_run(&self) -> Option<(f64, u64)> {
        self.cameras[0].duty?;
        let (report, _) = self.drive(4, false);
        let rounds = report.telemetry.last().map_or(0, |t| t.round);
        Some((report.node.wall.as_secs_f64(), rounds))
    }
}

fn extras(report: &ControlledReport, ledger: SegmentLedger, keep_trace: bool) -> NodeExtras {
    let mut x = NodeExtras {
        timers: report.node.timers,
        stats: report.node.pipeline,
        wall_s: report.node.wall.as_secs_f64(),
        wakes: report.wakes.len() as u64,
        ticks: report.telemetry.len() as u64,
        utilization: report.node.uplink_utilization,
        peak_delay_s: report.node.uplink_peak_delay_secs,
        queue_drops: report.node.uplink_dropped,
        ledger,
        ..Default::default()
    };
    let (rounds, gathered) = report.telemetry.iter().fold((0, 0), |(r, g), t| {
        (r + t.gather.rounds, g + t.gather.gathered)
    });
    x.rounds = report.telemetry.last().map_or(0, |t| t.round);
    if rounds > 0 {
        let max_batch = report.telemetry[0].gather.max_batch.max(1);
        x.gather_fill = gathered as f64 / (rounds * max_batch as u64) as f64;
    }
    if let Some(obs) = &report.obs {
        x.extract_ns = obs
            .spans
            .iter()
            .filter(|s| s.stage == "gather")
            .map(|s| s.wall_nanos)
            .sum();
        x.rounds = x
            .rounds
            .max(obs.spans.iter().map(|s| s.round + 1).max().unwrap_or(0));
        x.chrome = keep_trace.then(|| obs.chrome_trace_with_wall());
        x.spans = obs.emitted_spans;
        x.cells = obs.metrics.entries.len() as u64;
        x.busy_ns = obs
            .metrics
            .entries
            .iter()
            .find(|e| e.key.subsystem == "shard" && e.key.name == "busy_nanos")
            .map_or(0, |e| match e.value {
                ff_core::obs::MetricValue::Counter(n) => n,
                _ => 0,
            });
    }
    x
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

pub enum Kind {
    Serial(Serial),
    Node(Box<Node>),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub loadgen_s: f64,
    /// Shrunk for smoke use: its numbers compare with nothing.
    pub quick: bool,
}

impl Workload {
    /// Generates the workload's inputs from `seed`. `quick` shrinks clips
    /// and runs for smoke use; its numbers compare with nothing.
    pub fn prepare(name: &str, seed: u64, quick: bool) -> Option<Workload> {
        let t0 = Instant::now();
        let (name, kind) = match name {
            "backbone_int8act" => (
                WORKLOADS[0].0,
                Kind::Serial(Serial::backbone_int8act(seed, quick)),
            ),
            "mc_fanout" => (WORKLOADS[1].0, Kind::Serial(Serial::mc_fanout(seed, quick))),
            "many_cams" => (
                WORKLOADS[2].0,
                Kind::Node(Box::new(Node::many_cams(seed, quick))),
            ),
            "event_storm" => (
                WORKLOADS[3].0,
                Kind::Node(Box::new(Node::event_storm(seed, quick))),
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            kind,
            loadgen_s: t0.elapsed().as_secs_f64(),
            quick,
        })
    }

    /// Service-interval samples one segment adds.
    pub fn intervals_per_segment(&self) -> usize {
        match &self.kind {
            Kind::Serial(s) => s.clip.len(),
            Kind::Node(n) => n.streams() * n.frames_per_cam as usize,
        }
    }

    pub fn segment(&self, intervals_ms: &mut Vec<f32>) -> Sample {
        match &self.kind {
            Kind::Serial(s) => s.segment(intervals_ms),
            Kind::Node(n) => n.run(Obs::Off, intervals_ms).0,
        }
    }
}

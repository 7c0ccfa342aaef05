//! Multi-stream scaling: aggregate frames/sec of the [`EdgeNode`] runtime
//! over stream counts and round caps (up to the stream count, or up to
//! `max_batch` frames per round; every frame extracted inside its stream's
//! pool job through the node's one shared base DNN) against the serial
//! single-stream loop on the same thread budget: the node-scale
//! counterpart of Figure 5.
//!
//! Every run's per-stream verdicts are checked **bit-for-bit** against the
//! serial `FilterForward::process` path (run at the same precision — the
//! `*_int8act` row runs at whole-int8) before its throughput is reported,
//! so a number only lands in the JSON if the concurrent execution is
//! provably equivalent.
//!
//! Results are spliced into `BENCH_throughput.json` (next to the
//! single-stream rows emitted by `bench_throughput`) under a
//! `"multistream"` key. The config block records the container's
//! `available_parallelism`, which bounds how many streams a round can serve
//! at once.
//!
//! Usage: `cargo run --release -p ff-bench --bin bench_multistream`
//! (override the output path with `BENCH_OUT=/path/file.json`, per-stream
//! frame count with `BENCH_FRAMES=n`).

use std::io::Write;
use std::time::{Duration, Instant};

use ff_core::control::ControlConfig;
use ff_core::faults::{FaultPlan, FaultsReport, FleetFaultPlan, RecoveryConfig, RetryPolicy};
use ff_core::fleet::{Fleet, FleetConfig, FleetReport};
use ff_core::pipeline::{FilterForward, FrameVerdict, PipelineConfig};
use ff_core::query::Query;
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ObsConfig, ShardLayout};
use ff_core::{McId, McSpec};
use ff_models::MobileNetConfig;
use ff_tensor::Precision;
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{DutyCycleSource, FrameSource, Resolution, SceneSource};

/// Scale-16 geometry (1920/16 × ~1080/16), the single-stream bench size.
const RES: Resolution = Resolution::new(120, 67);
const STREAM_SEEDS: [u64; 4] = [41, 42, 43, 44];
/// Fastest-of-repeats, the convention of the single-stream harness.
const REPEATS: usize = 2;

fn scene_cfg(seed: u64) -> SceneConfig {
    SceneConfig {
        resolution: RES,
        seed,
        pedestrian_rate: 0.03,
        car_rate: 0.02,
        ..Default::default()
    }
}

fn pipeline_cfg(precision: Precision) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(RES, 15.0);
    cfg.mobilenet = MobileNetConfig::with_width(0.5).with_precision(precision);
    cfg.archive = None; // isolate filtering cost, as in the Figure 5 runs
    cfg
}

fn mc_spec(stream: usize) -> McSpec {
    McSpec::full_frame(format!("s{stream}"), 200 + stream as u64)
}

/// Serial gold: verdicts of one stream through the plain `process` loop at
/// the given weight-panel precision.
fn serial_verdicts(
    stream: usize,
    frames: &[ff_video::Frame],
    precision: Precision,
) -> Vec<FrameVerdict> {
    let mut ff = FilterForward::new(pipeline_cfg(precision));
    ff.deploy(mc_spec(stream));
    let mut verdicts = Vec::new();
    for f in frames {
        verdicts.extend(ff.process(f));
    }
    let (tail, ..) = ff.finish();
    verdicts.extend(tail);
    verdicts
}

/// Single-stream serial fps on the full thread budget (warm-up frame, then
/// fastest of repeats — the single-stream harness convention).
fn serial_fps(frames: &[ff_video::Frame]) -> f64 {
    let mut ff = FilterForward::new(pipeline_cfg(Precision::F32));
    ff.deploy(mc_spec(0));
    let _ = ff.process(&frames[0]);
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for f in &frames[1..] {
            let _ = ff.process(f);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (frames.len() - 1) as f64 / best
}

/// One `EdgeNode` configuration: `streams` scene streams on a `budget`-wide
/// pool, with the given round cap (`None`: the stream count), at the given
/// weight-panel precision.
/// Returns the best aggregate fps across repeats after asserting every
/// stream's verdicts match the serial gold **of the same precision**.
fn measure_node(
    streams: usize,
    budget: usize,
    gather: Option<GatherBatch>,
    precision: Precision,
    n_frames: u64,
    gold: &[Vec<FrameVerdict>],
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPEATS {
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget));
        cfg.gather_batch = gather;
        let mut node = EdgeNode::new(cfg);
        for (s, &seed) in STREAM_SEEDS.iter().enumerate().take(streams) {
            let src = Box::new(SceneSource::new(scene_cfg(seed), n_frames));
            let id = node.add_stream(src, pipeline_cfg(precision));
            node.deploy(id, mc_spec(s));
        }
        let report = node.run();
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts, gold[s],
                "{streams} streams / {gather:?}: stream {s} verdicts diverged from serial"
            );
        }
        best = best.max(report.node.aggregate_fps());
    }
    best
}

/// The fault sweep: the same 4-stream gather node with and without a
/// scripted uplink outage + seeded packet loss, through the recovery
/// layer (default retry/spill). Uplink faults delay *delivery*, never
/// inference, so both runs' verdicts are still asserted bit-for-bit
/// against the serial golds; the throughput cost of riding out the chaos
/// and the final segment ledger are the measured outputs. The fault
/// report is deterministic, so one run's report speaks for all repeats.
fn measure_faults(
    budget: usize,
    n_frames: u64,
    gold: &[Vec<FrameVerdict>],
) -> (f64, f64, FaultsReport) {
    let outage_at = n_frames / 3;
    let loss_at = 2 * n_frames / 3;
    let plan = FaultPlan::new()
        .uplink_outage(outage_at, 12)
        .packet_loss(loss_at, 8, 0.25);
    let run = |with_faults: bool| {
        let mut cfg =
            EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
                max_batch: 8,
                gather_wait: Duration::from_millis(1),
            });
        if with_faults {
            // A snappy retry schedule fits the short bench window (the
            // defaults are tuned for long-lived nodes, where a retry can
            // afford to wait 16+ rounds; here that would just park the
            // tail of the backlog at end of run).
            cfg = cfg.with_faults(plan.clone()).with_recovery(RecoveryConfig {
                retry: RetryPolicy {
                    base_delay_rounds: 1,
                    max_delay_rounds: 4,
                    max_attempts: 8,
                    jitter_rounds: 1,
                    jitter_seed: 7,
                },
                ..RecoveryConfig::default()
            });
        }
        let mut node = EdgeNode::new(cfg);
        for (s, &seed) in STREAM_SEEDS.iter().enumerate() {
            let src = Box::new(SceneSource::new(scene_cfg(seed), n_frames));
            let id = node.add_stream(src, pipeline_cfg(Precision::F32));
            node.deploy(id, mc_spec(s));
        }
        let report = node.run_controlled(ControlConfig::observe_only(8));
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts, gold[s],
                "faults={with_faults}: stream {s} verdicts diverged — uplink \
                 faults must never touch inference"
            );
        }
        report
    };
    let mut clean_fps = 0.0f64;
    let mut chaos_fps = 0.0f64;
    let mut faults = None;
    for _ in 0..REPEATS {
        clean_fps = clean_fps.max(run(false).node.aggregate_fps());
        let r = run(true);
        chaos_fps = chaos_fps.max(r.node.aggregate_fps());
        let fr = r.faults.expect("a plan was scheduled");
        assert!(fr.ledger.conserves(), "{:?}", fr.ledger);
        if let Some(prev) = &faults {
            assert_eq!(prev, &fr, "the fault report must replay bit-for-bit");
        }
        faults = Some(fr);
    }
    (clean_fps, chaos_fps, faults.expect("at least one repeat"))
}

/// Geometry for the duty-cycled stream-count sweep: smaller than the
/// 4-stream rows so the 1000-camera row stays a bench, not a soak test.
const STREAMS_RES: Resolution = Resolution::new(64, 32);
/// 10% duty cycle: 1 active tick, 9 idle, phases spread over the period.
const STREAMS_PERIOD: u64 = 10;
const STREAMS_FRAMES: u64 = 2;

fn streams_scene(seed: u64) -> SceneConfig {
    SceneConfig {
        resolution: STREAMS_RES,
        seed,
        pedestrian_rate: 0.03,
        car_rate: 0.02,
        ..Default::default()
    }
}

fn streams_pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::new(STREAMS_RES, 15.0);
    cfg.mobilenet = MobileNetConfig::with_width(0.25);
    cfg.archive = None;
    cfg
}

fn streams_mc(s: usize) -> McSpec {
    McSpec::full_frame(format!("st{s}"), 500 + s as u64)
}

/// One duty-cycled fleet at the given stream count: every camera is an
/// actor-style task on the shared pool (no per-stream threads), active 1
/// round in [`STREAMS_PERIOD`], with a **shared deferred backbone** so the
/// node builds one extractor, not `n`. Returns the best aggregate fps
/// across repeats after sanity-checking stream 0 against its serial gold.
fn measure_streams(n: usize, budget: usize, gold0: &[FrameVerdict]) -> f64 {
    measure_streams_inner(n, budget, gold0, false).0
}

/// [`measure_streams`] with the full observability layer on — span ring,
/// per-job shard timers, deterministic exports — returning the best fps
/// plus the spans emitted and metrics registered, so the bench can pin the
/// instrumentation overhead against the plain row.
fn measure_streams_obs(n: usize, budget: usize, gold0: &[FrameVerdict]) -> (f64, u64, u64) {
    measure_streams_inner(n, budget, gold0, true)
}

fn measure_streams_inner(
    n: usize,
    budget: usize,
    gold0: &[FrameVerdict],
    obs: bool,
) -> (f64, u64, u64) {
    let mut best = 0.0f64;
    let mut spans = 0u64;
    let mut metrics = 0u64;
    for _ in 0..REPEATS {
        let mut cfg =
            EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
                max_batch: 64,
                gather_wait: Duration::from_millis(1),
            });
        if obs {
            cfg = cfg.with_obs(ObsConfig::default());
        }
        cfg.uplink_capacity_bps = 10_000_000.0;
        let mut node = EdgeNode::new(cfg);
        for s in 0..n {
            let inner = SceneSource::new(streams_scene(300 + s as u64), STREAMS_FRAMES);
            let src = Box::new(DutyCycleSource::with_phase(
                inner,
                1,
                STREAMS_PERIOD - 1,
                s as u64 % STREAMS_PERIOD,
            ));
            let id = node.add_stream(src, streams_pipeline());
            node.deploy(id, streams_mc(s));
        }
        let report = node.run_controlled(ControlConfig::observe_only(8));
        assert_eq!(
            report.node.pipeline.frames_out,
            n as u64 * STREAMS_FRAMES,
            "{n} streams: every duty-cycled frame must be served"
        );
        assert_eq!(
            report.streams[0].verdicts, gold0,
            "{n} streams: stream 0 diverged from its serial pipeline"
        );
        if let Some(o) = &report.obs {
            spans = o.emitted_spans;
            metrics = o.metrics.entries.len() as u64;
        }
        best = best.max(report.node.aggregate_fps());
    }
    (best, spans, metrics)
}

/// Cloud-tier rounds for the fleet sweep — long enough that every fault
/// window (crash + rejoin, dup storm, loss burst) fully plays out.
const FLEET_ROUNDS: u64 = 240;

/// One fleet chaos run at the given node count: wall-clock hub segment
/// throughput (fresh + duplicate + out-of-window arrivals ingested per
/// second) alongside the dedup and redelivery counters. The simulation is
/// pure virtual time, so the report must replay bit-for-bit across the
/// timing repeats — only the wall clock is allowed to vary.
fn measure_fleet(nodes: usize) -> (f64, FleetReport) {
    let cfg = FleetConfig {
        nodes,
        rounds: FLEET_ROUNDS,
        shards: 4,
        faults: FleetFaultPlan::new()
            .node_crash(3, 60, 20)
            .dup_storm(120, 30, 1)
            .message_loss(40, 30, 0.2),
        subscriptions: vec![Query::mc(McId(0)).or(Query::mc(McId(1)))],
        ..Default::default()
    };
    let mut best = f64::MAX;
    let mut report: Option<FleetReport> = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let r = Fleet::new(cfg.clone()).expect("valid fleet config").run();
        best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        if let Some(prev) = &report {
            assert_eq!(prev, &r, "fleet run must replay bit-for-bit");
        }
        report = Some(r);
    }
    let report = report.expect("at least one repeat");
    assert!(report.ledger.conserves(), "{}", report.ledger);
    assert_eq!(report.double_deliveries, 0, "exactly-once to subscribers");
    let ingested = report.accepted + report.dup_hits + report.out_of_window;
    (ingested as f64 / best, report)
}

fn main() {
    let n_frames: u64 = std::env::var("BENCH_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Pre-render each stream's frames once for the serial gold/baseline.
    let rendered: Vec<Vec<ff_video::Frame>> = STREAM_SEEDS
        .iter()
        .map(|&seed| {
            Scene::new(scene_cfg(seed))
                .take(n_frames as usize)
                .map(|(f, _)| f)
                .collect()
        })
        .collect();
    // Per-precision serial golds: a whole-int8 node must reproduce the
    // serial loop run at the *same* precision bit-for-bit (execution mode
    // never changes a bit).
    let gold_for = |p: Precision| -> Vec<Vec<FrameVerdict>> {
        rendered
            .iter()
            .enumerate()
            .map(|(s, frames)| serial_verdicts(s, frames, p))
            .collect()
    };
    let gold = gold_for(Precision::F32);
    let gold_int8act = gold_for(Precision::Int8Act);

    ff_tensor::parallel::set_threads(budget);
    let baseline = serial_fps(&rendered[0]);
    ff_tensor::parallel::set_threads(0);

    // Stream counts on one budget-wide pool, each round's frames served as
    // concurrent pool jobs through the node's one shared base DNN. Plain
    // rows cap a round at the stream count; `*_cap<b>` rows at `b` frames.
    let cap = |b: usize| {
        Some(GatherBatch {
            max_batch: b,
            gather_wait: Duration::from_millis(2),
        })
    };
    type Case = (&'static str, usize, Option<GatherBatch>, Precision);
    let f32p = Precision::F32;
    let cases: Vec<Case> = vec![
        ("1s", 1, None, f32p),
        ("2s", 2, None, f32p),
        ("4s", 4, None, f32p),
        ("1s_cap8", 1, cap(8), f32p),
        ("2s_cap2", 2, cap(2), f32p),
        ("4s_cap4", 4, cap(4), f32p),
        ("4s_cap8", 4, cap(8), f32p),
        // Whole-int8: weights *and* activations quantized, the u8 gather +
        // integer GEMM path.
        ("4s_cap8_int8act", 4, cap(8), Precision::Int8Act),
    ];
    let mut rows: Vec<(String, f64)> = vec![(format!("serial_1s_t{budget}"), baseline)];
    println!(
        "{:<24} {baseline:>10.2} fps",
        format!("serial_1s_t{budget}")
    );
    let mut fps_4s = 0.0;
    let mut fps_4s_cap4 = 0.0;
    for (name, streams, gb, precision) in &cases {
        let gold_p = match precision {
            Precision::F32 => &gold,
            Precision::Int8Act => &gold_int8act,
        };
        let fps = measure_node(*streams, budget, *gb, *precision, n_frames, gold_p);
        if *name == "4s" {
            fps_4s = fps;
        }
        if *name == "4s_cap4" {
            fps_4s_cap4 = fps;
        }
        let mode = format!("≤{} frames a round", gb.map_or(*streams, |g| g.max_batch));
        println!("{name:<24} {fps:>10.2} fps  (aggregate, {mode})");
        rows.push((name.to_string(), fps));
    }
    let speedup = fps_4s / baseline;
    let speedup_cap4 = fps_4s_cap4 / baseline;
    println!("4-stream aggregate vs serial single-stream: {speedup:.2}x uncapped, {speedup_cap4:.2}x at cap 4 (budget {budget} threads)");
    println!(
        "verdicts: bit-for-bit identical to the serial pipeline for every stream count and cap"
    );

    // Fault sweep: the recovery layer riding out a scripted uplink outage
    // and seeded packet loss, verdicts still bit-identical to serial.
    println!();
    println!("fault sweep (12-round outage + 25% seeded loss through the recovery layer):");
    let (clean_fps, chaos_fps, fault_report) = measure_faults(budget, n_frames, &gold);
    let chaos_ratio = chaos_fps / clean_fps;
    let fl = fault_report.ledger;
    println!("fault_free               {clean_fps:>10.2} fps  (aggregate, observe-only executor)");
    println!("under_faults             {chaos_fps:>10.2} fps  (aggregate, {chaos_ratio:.2}x of fault-free)");
    println!(
        "segments: {} offered = {} delivered + {} late + {} dropped (conserves: {}); recovery {} rounds",
        fl.offered,
        fl.delivered,
        fl.delivered_late,
        fl.dropped,
        fl.conserves(),
        fault_report
            .recovery_rounds
            .map_or_else(|| "n/a".to_string(), |r| r.to_string()),
    );

    // Stream-count sweep: 10 → 1000 duty-cycled cameras as actor-style
    // tasks on one shared pool. The invariant that must hold is that the
    // *per-frame service rate* stays flat: 1000 cameras at 10% duty are
    // 100 active streams' work, and carrying the other 900 sleeping tasks
    // must cost (nearly) nothing — aggregate fps within ~10% of the
    // 10-camera row. The raw per-active-stream rate divides the fixed
    // budget across the active set, so it falls as 1/active by
    // construction; both are reported.
    println!();
    println!(
        "stream-count sweep ({STREAMS_RES} frames, 10% duty cycle, shared deferred backbone):"
    );
    let gold_stream0: Vec<FrameVerdict> = {
        let mut ff = FilterForward::new(streams_pipeline());
        ff.deploy(streams_mc(0));
        let mut verdicts = Vec::new();
        let mut src = SceneSource::new(streams_scene(300), STREAMS_FRAMES);
        while let Some(f) = src.next_frame() {
            verdicts.extend(ff.process(&f));
        }
        let (tail, ..) = ff.finish();
        verdicts.extend(tail);
        verdicts
    };
    let stream_rows: Vec<(usize, f64, f64)> = [10usize, 100, 1000]
        .iter()
        .map(|&n| {
            let fps = measure_streams(n, budget, &gold_stream0);
            let active = n as f64 / STREAMS_PERIOD as f64;
            let per_active = fps / active;
            println!(
                "{:<24} {fps:>10.2} fps  (aggregate, {per_active:.2} per active stream)",
                format!("streams_{n}")
            );
            (n, fps, per_active)
        })
        .collect();
    let streams_scaling = stream_rows[2].1 / stream_rows[0].1;
    println!(
        "per-frame service rate at 1000 cameras: {streams_scaling:.2}x of the 10-camera row \
         (990 more sleeping tasks; flat = free idle cameras)"
    );

    // Observability overhead on the 1000-camera row: the same sweep with
    // the span ring and per-job shard timers on. The registry itself is
    // always on, so this measures exactly what the obs knob adds.
    println!();
    println!("obs overhead (1000 duty-cycled cameras, span ring + shard timers on):");
    let obs_base_fps = stream_rows[2].1;
    let (obs_fps, obs_spans, obs_metrics) = measure_streams_obs(1000, budget, &gold_stream0);
    let obs_overhead = (1.0 - obs_fps / obs_base_fps).max(0.0);
    println!(
        "{:<24} {obs_fps:>10.2} fps  ({obs_spans} spans, {obs_metrics} metrics, overhead {:.1}%)",
        "streams_1000_obs",
        obs_overhead * 100.0,
    );
    assert!(
        obs_overhead <= 0.02,
        "instrumentation overhead {:.2}% exceeds the 2% budget",
        obs_overhead * 100.0,
    );

    // Fleet sweep: the cloud tier at 10/50/200 nodes, same per-node chaos
    // script (crash + rejoin, dup storm, seeded loss) at every size.
    println!();
    println!(
        "fleet sweep (cloud hub, {FLEET_ROUNDS} virtual rounds, crash + dup storm + 20% loss):"
    );
    let fleet_rows: Vec<(usize, f64, FleetReport)> = [10usize, 50, 200]
        .iter()
        .map(|&nodes| {
            let (segs_per_sec, report) = measure_fleet(nodes);
            println!(
                "{:<24} {segs_per_sec:>10.0} segs/s  (accepted {}, dedup hits {}, redeliveries {})",
                format!("fleet_{nodes}n"),
                report.accepted,
                report.dup_hits,
                report.redeliveries,
            );
            (nodes, segs_per_sec, report)
        })
        .collect();

    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    let mut section = String::from("  \"multistream\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{RES}\", \"frames_per_stream\": {n_frames}, \"budget_threads\": {budget}, \"available_parallelism\": {budget}}},\n"
    ));
    section.push_str("    \"aggregate_fps\": {\n");
    for (i, (name, fps)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        section.push_str(&format!("      \"{name}\": {fps:.2}{comma}\n"));
    }
    section.push_str("    },\n");
    section.push_str(&format!("    \"speedup_4s_vs_serial\": {speedup:.2},\n"));
    section.push_str(&format!(
        "    \"speedup_4s_cap4_vs_serial\": {speedup_cap4:.2},\n"
    ));
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The fault sweep, spliced as its own top-level section.
    section.push_str("  \"faults\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{RES}\", \"frames_per_stream\": {n_frames}, \"budget_threads\": {budget}, \"plan\": \"12-round uplink outage at round {}, 25% seeded packet loss for 8 rounds at round {}; default retry/spill policy\"}},\n",
        n_frames / 3,
        2 * n_frames / 3,
    ));
    section.push_str(&format!(
        "    \"aggregate_fps_fault_free\": {clean_fps:.2},\n"
    ));
    section.push_str(&format!(
        "    \"aggregate_fps_under_faults\": {chaos_fps:.2},\n"
    ));
    section.push_str(&format!(
        "    \"fps_ratio_under_faults\": {chaos_ratio:.2},\n"
    ));
    section.push_str(&format!(
        "    \"segments\": {{\"offered\": {}, \"delivered\": {}, \"delivered_late\": {}, \"dropped\": {}, \"conserves\": {}}},\n",
        fl.offered,
        fl.delivered,
        fl.delivered_late,
        fl.dropped,
        fl.conserves(),
    ));
    section.push_str(&format!(
        "    \"recovery_rounds\": {},\n",
        fault_report
            .recovery_rounds
            .map_or_else(|| "null".to_string(), |r| r.to_string()),
    ));
    section.push_str(
        "    \"note\": \"uplink faults delay delivery, never inference: both runs' verdicts are asserted bit-for-bit against the serial golds, and the fault report itself replays bit-for-bit across repeats\",\n",
    );
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The duty-cycled stream-count sweep, spliced as its own section.
    section.push_str("  \"streams\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{STREAMS_RES}\", \"frames_per_stream\": {STREAMS_FRAMES}, \"duty_cycle\": \"1 active / {} idle rounds, phases spread\", \"budget_threads\": {budget}, \"runtime\": \"actor-style tasks on one shared pool, shared deferred backbone, zero per-stream threads\"}},\n",
        STREAMS_PERIOD - 1,
    ));
    for (n, fps, per_active) in &stream_rows {
        section.push_str(&format!(
            "    \"streams_{n}\": {{\"aggregate_fps\": {fps:.2}, \"per_active_stream_fps\": {per_active:.2}}},\n"
        ));
    }
    section.push_str(&format!(
        "    \"aggregate_ratio_1000_vs_10\": {streams_scaling:.2},\n"
    ));
    section.push_str(
        "    \"note\": \"the invariant: serving an active frame must cost the same whether the node hosts 10 cameras or 1000 (aggregate fps within ~10% of the 10-stream row — a sleeping task is a poll and a counter, not a thread). Raw per_active_stream_fps divides the fixed thread budget across the active set, so it falls as 1/active by construction on one machine.\",\n",
    );
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The observability overhead row, spliced as its own section.
    section.push_str("  \"obs\": {\n");
    section.push_str(
        "    \"config\": {\"load\": \"1000 duty-cycled cameras, same sweep as streams_1000\", \"instrumentation\": \"span ring + per-job shard timers on top of the always-on registry\"},\n",
    );
    section.push_str(&format!("    \"aggregate_fps_base\": {obs_base_fps:.2},\n"));
    section.push_str(&format!("    \"aggregate_fps_obs\": {obs_fps:.2},\n"));
    section.push_str(&format!("    \"overhead_fraction\": {obs_overhead:.4},\n"));
    section.push_str("    \"max_overhead_fraction\": 0.02,\n");
    section.push_str(&format!("    \"spans_emitted\": {obs_spans},\n"));
    section.push_str(&format!("    \"metrics_registered\": {obs_metrics},\n"));
    section.push_str(
        "    \"note\": \"the bench asserts the overhead budget itself; the trace and snapshot exports are byte-stable across runs, threads, and shard widths, so they can gate CI\"\n  },\n",
    );

    // The cloud-tier fleet sweep, spliced as its own top-level section.
    section.push_str("  \"fleet\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"rounds\": {FLEET_ROUNDS}, \"hub_shards\": 4, \"plan\": \"node 3 crashes for 20 rounds at round 60 and rejoins from its checkpoint journal; a dup storm doubles every wire message for rounds 120-150; 20% seeded loss for rounds 40-70\"}},\n"
    ));
    for (nodes, segs_per_sec, report) in &fleet_rows {
        section.push_str(&format!(
            "    \"nodes_{nodes}\": {{\"hub_segments_per_sec\": {segs_per_sec:.0}, \"accepted\": {}, \"dedup_hits\": {}, \"redeliveries\": {}, \"double_deliveries\": {}, \"ledger_conserves\": {}}},\n",
            report.accepted,
            report.dup_hits,
            report.redeliveries,
            report.double_deliveries,
            report.ledger.conserves(),
        ));
    }
    section.push_str(
        "    \"note\": \"pure virtual-time simulation: each report replays bit-for-bit across the timing repeats and across hub shard widths; only the wall clock varies. Redeliveries are the at-least-once transport doing its job; dedup hits are the hub absorbing them (and the storm) so subscribers see exactly-once.\"\n  }\n}\n",
    );

    // Splice after the single-stream rows: replace an existing
    // "multistream" section, else insert before the closing brace.
    let base = std::fs::read_to_string(&out_path).unwrap_or_else(|_| "{\n}\n".to_string());
    let head = match base.find(",\n  \"multistream\"") {
        Some(i) => base[..i].to_string(),
        None => {
            let close = base.rfind('}').expect("existing json must be an object");
            base[..close].trim_end().to_string()
        }
    };
    let mut f = std::fs::File::create(&out_path).expect("create bench json");
    if head.trim() == "{" {
        write!(f, "{{\n{section}").expect("write bench json");
    } else {
        write!(f, "{head},\n{section}").expect("write bench json");
    }
    println!("wrote {out_path}");
}

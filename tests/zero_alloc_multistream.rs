//! Zero-allocation guarantee for the **multi-stream** steady state.
//!
//! PR 1 pinned the single-stream contract (see `zero_alloc.rs`); the
//! sharded runtime must not regress it: N streams extracting concurrently,
//! each scoped to its own [`PoolShard`], still perform zero heap
//! allocations per frame once warmed up. This exercises the shard dispatch
//! machinery itself — submission locks, condvar parking, chunk claiming —
//! which must run allocation-free, on top of the per-stream workspaces.
//!
//! The second test pins the same contract for the **gather-style** hot
//! path: one shared extractor walked by every stream's pool job at once,
//! each job extracting its frame into the scratch of the pool slot running
//! it and feeding its stream's MC — nothing on top of what the pool's
//! dispatch itself costs.
//!
//! The third drives a whole gather-style [`ff_core::runtime::EdgeNode`] —
//! which cannot be allocation-free (every frame is rendered, queued
//! and re-encoded) — and pins its *marginal* allocations per frame,
//! so the round loop's pool fan-out cannot start paying in per-round `Vec`s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use ff_core::{FeatureExtractor, McSpec};
use ff_models::MobileNetConfig;
use ff_tensor::{PoolShard, Tensor};
use ff_video::Resolution;

/// Serializes the two counting-allocator tests: the harness runs tests in
/// this binary concurrently by default, and a measurement window must not
/// see the other test's allocations.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn sharded_multistream_loop_is_allocation_free_after_warmup() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    const STREAMS: usize = 2;
    let res = Resolution::new(192, 108);

    // Each stream: its own extractor + MCs (per-stream workspaces) and its
    // own shard of width 2, so dispatch goes through the shard machinery
    // (large stem layers exceed the parallel threshold at this geometry).
    let mut streams: Vec<_> = (0..STREAMS)
        .map(|s| {
            let extractor = FeatureExtractor::new(
                MobileNetConfig::with_width(0.5),
                vec![
                    ff_models::LAYER_LOCALIZED_TAP.to_string(),
                    ff_models::LAYER_FULL_FRAME_TAP.to_string(),
                ],
            );
            let full = McSpec::full_frame(format!("s{s}"), s as u64 + 1);
            let mc = full.build(&extractor, res, ff_core::McId(0));
            let shard = PoolShard::new(2);
            let frame = Tensor::filled(vec![res.height, res.width, 3], 0.3 + s as f32 * 0.1);
            (extractor, mc, shard, frame)
        })
        .collect();

    // Three rendezvous: after warmup (main samples the counter), before the
    // measured loop, and after it.
    let warmed = Barrier::new(STREAMS + 1);
    let measured = Barrier::new(STREAMS + 1);
    let done = Barrier::new(STREAMS + 1);

    std::thread::scope(|scope| {
        for (extractor, mc, shard, frame) in &mut streams {
            let (warmed, measured, done) = (&warmed, &measured, &done);
            scope.spawn(move || {
                // Warm-up: workspace growth, smoothing windows, shard
                // worker spawn, pack-buffer growth on this thread.
                for _ in 0..10 {
                    shard.run(|| {
                        let maps = extractor.extract(frame);
                        let fm = maps.get(&mc.spec().tap);
                        let _ = std::hint::black_box(mc.process_tap(fm));
                    });
                }
                warmed.wait();
                measured.wait();
                for _ in 0..20 {
                    shard.run(|| {
                        let maps = extractor.extract(frame);
                        let fm = maps.get(&mc.spec().tap);
                        let _ = std::hint::black_box(mc.process_tap(fm));
                    });
                }
                done.wait();
            });
        }
        warmed.wait();
        let before = ALLOCS.load(Ordering::Relaxed);
        measured.wait();
        done.wait();
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state multi-stream loop allocated {} times over {} frames across {STREAMS} sharded streams",
            after - before,
            20 * STREAMS,
        );
    });
}

/// The gather-style inference stage of the [`ff_core::runtime::EdgeNode`]:
/// one pool job per stream, each extracting its frame through the one
/// shared extractor into its pool slot's workspace and maps, then running
/// the stream's MC on them — allocation-free once the slot scratch and the
/// smoothing windows are warm. `run_items` itself returns a `Vec` of
/// results per call; the same dispatch with empty jobs measures that, and
/// the fan-out must add nothing to it.
#[test]
fn gather_batch_extraction_and_mc_fanout_are_allocation_free_after_warmup() {
    use ff_core::FeatureMaps;
    use ff_tensor::{parallel, Workspace};
    use std::sync::Mutex;

    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    const STREAMS: usize = 3;
    const ROUNDS: u64 = 20;
    let res = Resolution::new(192, 108);

    // The shared extractor (as a gather-style EdgeNode builds it per
    // bucket) plus one MC and one frame per stream, exactly the per-round
    // jobs of the runtime's service stage.
    let extractor = FeatureExtractor::new(
        MobileNetConfig::with_width(0.5),
        vec![
            ff_models::LAYER_LOCALIZED_TAP.to_string(),
            ff_models::LAYER_FULL_FRAME_TAP.to_string(),
        ],
    );
    let mut jobs: Vec<_> = (0..STREAMS)
        .map(|s| {
            let spec = if s % 2 == 0 {
                McSpec::full_frame(format!("g{s}"), s as u64 + 1)
            } else {
                McSpec::localized(format!("g{s}"), None, s as u64 + 1)
            };
            let mc = spec.build(&extractor, res, ff_core::McId(0));
            let frame = Tensor::filled(vec![res.height, res.width, 3], 0.25 + s as f32 * 0.1);
            (mc, frame)
        })
        .collect();
    let shard = PoolShard::new(2);
    let slots: Vec<Mutex<(Workspace, FeatureMaps)>> =
        (0..shard.width()).map(|_| Mutex::default()).collect();
    let round = |jobs: &mut [(ff_core::McRuntime, Tensor)]| {
        shard.run_items(jobs, |_, (mc, frame)| {
            let mut scratch = slots[parallel::slot()].lock().unwrap();
            let (ws, maps) = &mut *scratch;
            extractor.extract_into(frame, ws, maps);
            let _ = std::hint::black_box(mc.process_tap(maps.get(&mc.spec().tap)));
        })
    };

    // Warm-up: every slot's workspace and maps (jobs land on either
    // thread), smoothing windows, shard worker spawn, pack-buffer growth.
    for _ in 0..10 {
        let _ = round(&mut jobs);
    }
    let mut idle = [(); STREAMS];
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        let _ = shard.run_items(&mut idle, |_, _| ());
    }
    let dispatch = ALLOCS.load(Ordering::Relaxed) - before;

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        let _ = round(&mut jobs);
    }
    let fanout = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        fanout, dispatch,
        "{ROUNDS} rounds of {STREAMS} gather jobs allocated {fanout} times; \
         the dispatch alone allocates {dispatch}",
    );
}

/// Heap allocations of one whole gather-style [`EdgeNode`] run: 4 always-on
/// cameras whose every frame matches (so every frame is re-encoded for the
/// uplink and again for the archive), `max_batch` 8, a two-wide pool.
fn gather_node_run_allocs(frames: u64) -> u64 {
    use ff_core::archive::ArchiveConfig;
    use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
    use ff_core::{PipelineConfig, SmoothingConfig};
    use ff_video::scene::SceneConfig;
    use ff_video::SceneSource;

    let res = Resolution::new(64, 32);
    let cfg = EdgeNodeConfig::new(ShardLayout::single(2)).with_gather_batch(GatherBatch::default());
    let mut node = EdgeNode::new(cfg);
    for s in 0..4u64 {
        let scene = SceneConfig {
            resolution: res,
            seed: 60 + s,
            ..Default::default()
        };
        let mut pipeline = PipelineConfig::new(res, 15.0);
        pipeline.mobilenet = MobileNetConfig::with_width(0.25);
        pipeline.archive = Some(ArchiveConfig::default());
        let id = node.add_stream(Box::new(SceneSource::new(scene, frames)), pipeline);
        node.deploy(
            id,
            McSpec {
                threshold: 0.0,
                smoothing: SmoothingConfig { n: 1, k: 1 },
                ..McSpec::full_frame(format!("cam{s}"), 60 + s)
            },
        );
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = node.run();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.node.pipeline.frames_out, 4 * frames);
    allocs
}

/// The gather-style round loop itself — arrivals, the
/// one-pool-job-per-stream fan-out with each job's decode and extraction,
/// uplink — must not pay for its parallelism in allocations: the marginal
/// cost of a frame (a long run minus a short one, which cancels node
/// construction and warm-up) stays at 6.12 on this node, where it reads
/// 6.10. Arrivals queue pixels, each job decodes into its pool slot's
/// input tensor and hands the selected frame itself to its pipeline, so a
/// frame allocates neither a tensor nor a second copy of its pixels, and
/// `run_items` costs a few small `Vec`s per round. What is left is the
/// frame itself — render, pending entry, encoder output — not the loop.
#[test]
fn gather_round_loop_allocations_per_frame_do_not_rise() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    const SHORT: u64 = 64;
    const LONG: u64 = 192;
    let (short, long) = (gather_node_run_allocs(SHORT), gather_node_run_allocs(LONG));
    let per_frame = (long - short) as f64 / (4 * (LONG - SHORT)) as f64;
    eprintln!("gather-style round loop: {per_frame:.2} allocations per frame");
    assert!(
        per_frame <= 6.12,
        "gather-style steady state allocates {per_frame:.2} times per frame"
    );
}

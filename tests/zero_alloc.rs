//! Zero-allocation guarantee for the streaming hot path.
//!
//! The scaling story of the reproduction (Figures 5/6) rests on the edge
//! node sustaining per-frame inference indefinitely; allocator traffic is
//! both a throughput tax and a fragmentation risk on constrained nodes.
//! This suite installs a counting allocator and pins the contract from the
//! tensor-layer redesign: after one warm-up frame, feature extraction and
//! the microclassifier loop perform **zero heap allocations per frame**,
//! and the event write path — re-encode for upload, record to the archive —
//! allocates **exactly its output buffer** per frame. The same holds for the
//! whole-int8 backbone, single-frame and batched. The serial pipeline's
//! `process` decodes each frame into one tensor it reuses, so its count is
//! pinned at the frame's own bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

static TEST_SERIAL: AtomicUsize = AtomicUsize::new(0);

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

use ff_core::archive::{ArchiveConfig, EdgeArchive};
use ff_core::{FeatureExtractor, FilterForward, McSpec, PipelineConfig};
use ff_models::MobileNetConfig;
use ff_tensor::Tensor;
use ff_video::codec::{Encoder, EncoderConfig};
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{Frame, Resolution};

#[test]
fn extractor_and_mc_loop_are_allocation_free_after_warmup() {
    // Guard against a second test in this binary running concurrently and
    // polluting the counter.
    assert_eq!(TEST_SERIAL.fetch_add(1, Ordering::SeqCst), 0);

    let res = Resolution::new(96, 54);
    let mut extractor = FeatureExtractor::new(
        MobileNetConfig::with_width(0.25),
        vec![
            ff_models::LAYER_LOCALIZED_TAP.to_string(),
            ff_models::LAYER_FULL_FRAME_TAP.to_string(),
        ],
    );
    let full = McSpec::full_frame("ff", 1);
    let localized = McSpec::localized(
        "loc",
        Some(ff_data::CropRect {
            x0: 0.1,
            y0: 0.2,
            x1: 0.9,
            y1: 0.8,
        }),
        2,
    );
    // The windowed MC's first temporal conv has a fan-in of 1440: eight of
    // its patch rows are past the fused convolution's stack strip, so this
    // also pins that the per-thread strip stops growing after warm-up.
    let windowed = McSpec::windowed(
        "win",
        Some(ff_data::CropRect {
            x0: 0.2,
            y0: 0.1,
            x1: 0.8,
            y1: 0.9,
        }),
        3,
    );
    let mut mcs = vec![
        full.build(&extractor, res, ff_core::McId(0)),
        localized.build(&extractor, res, ff_core::McId(1)),
        windowed.build(&extractor, res, ff_core::McId(2)),
    ];

    let frame = Tensor::filled(vec![res.height, res.width, 3], 0.4);

    // Warm-up: grows every workspace to its steady-state set, fills the
    // smoothing windows, opens the (constant-decision) event, and pays the
    // one-time thread-pool spawn.
    for _ in 0..10 {
        let maps = extractor.extract(&frame);
        for mc in &mut mcs {
            let fm = maps.get(&mc.spec().tap);
            let _ = mc.process_tap(fm);
        }
    }

    let before = allocs();
    for _ in 0..20 {
        let _maps = extractor.extract(&frame);
    }
    let mid = allocs();
    assert_eq!(
        mid - before,
        0,
        "extraction allocated {} times over 20 frames",
        mid - before
    );
    for _ in 0..20 {
        let maps = extractor.extract(&frame);
        for mc in &mut mcs {
            let fm = maps.get(&mc.spec().tap);
            let _ = std::hint::black_box(mc.process_tap(fm));
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "hot loop allocated {} times over 20 frames",
        after - before
    );
    // The counter is process-wide, so the write path is checked from this
    // test rather than from a second one the harness could run (and
    // report on) concurrently.
    write_path_allocates_only_its_output_buffers();
    int8act_extraction_is_allocation_free_after_warmup();
    serial_process_allocates_only_its_frame_bookkeeping();
}

/// `FilterForward::process` after warm-up, on frames no MC matches (so
/// nothing is re-encoded): decode goes into a tensor the pipeline reuses,
/// extraction and the MC loop into their workspaces, and what is left per
/// frame is the pending entry — its copy of the pixels and its map node —
/// and the returned verdict list: 37 allocations over these 12 frames.
fn serial_process_allocates_only_its_frame_bookkeeping() {
    let res = Resolution::new(96, 54);
    let scene = SceneConfig {
        resolution: res,
        seed: 5,
        pedestrian_rate: 0.1,
        ..Default::default()
    };
    let clip: Vec<Frame> = Scene::new(scene).take(12).map(|(f, _)| f).collect();
    let mut pipeline = PipelineConfig::new(res, 15.0);
    pipeline.mobilenet = MobileNetConfig::with_width(0.25);
    let mut ff = FilterForward::new(pipeline);
    // A threshold no probability reaches: every verdict is "no match".
    ff.deploy(McSpec {
        threshold: 2.0,
        ..McSpec::full_frame("ff", 1)
    });
    ff.deploy(McSpec {
        threshold: 2.0,
        ..McSpec::windowed("win", None, 2)
    });
    for f in clip.iter().chain(&clip) {
        let _ = ff.process(f);
    }
    let before = allocs();
    for f in &clip {
        let _ = std::hint::black_box(ff.process(f));
    }
    assert_eq!(allocs() - before, 37, "process: allocations over 12 frames");
}

/// The whole-int8 backbone, one frame at a time and as a gathered batch:
/// its u8 scratch (quantized map, im2col codes, row scales and
/// zero-points) is thread-local and must stop growing after warm-up, like
/// the f32 workspace. At 96×54 every map fits one band; at 480×270 the
/// early layer pairs run in row bands, whose per-thread buffers come from
/// the extractor's workspace and must be recycled there.
fn int8act_extraction_is_allocation_free_after_warmup() {
    for (res, alpha, reps) in [
        (Resolution::new(96, 54), 0.25, 10),
        (Resolution::new(480, 270), 0.5, 3),
    ] {
        let mut extractor = FeatureExtractor::new(
            MobileNetConfig::with_width(alpha).with_precision(ff_tensor::Precision::Int8Act),
            vec![
                ff_models::LAYER_LOCALIZED_TAP.to_string(),
                ff_models::LAYER_FULL_FRAME_TAP.to_string(),
            ],
        );
        let frames: Vec<Tensor> = [0.2, 0.4, 0.6]
            .iter()
            .map(|&v| Tensor::filled(vec![res.height, res.width, 3], v))
            .collect();
        for _ in 0..3 {
            let _ = extractor.extract(&frames[0]);
            let _ = extractor.extract_batch(&frames);
        }
        let what = format!("int8act {}x{}", res.width, res.height);
        let before = allocs();
        for _ in 0..reps {
            let _ = std::hint::black_box(extractor.extract(&frames[0]));
        }
        assert_eq!(allocs() - before, 0, "{what} extract allocated");
        let before = allocs();
        for _ in 0..reps {
            let _ = std::hint::black_box(extractor.extract_batch(&frames));
        }
        assert_eq!(allocs() - before, 0, "{what} extract_batch allocated");
    }
}

/// `Encoder::encode` and `EdgeArchive::record` after warm-up: one
/// allocation per frame, the returned bitstream. Working pictures, the bit
/// buffer and per-macroblock levels are per-thread scratch or on the stack.
fn write_path_allocates_only_its_output_buffers() {
    let res = Resolution::new(96, 54);
    let scene = SceneConfig {
        resolution: res,
        seed: 3,
        pedestrian_rate: 0.1,
        car_rate: 0.05,
        ..Default::default()
    };
    // Two GOPs, so a second pass meets the same frame at the same GOP phase.
    let clip: Vec<Frame> = Scene::new(scene).take(30).map(|(f, _)| f).collect();
    let measured = clip.len() as u64;

    let mut upload = Encoder::new(EncoderConfig::with_bitrate(res, 15.0, 50_000.0));
    let mut fixed_qp = Encoder::new(EncoderConfig::with_qp(res, 15.0, 20));
    for enc in [&mut upload, &mut fixed_qp] {
        // Warm-up sizes the scratch and lets the rate controller settle; a
        // forced keyframe mid-stream must reuse the reference it has.
        for f in clip.iter().chain(&clip) {
            let _ = enc.encode(f);
        }
        enc.force_keyframe();
        let before = allocs();
        for f in &clip {
            let _ = std::hint::black_box(enc.encode(f));
        }
        assert_eq!(allocs() - before, measured, "encode: one output per frame");
    }

    // The archive keeps every bitstream in a doubling `Vec`: 40 frames of
    // warm-up leave room for 24 more, so the window sees no regrowth.
    let mut archive = EdgeArchive::new(ArchiveConfig::default(), res, 15.0);
    for f in clip.iter().cycle().take(40) {
        archive.record(f);
    }
    let before = allocs();
    for f in clip.iter().take(20) {
        std::hint::black_box(archive.record(f));
    }
    assert_eq!(allocs() - before, 20, "record: one output per frame");
}

//! Hostile input to the decoder: truncated, bit-flipped and random streams
//! must come back as `Ok` or a `DecodeError` — never a panic, and never an
//! allocation out of proportion to the bytes that asked for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ff_video::codec::{Decoder, EncodedFrame, Encoder, EncoderConfig, FrameType};
use ff_video::scene::{Scene, SceneConfig};
use ff_video::Resolution;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Records the largest single request each thread makes.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // The cell has no destructor and no lazy initialiser, so touching it
    // from inside the allocator cannot recurse; `try_with` covers teardown.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

const RES: Resolution = Resolution::new(64, 48);

/// A valid stream: I-frame, P-frames, and a second I-frame from the GOP.
fn valid_stream(seed: u64, bitrate: bool) -> Vec<EncodedFrame> {
    let scene = SceneConfig {
        resolution: RES,
        seed,
        pedestrian_rate: 0.2,
        car_rate: 0.1,
        ..Default::default()
    };
    let mut cfg = if bitrate {
        EncoderConfig::with_bitrate(RES, 15.0, 50_000.0)
    } else {
        EncoderConfig::with_qp(RES, 15.0, 20)
    };
    cfg.gop = 4;
    let mut enc = Encoder::new(cfg);
    Scene::new(scene)
        .take(6)
        .map(|(f, _)| enc.encode(&f))
        .collect()
}

/// Decodes `stream` in order, asserting the allocation bound per frame.
///
/// An intra block costs at least 14 bits, so a luma plane (4 bytes a
/// sample, 64 samples a block) is at most 8·256/14 ≈ 146 bytes per input
/// byte; a P-frame may be tiny, but only ever allocates a picture the size
/// of its reference, which an earlier frame of the stream paid for.
fn decode_all(stream: &[EncodedFrame]) {
    let mut dec = Decoder::new();
    let mut reference_bytes = 0;
    for e in stream {
        LARGEST.with(|c| c.set(0));
        let result = dec.decode(e);
        let largest = LARGEST.with(Cell::get);
        let budget = (160 * e.data.len() + 4096).max(reference_bytes);
        assert!(
            largest <= budget,
            "{} input bytes, a {largest}-byte allocation, {result:?}",
            e.data.len()
        );
        if let Ok(frame) = &result {
            reference_bytes = reference_bytes.max(4 * frame.resolution().pixels());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_streams_never_panic_or_overallocate(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut stream = valid_stream(seed % 4, seed % 2 == 0);
        decode_all(&stream);
        for _ in 0..rng.gen_range(1..4) {
            let victim = rng.gen_range(0..stream.len());
            let data = &mut stream[victim].data;
            match rng.gen_range(0..3) {
                0 => data.truncate(rng.gen_range(0..data.len())),
                1 => {
                    // Anywhere, the header's size, type and QP bits included.
                    for _ in 0..rng.gen_range(1..9) {
                        let bit = rng.gen_range(0..data.len() * 8);
                        data[bit / 8] ^= 0x80 >> (bit % 8);
                    }
                }
                _ => {
                    // Header bits only: a wrong size on a full payload.
                    let bit = rng.gen_range(0..39.min(data.len() * 8));
                    data[bit / 8] ^= 0x80 >> (bit % 8);
                }
            }
        }
        decode_all(&stream);
    }

    #[test]
    fn random_bytes_never_panic_or_overallocate(seed in any::<u64>(), len in 0usize..400) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut stream = valid_stream(0, false);
        for e in &mut stream[1..] {
            let mut data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            // Half the time keep a plausible header so the payload is reached.
            if rng.gen_range(0..2) == 0 && len > 5 {
                data[..4].copy_from_slice(&[0, 64, 0, 48]);
            }
            *e = EncodedFrame { data, frame_type: FrameType::P, qp: 0 };
        }
        decode_all(&stream);
    }
}

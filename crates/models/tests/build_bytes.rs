//! What building a network leaves on the heap: its weights, and nothing of
//! their size beside them.
//!
//! A deployed network only runs inference, so a gradient buffer per
//! parameter would double every base DNN's and every microclassifier's
//! footprint — the memory a many-classifier node runs out of first. This
//! suite counts the bytes a freshly built MobileNet and each
//! microclassifier kind still hold, and pins them between their parameter
//! bytes and a quarter above (layer structs, names, shape vectors).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ff_models::{FullFrameConfig, LocalizedConfig, MobileNetConfig, WindowedConfig};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Bytes still allocated after `build` returns (the network kept alive),
/// and its parameter count.
fn held_by<T>(build: impl FnOnce() -> T, params: impl FnOnce(&T) -> usize) -> (i64, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let net = build();
    let held = LIVE.load(Ordering::Relaxed) - before;
    let n = params(&net);
    drop(net);
    (held, n)
}

#[test]
fn built_networks_hold_about_their_parameter_bytes() {
    let cases: [(&str, (i64, usize)); 4] = [
        (
            "mobilenet 0.25",
            held_by(
                || MobileNetConfig::with_width(0.25).build(),
                |n| n.param_count(),
            ),
        ),
        (
            "full_frame",
            held_by(|| FullFrameConfig::new(256, 1).build(), |n| n.param_count()),
        ),
        (
            "localized",
            held_by(
                || LocalizedConfig::new(4, 5, 128, 2).build(),
                |n| n.param_count(),
            ),
        ),
        (
            "windowed",
            held_by(
                || WindowedConfig::new(4, 5, 128, 3).build(),
                |n| n.param_count(),
            ),
        ),
    ];
    for (name, (held, params)) in cases {
        let weights = 4 * params as i64;
        eprintln!("{name}: {params} parameters, {weights} weight bytes, {held} bytes held");
        assert!(
            held >= weights,
            "{name}: holds {held} B, below its {weights} B of weights"
        );
        assert!(
            held <= weights + weights / 4,
            "{name}: holds {held} B for {weights} B of weights — a second buffer per parameter?"
        );
    }
}

//! Bit-exactness pin for the three microclassifiers at f32.
//!
//! The MCs run `Conv2d` and `Dense` against their raw `[K, N]` weights —
//! GEMMs of one to a few dozen rows whose `B` is never prepacked — so they
//! take paths the backbone's golden (`ff-nn`'s `int8act_golden.rs`) never
//! reaches. Each architecture runs on seeded feature maps of the shapes the
//! `mc_fanout` benchmark workload taps (MobileNet 0.5 on 120×67:
//! `conv5_6/sep` is `[3, 4, 512]`, `conv4_2/sep` is `[5, 8, 256]`), and an
//! FNV-1a digest over the bits of every unit's output plus the element count
//! is compared with values recorded before the f32 GEMM tile was rewritten.
//!
//! The tables depend only on whether the *build* has FMA (every GEMM and
//! depthwise chain goes through `ff_tensor`'s `fmadd`), never on the host.

use ff_models::{FullFrameConfig, LocalizedConfig, WindowedConfig};
use ff_nn::{Param, Phase, Sequential};
use ff_tensor::{Tensor, Workspace};

/// A seeded post-ReLU-looking `[h, w, c]` map: about a third exact zeros,
/// the rest in `(0, 2)`.
fn feature_map(h: usize, w: usize, c: usize, seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    let data = (0..h * w * c)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let u = (state >> 8) as f32 / (1 << 24) as f32;
            (3.0 * u - 1.0).max(0.0)
        })
        .collect();
    Tensor::from_vec(vec![h, w, c], data)
}

/// Biases initialise to zero, which would leave the `+ bias` step of every
/// layer unpinned; give each a seeded value in `(-0.1, 0.1)`.
fn seed_biases(params: Vec<&mut Param>, seed: u32) {
    let mut state = seed.wrapping_mul(2_246_822_519).wrapping_add(7);
    for p in params.into_iter().filter(|p| p.value.rank() == 1) {
        for v in p.value.data_mut() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *v = ((state >> 8) as f32 / (1 << 24) as f32 - 0.5) * 0.2;
        }
    }
}

struct Digest {
    hash: u64,
    elems: usize,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            elems: 0,
        }
    }

    fn add(&mut self, t: &Tensor) {
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                self.hash ^= u64::from(b);
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.elems += t.len();
    }
}

/// Walks `net` unit by unit over `x`, digesting every unit's output.
fn walk(net: &mut Sequential, x: &Tensor, ws: &mut Workspace, digest: &mut Digest) {
    let mut x = x.clone();
    for i in 0..net.len() {
        let y = net.layer_at_mut(i).forward_ws(&x, Phase::Inference, ws);
        digest.add(&y);
        ws.recycle(std::mem::replace(&mut x, y));
    }
}

/// The `conv4_2/sep` tap under `CropRect { x0: 0.0, y0: 0.0, x1: 0.6, y1:
/// 0.7 }`: `ff_core::crop_to_grid` maps it onto rows `0..4`, columns `0..5`
/// of the `5×8` grid.
fn cropped_tap(seed: u32) -> Tensor {
    feature_map(5, 8, 256, seed).crop3(0, 4, 0, 5)
}

fn full_frame() -> Digest {
    let mut net = FullFrameConfig::new(512, 21).build();
    seed_biases(net.params_mut(), 1);
    let (mut ws, mut digest) = (Workspace::new(), Digest::new());
    for seed in 0..3 {
        walk(
            &mut net,
            &feature_map(3, 4, 512, 40 + seed),
            &mut ws,
            &mut digest,
        );
    }
    digest
}

fn localized() -> Digest {
    let mut net = LocalizedConfig::new(4, 5, 256, 22).build();
    seed_biases(net.params_mut(), 2);
    let (mut ws, mut digest) = (Workspace::new(), Digest::new());
    for seed in 0..3 {
        walk(&mut net, &cropped_tap(50 + seed), &mut ws, &mut digest);
    }
    digest
}

/// Seven frames through the shared projection, and the three windows of
/// five they hold through the tail; projections and logits are digested
/// (the tail's units are private to the classifier).
fn windowed() -> Digest {
    let mut mc = WindowedConfig::new(4, 5, 256, 23).build();
    seed_biases(mc.params_mut(), 3);
    let (mut ws, mut digest) = (Workspace::new(), Digest::new());
    let projected: Vec<Tensor> = (0..7)
        .map(|seed| mc.project_ws(&cropped_tap(60 + seed), Phase::Inference, &mut ws))
        .collect();
    for p in &projected {
        digest.add(p);
    }
    for window in projected.windows(5) {
        let refs: Vec<&Tensor> = window.iter().collect();
        digest.add(&mc.classify_window_ws(&refs, Phase::Inference, &mut ws));
    }
    digest
}

/// `(architecture, digest, elements)`.
type Golden = (&'static str, u64, usize);

#[cfg(target_feature = "fma")]
const GOLDEN: [Golden; 3] = [
    ("full_frame", 0x994a69f85b0087e1, 4647),
    ("localized", 0xc36f76f6783bbddb, 4851),
    ("windowed", 0x3be9a22e5111fecf, 4483),
];

#[cfg(not(target_feature = "fma"))]
const GOLDEN: [Golden; 3] = [
    ("full_frame", 0xbaa3c4903d26aec7, 4647),
    ("localized", 0xa6fc81e0c28f8df0, 4851),
    ("windowed", 0x334065cc48233e02, 4483),
];

#[test]
fn f32_microclassifier_outputs_match_recorded_digests() {
    let mut failed = false;
    for (name, hash, elems) in GOLDEN {
        let got = match name {
            "full_frame" => full_frame(),
            "localized" => localized(),
            _ => windowed(),
        };
        // Printed in table form so a deliberate numeric change can be
        // re-recorded from one failing run.
        println!("    ({name:?}, {:#018x}, {}),", got.hash, got.elems);
        failed |= (got.hash, got.elems) != (hash, elems);
    }
    assert!(!failed, "a microclassifier bit moved; see the table above");
}

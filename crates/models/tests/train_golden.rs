//! Bit-exactness pin for microclassifier **training**.
//!
//! Each architecture — a full-frame MC, a localized MC, and a windowed MC
//! whose shared 1×1 projection takes one gradient per frame of its window —
//! is trained for a few steps by `Sgd` (momentum) and by `Adam` with
//! decoupled weight decay, on seeded feature maps and alternating labels.
//! Every run starts with one optimizer step before any backward pass, so a
//! parameter that has never received a gradient must move exactly as if
//! its gradient were zero (momentum and weight decay only). An FNV-1a
//! digest over the bits of every parameter afterwards, plus the parameter
//! count, is compared with values recorded when every parameter still
//! carried a zero-filled gradient from construction.
//!
//! The tables depend only on whether the *build* has FMA (the forward and
//! backward GEMMs go through `ff_tensor`'s `fmadd`), never on the host.

use ff_models::{FullFrameConfig, LocalizedConfig, WindowedConfig};
use ff_nn::{bce_with_logits_grad, Adam, Param, Phase, Sgd};
use ff_tensor::Tensor;

/// Optimizer steps after the gradient-free first one.
const STEPS: usize = 4;

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

fn label(step: usize) -> Tensor {
    Tensor::from_vec(vec![1], vec![(step % 2) as f32])
}

/// FNV-1a over every parameter's bits, and the parameter count.
fn digest(params: Vec<&mut Param>) -> (u64, usize) {
    let (mut hash, mut elems) = (0xcbf2_9ce4_8422_2325u64, 0);
    for p in params {
        for v in p.value.data() {
            for b in v.to_bits().to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        elems += p.len();
    }
    (hash, elems)
}

/// The two optimizers under test, behind one call.
enum Opt {
    Sgd(Sgd),
    AdamW(Adam),
}

impl Opt {
    fn new(adam: bool) -> Self {
        if adam {
            Opt::AdamW(Adam::new(0.01).with_weight_decay(0.05))
        } else {
            Opt::Sgd(Sgd::new(0.02))
        }
    }

    fn step(&mut self, mut params: Vec<&mut Param>) {
        match self {
            Opt::Sgd(o) => o.step(&mut params),
            Opt::AdamW(o) => o.step(&mut params),
        }
    }
}

fn full_frame(adam: bool) -> (u64, usize) {
    let mut net = FullFrameConfig::new(48, 31).build();
    let mut opt = Opt::new(adam);
    opt.step(net.params_mut());
    for step in 0..STEPS {
        let z = net.forward(&feature_map(3, 4, 48, 70 + step as u32), Phase::Train);
        let (_, g) = bce_with_logits_grad(&z, &label(step), 1.0);
        net.backward(&g);
        opt.step(net.params_mut());
    }
    digest(net.params_mut())
}

fn localized(adam: bool) -> (u64, usize) {
    let mut net = LocalizedConfig::new(4, 5, 24, 32).build();
    let mut opt = Opt::new(adam);
    opt.step(net.params_mut());
    for step in 0..STEPS {
        let z = net.forward(&feature_map(4, 5, 24, 80 + step as u32), Phase::Train);
        let (_, g) = bce_with_logits_grad(&z, &label(step), 1.0);
        net.backward(&g);
        opt.step(net.params_mut());
    }
    digest(net.params_mut())
}

/// Each step projects a fresh window of five frames through the shared
/// projection, so its weights accumulate five gradients before the step.
fn windowed(adam: bool) -> (u64, usize) {
    let mut mc = WindowedConfig::new(4, 5, 24, 33).build();
    let mut opt = Opt::new(adam);
    opt.step(mc.params_mut());
    for step in 0..STEPS {
        let projected: Vec<Tensor> = (0..mc.window())
            .map(|f| {
                let map = feature_map(4, 5, 24, 90 + (step * 7 + f) as u32);
                mc.project(&map, Phase::Train)
            })
            .collect();
        let refs: Vec<&Tensor> = projected.iter().collect();
        let z = mc.classify_window(&refs, Phase::Train);
        let (_, g) = bce_with_logits_grad(&z, &label(step), 1.0);
        mc.backward_window(&g);
        opt.step(mc.params_mut());
    }
    digest(mc.params_mut())
}

/// `(architecture, optimizer, digest, parameters)`.
type Golden = (&'static str, &'static str, u64, usize);

#[cfg(target_feature = "fma")]
const GOLDEN: [Golden; 6] = [
    ("full_frame", "sgd", 0xe34d5962fd238b60, 2657),
    ("full_frame", "adamw", 0xf38d02fb270242b4, 2657),
    ("localized", "sgd", 0xb5b30ccfaf72c16c, 40145),
    ("localized", "adamw", 0x6fcdb17fd440f533, 40145),
    ("windowed", "sgd", 0x6914467c43ca5d3e, 94961),
    ("windowed", "adamw", 0xa8321001c2229cd6, 94961),
];

#[cfg(not(target_feature = "fma"))]
const GOLDEN: [Golden; 6] = [
    ("full_frame", "sgd", 0x58496eb689dc579f, 2657),
    ("full_frame", "adamw", 0xc553db07bb52d78c, 2657),
    ("localized", "sgd", 0x4c593225b5bdc68d, 40145),
    ("localized", "adamw", 0x0eb4677a22cf6600, 40145),
    ("windowed", "sgd", 0xaea227d0b261851e, 94961),
    ("windowed", "adamw", 0x1eda73f6d8f9e8ea, 94961),
];

#[test]
fn trained_microclassifier_weights_match_recorded_digests() {
    let mut failed = false;
    for (name, opt, hash, elems) in GOLDEN {
        let adam = opt == "adamw";
        let got = match name {
            "full_frame" => full_frame(adam),
            "localized" => localized(adam),
            _ => windowed(adam),
        };
        // Printed in table form so a deliberate numeric change can be
        // re-recorded from one failing run.
        println!("    ({name:?}, {opt:?}, {:#018x}, {}),", got.0, got.1);
        failed |= got != (hash, elems);
    }
    assert!(!failed, "a trained weight bit moved; see the table above");
}

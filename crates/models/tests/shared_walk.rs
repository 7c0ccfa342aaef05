//! One backbone, many walkers: inference is immutable, so both threads of
//! a two-wide pool can walk the same `&Sequential` at once — each with its
//! own workspace, packing the weights on first use between them — and every
//! frame's taps equal what a serial walk of an identical network gives,
//! bit for bit.

use std::sync::{Barrier, Mutex};

use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_nn::{Layer, Precision, Sequential};
use ff_tensor::{parallel, PoolShard, Tensor, Workspace};
use rand::{Rng, SeedableRng};

/// A calibrated α = 0.25 MobileNet at `precision`.
fn backbone(precision: Precision, calibration: &Tensor) -> Sequential {
    let mut net = MobileNetConfig::with_width(0.25)
        .with_precision(precision)
        .build();
    let _ = net.calibrate(vec![calibration.clone()]);
    net
}

#[test]
fn one_backbone_walked_from_both_pool_threads_gives_the_serial_taps() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let frames: Vec<Tensor> = (0..6)
        .map(|_| {
            let data = (0..32 * 64 * 3).map(|_| rng.gen_range(0.0..1.0)).collect();
            Tensor::from_vec(vec![32, 64, 3], data)
        })
        .collect();
    for precision in [Precision::F32, Precision::Int8Act] {
        let serial = backbone(precision, &frames[0]);
        let shared = backbone(precision, &frames[0]);
        let mut taps = [LAYER_LOCALIZED_TAP, LAYER_FULL_FRAME_TAP]
            .map(|t| serial.index_of(t).expect("MobileNet tap"));
        taps.sort_unstable();
        let mut ws = Workspace::new();
        let gold: Vec<Vec<Tensor>> = frames
            .iter()
            .map(|x| {
                let mut outs = Vec::new();
                serial.infer_taps(x, 1, &taps, &mut ws, &mut outs);
                outs
            })
            .collect();

        let shard = PoolShard::new(2);
        let slots: Vec<Mutex<Workspace>> = (0..shard.width()).map(|_| Mutex::default()).collect();
        // Two items meet at the barrier, so both threads are inside the
        // one network at once — the first pair while its panels pack.
        let both = Barrier::new(2);
        for pair in (0..frames.len()).collect::<Vec<_>>().chunks(2) {
            let mut items: Vec<(usize, Vec<Tensor>)> =
                pair.iter().map(|&f| (f, Vec::new())).collect();
            let done = shard.run_items(&mut items, |_, (f, outs)| {
                both.wait();
                let mut ws = slots[parallel::slot()].lock().unwrap();
                shared.infer_taps(&frames[*f], 1, &taps, &mut ws, outs);
            });
            assert!(done.iter().all(Result::is_ok));
            for (f, outs) in &items {
                for (t, (got, want)) in outs.iter().zip(&gold[*f]).enumerate() {
                    let what = format!("{precision:?} frame {f} tap {t}");
                    assert_eq!(got.dims(), want.dims(), "{what}");
                    assert!(
                        got.data()
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{what}"
                    );
                }
            }
        }
    }
}

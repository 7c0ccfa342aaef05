//! Scalable multi-tenancy (§2.2.3): dozens of applications install
//! microclassifiers on one edge node, all sharing a single base-DNN pass.
//! The stream runs through the [`EdgeNode`] runtime (decode → extract →
//! MC → uplink, round by round), and its cost growth is compared against running
//! one discrete classifier per application.
//!
//! ```sh
//! cargo run --release --example multi_tenant [-- --mcs 20]
//! ```

use std::time::Instant;

use ff_core::baselines::DcBank;
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, ShardLayout};
use ff_core::{McKind, McSpec, PipelineConfig};
use ff_data::CropRect;
use ff_models::{DcConfig, MobileNetConfig};
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{RecordedSource, Resolution};

fn main() {
    let n_mcs: usize = std::env::args()
        .skip_while(|a| a != "--mcs")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);

    let res = Resolution::new(160, 90);
    let scene_cfg = SceneConfig {
        resolution: res,
        seed: 3,
        pedestrian_rate: 0.03,
        car_rate: 0.02,
        ..Default::default()
    };
    let frames: Vec<_> = Scene::new(scene_cfg).take(40).map(|(f, _)| f).collect();

    // FilterForward under the runtime, with a diverse mix of tenants:
    // different architectures and different crops, all on one shared
    // extraction. The recorded clip replays through the node's round loop.
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(budget)));
    let mut cfg = PipelineConfig::new(res, scene_cfg.fps);
    cfg.mobilenet = MobileNetConfig::with_width(0.5);
    cfg.archive = None;
    let stream = node.add_stream(
        Box::new(RecordedSource::new(frames.clone(), scene_cfg.fps)),
        cfg,
    );
    for i in 0..n_mcs {
        let crop = match i % 3 {
            0 => None,
            1 => Some(CropRect {
                x0: 0.0,
                y0: 0.5,
                x1: 1.0,
                y1: 1.0,
            }),
            _ => Some(CropRect {
                x0: 0.3,
                y0: 0.3,
                x1: 0.8,
                y1: 0.9,
            }),
        };
        let spec = match i % 3 {
            0 => McSpec::full_frame(format!("app{i}"), i as u64),
            1 => McSpec::localized(format!("app{i}"), crop, i as u64),
            _ => McSpec::windowed(format!("app{i}"), crop, i as u64),
        };
        assert_eq!(
            spec.kind,
            [McKind::FullFrame, McKind::Localized, McKind::Windowed][i % 3]
        );
        node.deploy(stream, spec);
    }

    let report = node.run();
    let ff_time = report.node.wall.as_secs_f64();
    let timers = report.streams[0].timers;

    // Baseline: one NoScope-style discrete classifier per application.
    let mut bank = DcBank::new(DcConfig::representative(res.height, res.width, 5), n_mcs);
    let tensors: Vec<_> = frames.iter().map(|f| f.to_tensor()).collect();
    let t1 = Instant::now();
    for t in &tensors {
        let _ = bank.classify_all(t);
    }
    let dc_time = t1.elapsed().as_secs_f64();

    println!(
        "{n_mcs} concurrent applications on {} frames at {res}:",
        frames.len()
    );
    println!(
        "  FilterForward (EdgeNode runtime): {:.2} fps ({:.1} ms base DNN + {:.1} ms all MCs per frame)",
        report.node.aggregate_fps(),
        timers.base_per_frame() * 1e3,
        timers.mcs_per_frame() * 1e3
    );
    println!(
        "  {n_mcs} discrete classifiers: {:.2} fps",
        frames.len() as f64 / dc_time
    );
    println!(
        "  speedup: {:.1}x (the paper reports FF overtaking DCs beyond 3–4 tenants)",
        dc_time / ff_time
    );
}

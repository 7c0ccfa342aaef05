//! Load generation: pre-rendered clips, the looping clip source, the
//! poll-stamping source wrapper, and threshold calibration.
//!
//! Everything here runs before any clock that feeds a metric starts; its
//! cost is reported as `loadgen_s`, never as `setup_s`.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use ff_core::smoothing::{KVotingSmoother, SmoothingConfig};
use ff_core::{FeatureExtractor, FeatureMaps, McId, McModel, McRuntime, McSpec};
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_nn::Phase;
use ff_tensor::Tensor;
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{Frame, FrameSource, Resolution, SourcePoll};

/// Frames per second of every generated camera.
pub const FPS: f64 = 15.0;

/// Renders `n` frames of a busy street scene.
pub fn render_clip(res: Resolution, seed: u64, n: usize) -> Arc<[Frame]> {
    let cfg = SceneConfig {
        resolution: res,
        fps: FPS,
        seed,
        pedestrian_rate: 0.05,
        car_rate: 0.03,
        ..Default::default()
    };
    Scene::new(cfg).take(n).map(|(f, _)| f).collect()
}

/// Replays a shared pre-rendered clip from an offset, looping, for a fixed
/// number of frames: the product receives only generated inputs.
pub struct ClipSource {
    clip: Arc<[Frame]>,
    pos: usize,
    remaining: u64,
}

impl ClipSource {
    pub fn new(clip: Arc<[Frame]>, offset: usize, frames: u64) -> ClipSource {
        let pos = offset % clip.len();
        ClipSource {
            clip,
            pos,
            remaining: frames,
        }
    }
}

impl FrameSource for ClipSource {
    fn resolution(&self) -> Resolution {
        self.clip[0].resolution()
    }

    fn fps(&self) -> f64 {
        FPS
    }

    fn next_frame(&mut self) -> Option<Frame> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let f = self.clip[self.pos].clone();
        self.pos = (self.pos + 1) % self.clip.len();
        Some(f)
    }
}

/// Where [`Stamped`] sources of one node run leave their service
/// intervals: one fixed slice per stream, written without locks.
pub struct Stamps {
    gaps_ns: Box<[AtomicU32]>,
    counts: Box<[AtomicU32]>,
    per_stream: usize,
}

impl Stamps {
    pub fn new(streams: usize, per_stream: usize) -> Arc<Stamps> {
        Arc::new(Stamps {
            gaps_ns: (0..streams * per_stream)
                .map(|_| AtomicU32::new(0))
                .collect(),
            counts: (0..streams).map(|_| AtomicU32::new(0)).collect(),
            per_stream,
        })
    }

    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Relaxed);
        }
    }

    fn push(&self, stream: usize, gap_ns: u64) {
        let i = self.counts[stream].fetch_add(1, Relaxed) as usize;
        if i < self.per_stream {
            self.gaps_ns[stream * self.per_stream + i]
                .store(gap_ns.min(u32::MAX as u64) as u32, Relaxed);
        }
    }

    /// Intervals recorded by `stream` since the last [`Self::reset`], in
    /// milliseconds.
    pub fn intervals_ms(&self, stream: usize) -> impl Iterator<Item = f32> + '_ {
        let n = (self.counts[stream].load(Relaxed) as usize).min(self.per_stream);
        self.gaps_ns[stream * self.per_stream..][..n]
            .iter()
            .map(|g| g.load(Relaxed) as f32 / 1e6)
    }
}

/// Stamps every poll of the wrapped source. A camera's service interval
/// runs from the moment a poll handed the node a frame to the moment the
/// node polls that camera again: the time until the system was ready for
/// the camera's next frame.
pub struct Stamped<S> {
    inner: S,
    stream: usize,
    t0: Instant,
    accepted_ns: Option<u64>,
    sink: Arc<Stamps>,
}

impl<S: FrameSource> Stamped<S> {
    pub fn new(inner: S, stream: usize, sink: Arc<Stamps>) -> Stamped<S> {
        Stamped {
            inner,
            stream,
            t0: Instant::now(),
            accepted_ns: None,
            sink,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

impl<S: FrameSource> FrameSource for Stamped<S> {
    fn resolution(&self) -> Resolution {
        self.inner.resolution()
    }

    fn fps(&self) -> f64 {
        self.inner.fps()
    }

    fn next_frame(&mut self) -> Option<Frame> {
        self.inner.next_frame()
    }

    fn poll_frame(&mut self) -> SourcePoll {
        if let Some(accepted) = self.accepted_ns.take() {
            self.sink.push(self.stream, self.now() - accepted);
        }
        let poll = self.inner.poll_frame();
        if matches!(poll, SourcePoll::Frame(_)) {
            self.accepted_ns = Some(self.now());
        }
        poll
    }

    fn duty_fraction(&self) -> f64 {
        self.inner.duty_fraction()
    }
}

/// A base-DNN extractor serving the two taps every classifier kind reads.
pub fn extractor(cfg: MobileNetConfig) -> FeatureExtractor {
    FeatureExtractor::new(
        cfg,
        vec![
            LAYER_LOCALIZED_TAP.to_string(),
            LAYER_FULL_FRAME_TAP.to_string(),
        ],
    )
}

/// Raw probabilities of one classifier over a clip, as its deployed
/// runtime computes them: frame by frame for the single-frame kinds, and
/// over the real temporal window (edges replicated, as
/// `McRuntime::process` does) for the windowed kind, whose
/// `prob_single` would only give the zero-motion approximation.
fn score_one(mc: &mut McRuntime, taps: &[&Tensor]) -> Vec<f32> {
    if !matches!(mc.model(), McModel::Windowed(_)) {
        return taps.iter().map(|t| mc.prob_single(&mc.crop(t))).collect();
    }
    let crops: Vec<Tensor> = taps.iter().map(|t| mc.crop(t).into_owned()).collect();
    let McModel::Windowed(wc) = mc.model_mut() else {
        unreachable!("checked above")
    };
    let projected: Vec<Tensor> = crops
        .iter()
        .map(|c| wc.project(c, Phase::Inference))
        .collect();
    let (w, last) = (wc.window() as i64, projected.len() as i64 - 1);
    (0..=last)
        .map(|c| {
            let window: Vec<&Tensor> = (0..w)
                .map(|i| &projected[(c - (w - 1) / 2 + i).clamp(0, last) as usize])
                .collect();
            ff_nn::sigmoid(wc.classify_window(&window, Phase::Inference).data()[0])
        })
        .collect()
}

/// Per-classifier raw scores over a clip: `scores[mc][frame]`.
pub fn score_clip(
    ex: &mut FeatureExtractor,
    res: Resolution,
    specs: &[McSpec],
    clip: &[Frame],
) -> Vec<Vec<f32>> {
    let maps: Vec<FeatureMaps> = clip
        .iter()
        .map(|f| ex.extract(&f.to_tensor()).clone())
        .collect();
    specs
        .iter()
        .map(|spec| {
            let mut mc = spec.build(ex, res, McId(0));
            let taps: Vec<&Tensor> = maps.iter().map(|m| m.get(&spec.tap)).collect();
            score_one(&mut mc, &taps)
        })
        .collect()
}

/// The threshold at which `rank` of the scores are positive (`rank` 0
/// matches nothing).
fn threshold_at(sorted_desc: &[f32], rank: usize) -> f32 {
    match rank {
        0 => 1.5,
        r => sorted_desc[(r - 1).min(sorted_desc.len() - 1)],
    }
}

/// Calibration level `l` over `n` classifiers lets `l / n` of each one's
/// scores through, and one more for the first `l % n` of them: steps fine
/// enough to hit a share of frames even with a thousand classifiers.
fn rank_at(level: usize, n: usize, mc: usize) -> usize {
    level / n + usize::from(mc < level % n)
}

/// Frames uploaded at a calibration level: per camera, the frames some
/// classifier of that camera marks positive after the product's own
/// K-voting; summed over cameras.
fn uploads_at(
    scores: &[Vec<f32>],
    sorted: &[Vec<f32>],
    cameras: &[Range<usize>],
    level: usize,
    smoothing: SmoothingConfig,
) -> usize {
    let mut uploads = 0;
    for camera in cameras {
        let mut any = vec![false; scores[camera.start].len()];
        for i in camera.clone() {
            let thr = threshold_at(&sorted[i], rank_at(level, scores.len(), i));
            let mut sm = KVotingSmoother::new(smoothing);
            let mut mark = |(f, pos): (u64, bool)| any[f as usize] |= pos;
            for &p in &scores[i] {
                if let Some(d) = sm.push(p >= thr) {
                    mark(d);
                }
            }
            sm.finish().into_iter().for_each(mark);
        }
        uploads += any.iter().filter(|&&a| a).count();
    }
    uploads
}

/// Sets each classifier's threshold to a quantile of its own scores,
/// (nearly) the same quantile for all, chosen so that the share of frames
/// uploaded comes closest to `target_share` without being zero.
/// `scores[mc]` are the classifier's scores over the frames its camera
/// will see, and `cameras` says which classifiers share a camera. Untrained
/// classifiers at the default 0.5 match every frame, which is not the
/// paper's regime.
pub fn calibrate_thresholds(
    specs: &mut [McSpec],
    scores: &[Vec<f32>],
    cameras: &[Range<usize>],
    target_share: f64,
) {
    let n = scores.len();
    let frames: usize = cameras.iter().map(|c| scores[c.start].len()).sum();
    let longest = scores.iter().map(Vec::len).max().unwrap_or(0);
    let sorted: Vec<Vec<f32>> = scores
        .iter()
        .map(|s| {
            let mut d = s.clone();
            d.sort_by(|a, b| b.total_cmp(a));
            d
        })
        .collect();
    let smoothing = specs[0].smoothing;
    let target = (target_share * frames as f64).max(1.0);
    let uploads = |level| uploads_at(scores, &sorted, cameras, level, smoothing) as f64;
    // Uploads grow with the level: bisect for the first level that reaches
    // the target, then take whichever of it and the one before is closer.
    let (mut lo, mut hi) = (0, n * longest);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if uploads(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let level = if uploads(lo) >= 1.0 && target - uploads(lo) < uploads(hi) - target {
        lo
    } else {
        hi
    };
    for (i, (spec, d)) in specs.iter_mut().zip(&sorted).enumerate() {
        spec.threshold = threshold_at(d, rank_at(level, n, i));
    }
}

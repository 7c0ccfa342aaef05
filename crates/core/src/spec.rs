//! Microclassifier deployment: the spec an application ships to the edge
//! (§3.2: "the developer supplies the network weights and architecture
//! specification along with the name of the base DNN layer (and,
//! optionally, a crop thereof) to use as input"), and the runtime built
//! from it.

use std::collections::VecDeque;

use ff_data::CropRect;
use ff_models::{FullFrameConfig, LocalizedConfig, WindowedClassifier, WindowedConfig};
use ff_models::{LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_nn::{Phase, Sequential};
use ff_tensor::{Tensor, Workspace};
use ff_video::Resolution;
use serde::{Deserialize, Serialize};

use crate::events::{EventId, EventRecord, McId, TransitionDetector};
use crate::extractor::{crop_feature_map, FeatureExtractor};
use crate::smoothing::{KVotingSmoother, SmoothingConfig};

/// Which Figure-2 architecture a spec deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum McKind {
    /// Figure 2a: full-frame object detector (grid of 1×1 convs + max).
    FullFrame,
    /// Figure 2b: localized binary classifier (separable convs + FC).
    Localized,
    /// Figure 2c: windowed, localized binary classifier (temporal window).
    Windowed,
}

/// A microclassifier deployment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McSpec {
    /// Application-facing name.
    pub name: String,
    /// Architecture.
    pub kind: McKind,
    /// Base-DNN layer to tap.
    pub tap: String,
    /// Optional fractional crop of the tapped feature map.
    pub crop: Option<CropRect>,
    /// Decision threshold on the sigmoid probability.
    pub threshold: f32,
    /// K-voting parameters (paper default: N = 5, K = 2).
    pub smoothing: SmoothingConfig,
    /// Weight seed.
    pub seed: u64,
}

impl McSpec {
    /// A full-frame detector spec with the paper's tap (`conv5_6/sep`).
    pub fn full_frame(name: impl Into<String>, seed: u64) -> McSpec {
        McSpec {
            name: name.into(),
            kind: McKind::FullFrame,
            tap: LAYER_FULL_FRAME_TAP.into(),
            crop: None,
            threshold: 0.5,
            smoothing: SmoothingConfig::default(),
            seed,
        }
    }

    /// A localized classifier spec with the paper's tap (`conv4_2/sep`).
    pub fn localized(name: impl Into<String>, crop: Option<CropRect>, seed: u64) -> McSpec {
        McSpec {
            name: name.into(),
            kind: McKind::Localized,
            tap: LAYER_LOCALIZED_TAP.into(),
            crop,
            threshold: 0.5,
            smoothing: SmoothingConfig::default(),
            seed,
        }
    }

    /// A windowed, localized classifier spec with the paper's tap.
    pub fn windowed(name: impl Into<String>, crop: Option<CropRect>, seed: u64) -> McSpec {
        McSpec {
            name: name.into(),
            kind: McKind::Windowed,
            tap: LAYER_LOCALIZED_TAP.into(),
            crop,
            threshold: 0.5,
            smoothing: SmoothingConfig::default(),
            seed,
        }
    }

    /// The shape the model will see as input: the tap shape after the
    /// optional crop.
    pub fn input_shape(&self, extractor: &FeatureExtractor, res: Resolution) -> Vec<usize> {
        let tap_shape = extractor.tap_shape(res, &self.tap);
        match &self.crop {
            None => tap_shape,
            Some(c) => {
                let (h0, h1, w0, w1) =
                    crate::extractor::crop_to_grid(c, tap_shape[0], tap_shape[1]);
                vec![h1 - h0, w1 - w0, tap_shape[2]]
            }
        }
    }

    /// Builds an untrained runtime for this spec.
    pub fn build(&self, extractor: &FeatureExtractor, res: Resolution, id: McId) -> McRuntime {
        let input = self.input_shape(extractor, res);
        let (h, w, c) = (input[0], input[1], input[2]);
        let model = match self.kind {
            McKind::FullFrame => McModel::Plain(FullFrameConfig::new(c, self.seed).build()),
            McKind::Localized => McModel::Plain(LocalizedConfig::new(h, w, c, self.seed).build()),
            McKind::Windowed => McModel::Windowed(WindowedConfig::new(h, w, c, self.seed).build()),
        };
        McRuntime::new(self.clone(), model, id)
    }
}

/// The executable form of a microclassifier.
#[allow(clippy::large_enum_variant)] // a handful of MCs exist per node; clarity wins
pub enum McModel {
    /// Single-frame networks (full-frame and localized).
    Plain(Sequential),
    /// The windowed classifier with its shared projection.
    Windowed(WindowedClassifier),
}

impl std::fmt::Debug for McModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McModel::Plain(n) => write!(f, "McModel::Plain({n:?})"),
            McModel::Windowed(w) => write!(f, "McModel::Windowed({w:?})"),
        }
    }
}

impl McModel {
    /// Marginal multiply-adds per frame on the given (cropped) input shape.
    pub fn multiply_adds(&self, input_shape: &[usize]) -> u64 {
        match self {
            McModel::Plain(net) => net.multiply_adds(input_shape),
            McModel::Windowed(wc) => wc.multiply_adds_per_frame(input_shape),
        }
    }

    /// Total scalar weights.
    pub fn param_count(&self) -> usize {
        match self {
            McModel::Plain(net) => net.param_count(),
            McModel::Windowed(wc) => wc.param_count(),
        }
    }

    /// Serializes the trained weights — the payload an application ships
    /// alongside its [`McSpec`] when installing a filter on an edge node
    /// (§3.2).
    ///
    /// # Errors
    ///
    /// Returns [`ff_nn::SerializeError::Io`] on write failure.
    pub fn save_weights<W: std::io::Write>(&mut self, w: W) -> Result<(), ff_nn::SerializeError> {
        let params = match self {
            McModel::Plain(net) => net.params_mut(),
            McModel::Windowed(wc) => wc.params_mut(),
        };
        ff_nn::save_params(params, w)
    }

    /// Loads weights saved by [`Self::save_weights`] into a model built
    /// from the same spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ff_nn::SerializeError`] on corrupt streams or shape
    /// mismatches.
    pub fn load_weights<R: std::io::Read>(&mut self, r: R) -> Result<(), ff_nn::SerializeError> {
        let params = match self {
            McModel::Plain(net) => net.params_mut(),
            McModel::Windowed(wc) => wc.params_mut(),
        };
        ff_nn::load_params(params, r)
    }
}

/// One smoothed, event-tagged decision emitted by an MC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McDecision {
    /// Frame the decision belongs to.
    pub frame: u64,
    /// Smoothed (post-K-voting) verdict.
    pub positive: bool,
    /// Event the frame belongs to, when positive.
    pub event: Option<EventId>,
    /// Event closed by this frame's transition, if any.
    pub closed_event: Option<EventRecord>,
}

/// Widest temporal window [`McRuntime`] streams (the paper's `W` is 5): the
/// hot path gathers a window's references in a stack array of this many.
const MAX_WINDOW: usize = 15;

/// A deployed microclassifier: model + temporal buffers + smoother +
/// transition detector.
#[derive(Debug)]
pub struct McRuntime {
    spec: McSpec,
    id: McId,
    model: McModel,
    /// Ring buffer of projected maps (windowed MC only), most recent last,
    /// together with the index of the oldest buffered frame.
    proj_buf: VecDeque<Tensor>,
    frames_seen: u64,
    classified: u64,
    smoother: KVotingSmoother,
    detector: TransitionDetector,
    finished_detector_events: Vec<EventRecord>,
    /// Scratch arena: crops, forward intermediates, and retired windowed
    /// projections cycle through here, so steady-state per-frame inference
    /// allocates nothing.
    ws: Workspace,
}

impl McRuntime {
    fn new(spec: McSpec, model: McModel, id: McId) -> Self {
        let smoother = KVotingSmoother::new(spec.smoothing);
        McRuntime {
            spec,
            id,
            model,
            proj_buf: VecDeque::new(),
            frames_seen: 0,
            classified: 0,
            smoother,
            detector: TransitionDetector::new(id),
            finished_detector_events: Vec::new(),
            ws: Workspace::new(),
        }
    }

    /// The deployment spec.
    pub fn spec(&self) -> &McSpec {
        &self.spec
    }

    /// Pipeline-assigned id.
    pub fn id(&self) -> McId {
        self.id
    }

    /// The underlying model (e.g. to load trained weights).
    pub fn model_mut(&mut self) -> &mut McModel {
        &mut self.model
    }

    /// Read access to the model.
    pub fn model(&self) -> &McModel {
        &self.model
    }

    /// Replaces the model with a trained one.
    ///
    /// # Panics
    ///
    /// Panics if the model kind does not match the spec.
    pub fn install_model(&mut self, model: McModel) {
        match (&model, self.spec.kind) {
            (McModel::Plain(_), McKind::FullFrame | McKind::Localized)
            | (McModel::Windowed(_), McKind::Windowed) => {}
            _ => panic!("model kind does not match spec {:?}", self.spec.kind),
        }
        self.model = model;
    }

    /// Sets the decision threshold (e.g. after calibration).
    pub fn set_threshold(&mut self, t: f32) {
        self.spec.threshold = t;
    }

    /// Consumes the runtime, returning its model (e.g. to train it before
    /// re-installing via [`Self::install_model`]).
    pub fn into_model(self) -> McModel {
        self.model
    }

    /// Decision latency in frames: windowed buffering plus smoothing.
    pub fn delay(&self) -> usize {
        let win = match &self.model {
            McModel::Plain(_) => 0,
            McModel::Windowed(wc) => (wc.window() - 1) / 2,
        };
        win + self.spec.smoothing.delay()
    }

    /// Raw probability for a (cropped) feature map, ignoring temporal
    /// state — used by training, calibration, and the cloud baseline.
    /// For the windowed MC this replicates the single frame across the
    /// window (the zero-motion baseline).
    pub fn prob_single(&mut self, fm: &Tensor) -> f32 {
        let ws = &mut self.ws;
        match &mut self.model {
            McModel::Plain(net) => {
                let out = net.forward_ws(fm, Phase::Inference, ws);
                let logit = out.data()[0];
                ws.recycle(out);
                ff_nn::sigmoid(logit)
            }
            McModel::Windowed(wc) => {
                let p = wc.project_ws(fm, Phase::Inference, ws);
                let window: Vec<&Tensor> = std::iter::repeat_n(&p, wc.window()).collect();
                let out = wc.classify_window_ws(&window, Phase::Inference, ws);
                let logit = out.data()[0];
                ws.recycle(out);
                drop(window);
                ws.recycle(p);
                ff_nn::sigmoid(logit)
            }
        }
    }

    /// Applies the spec's crop to the tapped feature map.
    pub fn crop<'a>(&self, fm: &'a Tensor) -> std::borrow::Cow<'a, Tensor> {
        match &self.spec.crop {
            None => std::borrow::Cow::Borrowed(fm),
            Some(c) => std::borrow::Cow::Owned(crop_feature_map(fm, c)),
        }
    }

    /// Processes the tapped (uncropped) feature map of the next frame:
    /// applies the spec's crop through the internal workspace, classifies,
    /// and returns any smoothed decision that became final. This is the
    /// pipeline's hot path; in steady state it performs no heap allocation.
    pub fn process_tap(&mut self, fm: &Tensor) -> Option<McDecision> {
        match &self.spec.crop {
            None => self.process(fm),
            Some(c) => {
                let (h0, h1, w0, w1) =
                    crate::extractor::crop_to_grid(c, fm.dims()[0], fm.dims()[1]);
                let ch = fm.dims()[2];
                let mut cropped = self.ws.take(&[h1 - h0, w1 - w0, ch]);
                fm.crop3_into(h0, h1, w0, w1, &mut cropped);
                let out = self.process(&cropped);
                self.ws.recycle(cropped);
                out
            }
        }
    }

    /// Processes the (already cropped) feature map of the next frame and
    /// returns any smoothed decision that became final (at most one: each
    /// frame pushes exactly one raw verdict into the smoother).
    pub fn process(&mut self, cropped_fm: &Tensor) -> Option<McDecision> {
        let t = self.frames_seen;
        self.frames_seen += 1;
        let raw: Option<(u64, bool)>;
        let ws = &mut self.ws;
        match &mut self.model {
            McModel::Plain(net) => {
                let out = net.forward_ws(cropped_fm, Phase::Inference, ws);
                let prob = ff_nn::sigmoid(out.data()[0]);
                ws.recycle(out);
                raw = Some((t, prob >= self.spec.threshold));
            }
            McModel::Windowed(wc) => {
                let d = (wc.window() - 1) / 2;
                let w = wc.window();
                self.proj_buf
                    .push_back(wc.project_ws(cropped_fm, Phase::Inference, ws));
                if self.proj_buf.len() > w {
                    if let Some(old) = self.proj_buf.pop_front() {
                        ws.recycle(old);
                    }
                }
                // Frame c = t − d becomes classifiable when frame t arrives.
                if t >= d as u64 {
                    let c = self.classified;
                    self.classified += 1;
                    let prob = self.classify_buffered(c, w, d);
                    raw = Some((c, prob >= self.spec.threshold));
                } else {
                    raw = None;
                }
            }
        }
        raw.and_then(|(f, r)| self.smooth_and_detect(f, r))
    }

    /// Classifies buffered frame `c` with edge replication. The buffer
    /// holds projections for frames `first..=newest`.
    fn classify_buffered(&mut self, c: u64, w: usize, d: usize) -> f32 {
        let newest = self.frames_seen - 1;
        let first = newest + 1 - self.proj_buf.len() as u64;
        // On the stack: a `Vec` of references here was one heap allocation
        // per windowed MC per frame.
        assert!(w <= MAX_WINDOW, "window {w} exceeds {MAX_WINDOW}");
        let mut window = [&self.proj_buf[0]; MAX_WINDOW];
        for (i, slot) in window[..w].iter_mut().enumerate() {
            let want = c as i64 - d as i64 + i as i64;
            let idx = want.clamp(first as i64, newest as i64) as u64 - first;
            *slot = &self.proj_buf[idx as usize];
        }
        let McModel::Windowed(wc) = &mut self.model else {
            unreachable!("classify_buffered only for windowed models");
        };
        let out = wc.classify_window_ws(&window[..w], Phase::Inference, &mut self.ws);
        let logit = out.data()[0];
        self.ws.recycle(out);
        ff_nn::sigmoid(logit)
    }

    fn smooth_and_detect(&mut self, frame: u64, raw: bool) -> Option<McDecision> {
        let (f, positive) = self.smoother.push(raw)?;
        debug_assert_eq!(f, frame.saturating_sub(self.spec.smoothing.delay() as u64));
        let (open, closed) = self.detector.push(f, positive);
        Some(McDecision {
            frame: f,
            positive,
            event: open.map(|e| e.id),
            closed_event: closed,
        })
    }

    /// Flushes all pending decisions at end of stream.
    pub fn finish(mut self) -> Vec<McDecision> {
        let mut out = Vec::new();
        // Classify any un-decided buffered frames (windowed only).
        if let McModel::Windowed(_) = &self.model {
            let (w, d) = {
                let McModel::Windowed(wc) = &self.model else {
                    unreachable!()
                };
                (wc.window(), (wc.window() - 1) / 2)
            };
            while self.classified < self.frames_seen {
                let c = self.classified;
                self.classified += 1;
                let prob = self.classify_buffered(c, w, d);
                let raw = prob >= self.spec.threshold;
                if let Some(dec) = self.smooth_and_detect(c, raw) {
                    out.push(dec);
                }
            }
        }
        let smoother = std::mem::replace(
            &mut self.smoother,
            KVotingSmoother::new(self.spec.smoothing),
        );
        let mut detector = std::mem::replace(&mut self.detector, TransitionDetector::new(self.id));
        for (f, positive) in smoother.finish() {
            let (open, closed) = detector.push(f, positive);
            out.push(McDecision {
                frame: f,
                positive,
                event: open.map(|e| e.id),
                closed_event: closed,
            });
        }
        if let Some(ev) = detector.finish(self.frames_seen) {
            self.finished_detector_events.push(ev);
            // Attach the close to the final decision if it exists.
            if let Some(last) = out.last_mut() {
                if last.closed_event.is_none() {
                    last.closed_event = Some(ev);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::MobileNetConfig;

    fn extractor() -> FeatureExtractor {
        FeatureExtractor::new(
            MobileNetConfig::with_width(0.25),
            vec![LAYER_LOCALIZED_TAP.into(), LAYER_FULL_FRAME_TAP.into()],
        )
    }

    #[test]
    fn spec_roundtrips_through_build() {
        let ex = extractor();
        let res = Resolution::new(64, 32);
        for spec in [
            McSpec::full_frame("a", 1),
            McSpec::localized(
                "b",
                Some(CropRect {
                    x0: 0.0,
                    y0: 0.5,
                    x1: 1.0,
                    y1: 1.0,
                }),
                2,
            ),
            McSpec::windowed("c", None, 3),
        ] {
            let rt = spec.build(&ex, res, McId(0));
            assert_eq!(rt.spec().name, spec.name);
            assert!(rt.model().param_count() > 0);
        }
    }

    #[test]
    fn crop_shrinks_input_and_cost() {
        let ex = extractor();
        let res = Resolution::new(64, 64);
        let full = McSpec::localized("f", None, 1);
        let half = McSpec::localized(
            "h",
            Some(CropRect {
                x0: 0.0,
                y0: 0.5,
                x1: 1.0,
                y1: 1.0,
            }),
            1,
        );
        let full_shape = full.input_shape(&ex, res);
        let half_shape = half.input_shape(&ex, res);
        assert!(half_shape[0] < full_shape[0]);
        let full_cost = full
            .build(&ex, res, McId(0))
            .model()
            .multiply_adds(&full_shape);
        let half_cost = half
            .build(&ex, res, McId(1))
            .model()
            .multiply_adds(&half_shape);
        assert!(half_cost < full_cost, "{half_cost} vs {full_cost}");
    }

    #[test]
    fn plain_runtime_emits_one_decision_per_frame() {
        let ex = extractor();
        let res = Resolution::new(32, 32);
        let spec = McSpec::full_frame("d", 5);
        let shape = spec.input_shape(&ex, res);
        let mut rt = spec.build(&ex, res, McId(0));
        let fm = Tensor::filled(shape, 0.1);
        let mut decisions = Vec::new();
        for _ in 0..10 {
            decisions.extend(rt.process(&fm));
        }
        decisions.extend(rt.finish());
        assert_eq!(decisions.len(), 10);
        let frames: Vec<u64> = decisions.iter().map(|d| d.frame).collect();
        assert_eq!(frames, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_runtime_emits_one_decision_per_frame() {
        let ex = extractor();
        let res = Resolution::new(64, 32);
        let spec = McSpec::windowed("w", None, 5);
        let shape = spec.input_shape(&ex, res);
        let mut rt = spec.build(&ex, res, McId(0));
        assert_eq!(rt.delay(), 2 + 2);
        let fm = Tensor::filled(shape, 0.1);
        let mut decisions = Vec::new();
        for _ in 0..9 {
            decisions.extend(rt.process(&fm));
        }
        decisions.extend(rt.finish());
        let frames: Vec<u64> = decisions.iter().map(|d| d.frame).collect();
        assert_eq!(frames, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn events_have_increasing_ids() {
        // Force alternating decisions by thresholding at 0 and 1.
        let ex = extractor();
        let res = Resolution::new(32, 32);
        let spec = McSpec {
            smoothing: SmoothingConfig { n: 1, k: 1 },
            ..McSpec::full_frame("e", 6)
        };
        let shape = spec.input_shape(&ex, res);
        let mut rt = spec.build(&ex, res, McId(2));
        let fm = Tensor::filled(shape, 0.1);
        // threshold 0 → always positive.
        rt.set_threshold(0.0);
        let d1: Vec<McDecision> = (0..3).flat_map(|_| rt.process(&fm)).collect();
        rt.set_threshold(1.1);
        let d2: Vec<McDecision> = (0..2).flat_map(|_| rt.process(&fm)).collect();
        rt.set_threshold(0.0);
        let d3: Vec<McDecision> = (0..2).flat_map(|_| rt.process(&fm)).collect();
        assert!(d1.iter().all(|d| d.positive && d.event == Some(EventId(0))));
        assert!(d2.iter().all(|d| !d.positive));
        assert_eq!(d2[0].closed_event.unwrap().end, Some(3));
        assert!(d3.iter().all(|d| d.positive && d.event == Some(EventId(1))));
    }

    #[test]
    fn deployment_weights_roundtrip() {
        // Ship weights between two edge nodes: same spec, same outputs.
        let ex = extractor();
        let res = Resolution::new(64, 32);
        for spec in [
            McSpec::localized("l", None, 3),
            McSpec::windowed("w", None, 4),
        ] {
            let shape = spec.input_shape(&ex, res);
            let fm = Tensor::filled(shape, 0.2);
            let mut src = spec.build(&ex, res, McId(0));
            let p_src = src.prob_single(&fm);
            let mut bytes = Vec::new();
            src.model_mut().save_weights(&mut bytes).unwrap();

            let other_spec = McSpec {
                seed: spec.seed + 99,
                ..spec.clone()
            };
            let mut dst = other_spec.build(&ex, res, McId(1));
            assert_ne!(p_src, dst.prob_single(&fm), "distinct seeds must differ");
            dst.model_mut().load_weights(bytes.as_slice()).unwrap();
            assert_eq!(p_src, dst.prob_single(&fm), "{:?}", spec.kind);
        }
    }

    #[test]
    fn spec_serde_roundtrip() {
        // Specs are what applications ship to edge nodes; they must
        // serialize. Field-level round-trip via serde's derive.
        let spec = McSpec::localized(
            "ship-me",
            Some(CropRect {
                x0: 0.1,
                y0: 0.2,
                x1: 0.9,
                y1: 1.0,
            }),
            42,
        );
        // serde_json is not a dependency; test with the trait bounds only.
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(_: &T) {}
        assert_serde(&spec);
        assert_eq!(spec.clone(), spec);
    }
}

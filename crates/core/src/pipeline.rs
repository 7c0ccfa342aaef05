//! The FilterForward edge pipeline (Figure 1): decode → shared feature
//! extraction → N microclassifiers → K-voting → events → re-encode matched
//! frames for upload, while archiving the original stream for demand-fetch.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ff_models::MobileNetConfig;
use ff_tensor::Tensor;
use ff_video::codec::{EncodedFrame, Encoder, EncoderConfig};
use ff_video::{Frame, Resolution};

use crate::archive::{ArchiveConfig, EdgeArchive};
use crate::events::{EventRecord, FrameMetadata, McId};
use crate::extractor::{FeatureExtractor, FeatureMaps};
use crate::spec::{McRuntime, McSpec};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Base-DNN configuration.
    pub mobilenet: MobileNetConfig,
    /// Input stream resolution.
    pub resolution: Resolution,
    /// Frames per second of the input stream.
    pub fps: f64,
    /// Target bitrate for re-encoding matched frames (paper §4.3: "matched
    /// frames are re-encoded to 250 Kb/s and 500 Kb/s" at paper scale).
    pub upload_bitrate_bps: f64,
    /// Archive the original stream to local storage (§3.2: "edge nodes
    /// record the original video stream to disk"). `None` disables.
    pub archive: Option<ArchiveConfig>,
}

impl PipelineConfig {
    /// A config with sensible defaults for the given stream.
    pub fn new(resolution: Resolution, fps: f64) -> Self {
        PipelineConfig {
            mobilenet: MobileNetConfig::with_width(0.5),
            resolution,
            fps,
            upload_bitrate_bps: 50_000.0,
            archive: Some(ArchiveConfig::default()),
        }
    }
}

/// Final verdict for one frame after all MCs decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameVerdict {
    /// Frame index.
    pub frame: u64,
    /// Per-MC event membership.
    pub metadata: FrameMetadata,
    /// Bytes uploaded for this frame (0 if dropped).
    pub uploaded_bytes: usize,
    /// Events that closed at this frame.
    pub closed_events: Vec<EventRecord>,
}

impl FrameVerdict {
    /// Whether any MC matched the frame.
    pub fn matched(&self) -> bool {
        self.metadata.matched()
    }
}

/// Wall-clock phase accounting for Figure 6.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimers {
    /// Total time in the base DNN (decode + feature extraction).
    pub base_dnn: Duration,
    /// Total time in microclassifier execution (including crops).
    pub microclassifiers: Duration,
    /// Frames processed.
    pub frames: u64,
}

impl PhaseTimers {
    /// Mean seconds per frame spent in the base DNN.
    pub fn base_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.base_dnn.as_secs_f64() / self.frames as f64
        }
    }

    /// Mean seconds per frame spent in MCs (all of them together).
    pub fn mcs_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.microclassifiers.as_secs_f64() / self.frames as f64
        }
    }
}

/// Aggregate pipeline statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Frames ingested.
    pub frames_in: u64,
    /// Frames finalized.
    pub frames_out: u64,
    /// Frames uploaded (matched by ≥ 1 MC).
    pub frames_uploaded: u64,
    /// Bytes uploaded (re-encoded matched frames).
    pub bytes_uploaded: u64,
    /// Bytes written to the local archive.
    pub bytes_archived: u64,
    /// Events completed across all MCs.
    pub events_closed: u64,
}

impl PipelineStats {
    /// Average upload bandwidth in bits/second given the stream fps.
    pub fn upload_bps(&self, fps: f64) -> f64 {
        if self.frames_out == 0 {
            0.0
        } else {
            self.bytes_uploaded as f64 * 8.0 * fps / self.frames_out as f64
        }
    }
}

/// Where one served frame's base-DNN feature maps come from (see
/// [`FilterForward::serve_into`]).
#[derive(Clone, Copy)]
pub(crate) enum Backbone<'a> {
    /// The frame's tensor, for the pipeline's private extractor.
    Own(&'a Tensor),
    /// Maps a node-owned extractor already produced for the frame, and the
    /// wall time that extraction took.
    Shared(&'a FeatureMaps, Duration),
}

/// The two taps every extractor serves before any MC is deployed.
pub(crate) fn default_taps() -> Vec<String> {
    vec![
        ff_models::LAYER_LOCALIZED_TAP.to_string(),
        ff_models::LAYER_FULL_FRAME_TAP.to_string(),
    ]
}

struct Pending {
    frame: Frame,
    metadata: FrameMetadata,
    closed: Vec<EventRecord>,
    decided: usize,
}

/// The FilterForward pipeline.
pub struct FilterForward {
    cfg: PipelineConfig,
    /// `None` in **deferred-backbone** mode ([`Self::new_deferred`]): the
    /// pipeline never extracts features itself — a node-owned shared
    /// extractor feeds it maps — so no private base-DNN instance is ever
    /// built. This is what makes a 1000-stream gather-style node
    /// affordable: one backbone per (base-DNN config, resolution) bucket
    /// instead of one per stream.
    extractor: Option<FeatureExtractor>,
    /// Taps the deployed MCs consume plus the two always-on defaults, in
    /// registration order. Mirrors the private extractor's tap set in eager
    /// mode; in deferred mode it records what the pipeline was deployed
    /// against.
    taps: Vec<String>,
    /// Deferred mode's calibration marker (eager mode asks the extractor).
    calibrated: bool,
    mcs: Vec<McRuntime>,
    pending: BTreeMap<u64, Pending>,
    next_in: u64,
    next_out: u64,
    upload_encoder: Encoder,
    last_uploaded: Option<u64>,
    /// Upload thinning under degradation: within a run of consecutive
    /// matched frames, only every `upload_stride`-th is re-encoded and
    /// uploaded. 1 (the default) uploads every matched frame.
    upload_stride: u32,
    /// Position within the current run of consecutive matched frames.
    matched_run: u64,
    archive: Option<EdgeArchive>,
    stats: PipelineStats,
    timers: PhaseTimers,
    /// Reused per-frame decision buffer (keeps the MC loop allocation-free).
    decisions_scratch: Vec<(McId, crate::spec::McDecision)>,
    /// [`Self::process`]'s decoded frame, reused from frame to frame;
    /// `None` until its first call (the node decodes into its own scratch).
    input: Option<Tensor>,
}

impl std::fmt::Debug for FilterForward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FilterForward({} MCs, {} frames in)",
            self.mcs.len(),
            self.next_in
        )
    }
}

impl FilterForward {
    /// Creates a pipeline with no microclassifiers deployed yet.
    pub fn new(cfg: PipelineConfig) -> Self {
        // The base DNN always evaluates through the penultimate layer
        // (`conv5_6/sep`), like the paper's feature extractor: its cost is
        // a fixed per-frame overhead independent of which taps the
        // currently-deployed MCs use (§3.1). Deploying an MC with an even
        // deeper tap extends the run.
        let extractor = FeatureExtractor::new(cfg.mobilenet, default_taps());
        Self::build(cfg, Some(extractor))
    }

    /// Creates a pipeline in **deferred-backbone** mode: no private
    /// [`FeatureExtractor`] is built — the pipeline only records its
    /// configuration, taps, and calibration state, and classifies feature
    /// maps extracted elsewhere ([`Self::process_with_maps`]). Every stream
    /// of a gather-style [`crate::runtime::EdgeNode`] is one, fed by the
    /// node's extractor for its (base-DNN config, resolution) bucket.
    ///
    /// Per-stream inference entry points ([`Self::process`],
    /// [`Self::process_decoded`], [`Self::extract_only`]) panic on a
    /// deferred pipeline.
    pub fn new_deferred(cfg: PipelineConfig) -> Self {
        Self::build(cfg, None)
    }

    fn build(cfg: PipelineConfig, extractor: Option<FeatureExtractor>) -> Self {
        let upload_encoder = Encoder::new(EncoderConfig::with_bitrate(
            cfg.resolution,
            cfg.fps,
            cfg.upload_bitrate_bps,
        ));
        let archive = cfg
            .archive
            .map(|a| EdgeArchive::new(a, cfg.resolution, cfg.fps));
        FilterForward {
            cfg,
            extractor,
            taps: default_taps(),
            calibrated: false,
            mcs: Vec::new(),
            pending: BTreeMap::new(),
            next_in: 0,
            next_out: 0,
            upload_encoder,
            last_uploaded: None,
            upload_stride: 1,
            matched_run: 0,
            archive,
            stats: PipelineStats::default(),
            timers: PhaseTimers::default(),
            decisions_scratch: Vec::new(),
            input: None,
        }
    }

    /// Deploys a microclassifier, returning its id and a mutable handle to
    /// install trained weights.
    ///
    /// # Panics
    ///
    /// Panics if frames have already been processed (deploy-then-stream; the
    /// paper's edge nodes install MCs out of band).
    pub fn deploy(&mut self, spec: McSpec) -> McId {
        assert_eq!(self.next_in, 0, "deploy MCs before streaming");
        let ex = self.extractor.as_mut().expect(
            "deploy on a deferred-backbone pipeline needs the node's \
             extractor: use deploy_with (or EdgeNode::deploy)",
        );
        ex.ensure_tap(&spec.tap);
        let id = McId(self.mcs.len());
        let rt = spec.build(ex, self.cfg.resolution, id);
        if !self.taps.iter().any(|t| t == &spec.tap) {
            self.taps.push(spec.tap.clone());
        }
        self.mcs.push(rt);
        id
    }

    /// Deploys a microclassifier on a **deferred-backbone** pipeline
    /// ([`Self::new_deferred`]), resolving tap shapes against `template` —
    /// an extractor of the same base-DNN config, e.g. the node's bucket
    /// extractor ([`crate::runtime::EdgeNode::deploy`], which also registers
    /// the tap on it). The resulting
    /// [`McRuntime`] is identical to what an eager [`Self::deploy`] builds
    /// (MC models are seeded and shape-determined), so verdicts stay
    /// bit-compatible with per-stream execution.
    ///
    /// Also valid on an eager pipeline when `template` matches its private
    /// extractor's config; the private extractor still registers the tap.
    ///
    /// # Panics
    ///
    /// Panics if frames have already been processed, or the tap names an
    /// unknown layer.
    pub fn deploy_with(&mut self, spec: McSpec, template: &FeatureExtractor) -> McId {
        assert_eq!(self.next_in, 0, "deploy MCs before streaming");
        if let Some(ex) = self.extractor.as_mut() {
            ex.ensure_tap(&spec.tap);
        }
        let id = McId(self.mcs.len());
        let rt = spec.build(template, self.cfg.resolution, id);
        if !self.taps.iter().any(|t| t == &spec.tap) {
            self.taps.push(spec.tap.clone());
        }
        self.mcs.push(rt);
        id
    }

    /// Mutable access to a deployed MC (to install trained weights or tune
    /// its threshold).
    pub fn mc_mut(&mut self, id: McId) -> &mut McRuntime {
        &mut self.mcs[id.0]
    }

    /// Calibrates the base DNN's folded batch-norms from sample frames
    /// (DESIGN.md S2). Call before streaming; MCs must be trained against
    /// a calibrated extractor with the same samples.
    ///
    /// # Panics
    ///
    /// Panics if frames have already been processed.
    pub fn calibrate(&mut self, frames: &[Frame]) {
        assert_eq!(self.next_in, 0, "calibrate before streaming");
        self.calibrated = true;
        if let Some(ex) = self.extractor.as_mut() {
            let tensors: Vec<Tensor> = frames.iter().map(Frame::to_tensor).collect();
            ex.calibrate(&tensors);
        }
        // Deferred mode: only the marker — the node calibrates its bucket
        // extractor from the same frames (`EdgeNode::calibrate`).
    }

    /// Sets the precision the base DNN's inference runs at — f32 or
    /// whole-int8 (see [`ff_tensor::Precision`] and
    /// [`crate::FeatureExtractor::set_precision`]). Microclassifiers keep
    /// their f32 weights — they are per-application, tiny next to the
    /// backbone, and retrained online.
    ///
    /// Call before streaming when you want every frame of a run classified
    /// under one weight set (the precondition for comparing runs
    /// bit-for-bit). Mid-stream changes are also supported — the control
    /// plane's degradation ladder ([`crate::control::DegradePolicy`]) steps
    /// precision live under uplink saturation — but verdicts after the
    /// switch are produced under the re-quantized weights, so such a run no
    /// longer replays a fixed-precision one.
    pub fn set_precision(&mut self, precision: ff_tensor::Precision) {
        if let Some(ex) = self.extractor.as_mut() {
            ex.set_precision(precision);
        }
        self.cfg.mobilenet.precision = precision;
    }

    /// Sets the **upload frame stride** — the degradation ladder's last
    /// rung (see [`crate::control`]): within a run of consecutive matched
    /// frames, only every `stride`-th frame is re-encoded and uploaded.
    /// Event membership, closed events, and every other part of the verdict
    /// are unchanged; only [`FrameVerdict::uploaded_bytes`] thins, cutting
    /// sustained event bandwidth by roughly `1/stride` (keyframe overhead
    /// makes the cut a little shallower — every uploaded frame after a gap
    /// restarts the GOP). Stride 1, the default, is the paper's behavior:
    /// every matched frame uploads.
    ///
    /// Unlike the deploy/calibrate knobs this may be changed mid-stream —
    /// it is exactly what the control plane does under sustained uplink
    /// saturation.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn set_upload_stride(&mut self, stride: u32) {
        assert!(stride >= 1, "upload stride must be ≥ 1");
        self.upload_stride = stride;
    }

    /// The current upload frame stride.
    pub fn upload_stride(&self) -> u32 {
        self.upload_stride
    }

    /// Deployed MC count.
    pub fn mc_count(&self) -> usize {
        self.mcs.len()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The pipeline's private feature extractor.
    ///
    /// # Panics
    ///
    /// Panics on a deferred-backbone pipeline ([`Self::new_deferred`]),
    /// which has none; use the cheap accessors ([`Self::base_config`],
    /// [`Self::taps`], [`Self::is_calibrated`], [`Self::precision`])
    /// instead when the backbone may be deferred.
    pub fn extractor(&self) -> &FeatureExtractor {
        self.extractor
            .as_ref()
            .expect("deferred-backbone pipeline has no private extractor (gather mode)")
    }

    /// Whether this pipeline defers feature extraction to a node-owned
    /// shared backbone ([`Self::new_deferred`]).
    pub fn is_deferred(&self) -> bool {
        self.extractor.is_none()
    }

    /// The base-DNN configuration the backbone (private or shared) must
    /// run. Tracks [`Self::set_precision`].
    pub fn base_config(&self) -> &MobileNetConfig {
        match &self.extractor {
            Some(ex) => ex.config(),
            None => &self.cfg.mobilenet,
        }
    }

    /// Tap layers the deployed MCs consume (the two default taps included),
    /// in registration order.
    pub fn taps(&self) -> &[String] {
        match &self.extractor {
            Some(ex) => ex.taps(),
            None => &self.taps,
        }
    }

    /// Whether [`Self::calibrate`] has run.
    pub fn is_calibrated(&self) -> bool {
        match &self.extractor {
            Some(ex) => ex.is_calibrated(),
            None => self.calibrated,
        }
    }

    /// The backbone's weight-panel precision. Tracks
    /// [`Self::set_precision`].
    pub fn precision(&self) -> ff_tensor::Precision {
        match &self.extractor {
            Some(ex) => ex.precision(),
            None => self.cfg.mobilenet.precision,
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Phase timers (Figure 6).
    pub fn timers(&self) -> &PhaseTimers {
        &self.timers
    }

    /// The local archive, if enabled.
    pub fn archive(&self) -> Option<&EdgeArchive> {
        self.archive.as_ref()
    }

    /// Detaches the local archive (e.g. to hand it to a
    /// [`crate::hub::CloudHub`] for demand fetch); the pipeline stops
    /// recording.
    pub fn take_archive(&mut self) -> Option<EdgeArchive> {
        self.archive.take()
    }

    /// Ingests one frame, returning any frames that became final (in
    /// order). With temporal smoothing, verdicts trail the input by each
    /// MC's delay.
    ///
    /// Decode (pixel → tensor, [`Frame::to_tensor_into`] a buffer this
    /// pipeline reuses from frame to frame) and inference run back to back
    /// on the calling thread. The node ([`crate::runtime::EdgeNode`]) does
    /// the same inside the pool job that serves the frame, into the input
    /// buffer of the job's pool slot, and serves it through the same body
    /// as [`Self::process_decoded`]; both paths produce identical verdicts.
    ///
    /// # Panics
    ///
    /// Panics if no MCs are deployed.
    pub fn process(&mut self, frame: &Frame) -> Vec<FrameVerdict> {
        let t0 = Instant::now();
        let mut input = self.input.take().unwrap_or_default();
        frame.to_tensor_into(&mut input);
        self.timers.base_dnn += t0.elapsed();
        let out = self.process_decoded(frame, &input);
        self.input = Some(input);
        out
    }

    /// Credits decode time spent outside this pipeline's calls — the
    /// node's pool job decodes each frame into its slot's buffer just
    /// before serving it — to the base-DNN phase timer, so [`PhaseTimers`]
    /// keeps its meaning (decode + feature extraction, in CPU-seconds)
    /// identically between [`Self::process`] and the node.
    pub(crate) fn credit_decode(&mut self, d: Duration) {
        self.timers.base_dnn += d;
    }

    /// Ingests one frame whose tensor was already decoded, returning any
    /// frames that became final (in order).
    ///
    /// `tensor` must hold what `frame.to_tensor()` returns: [`Self::process`]
    /// is this after the conversion, and the node converts in the pool job
    /// that serves the frame.
    ///
    /// # Panics
    ///
    /// Panics if no MCs are deployed.
    pub fn process_decoded(&mut self, frame: &Frame, tensor: &Tensor) -> Vec<FrameVerdict> {
        let mut out = Vec::new();
        self.serve_into(frame.clone(), Backbone::Own(tensor), &mut out);
        out
    }

    /// Ingests one frame whose feature maps were **already extracted** —
    /// by a base DNN shared across streams (see
    /// [`crate::runtime::EdgeNode`]'s gather style), a batched pass over
    /// several frames, or any other external extractor whose network state
    /// matches this pipeline's.
    ///
    /// `maps` must contain every tap this pipeline's MCs consume and hold
    /// exactly what [`crate::FeatureExtractor::extract`] would have produced
    /// for `frame` under this pipeline's extractor — shared and batched
    /// extraction guarantee that bit-for-bit when the extractors' weights
    /// and calibration agree. `shared_extract` is this frame's extraction
    /// time (its share of a batched pass's wall), credited to the base-DNN
    /// phase timer so [`PhaseTimers`] keeps its meaning across execution
    /// modes.
    ///
    /// Returns any frames that became final (in order), exactly like
    /// [`Self::process_decoded`].
    ///
    /// # Panics
    ///
    /// Panics if no MCs are deployed or `maps` is missing a needed tap.
    pub fn process_with_maps(
        &mut self,
        frame: &Frame,
        maps: &FeatureMaps,
        shared_extract: Duration,
    ) -> Vec<FrameVerdict> {
        let mut out = Vec::new();
        self.serve_into(
            frame.clone(),
            Backbone::Shared(maps, shared_extract),
            &mut out,
        );
        out
    }

    /// The one serving body: ingest `frame`, take its feature maps from
    /// `backbone`, run every MC on them, apply the decisions, and append the
    /// frames that became final to `out` — the node's pool jobs write
    /// straight into the stream task's pending list. Returns the frame's
    /// extraction wall: the private extractor's pass, or the wall a shared
    /// one reported.
    ///
    /// The frame is the pending entry's until its verdict is final (its
    /// pixels are re-encoded if an MC matched): the node hands over the
    /// frame it selected, and the `&Frame` entry points clone theirs.
    pub(crate) fn serve_into(
        &mut self,
        frame: Frame,
        backbone: Backbone<'_>,
        out: &mut Vec<FrameVerdict>,
    ) -> Duration {
        self.ingest_frame(frame);

        // Phase 1: base-DNN feature extraction (timed), or the frame's share
        // of a shared pass. Own maps borrow the extractor's workspace-backed
        // buffers.
        let (maps, extract) = match backbone {
            Backbone::Own(tensor) => {
                let t0 = Instant::now();
                let ex = self.extractor.as_mut().expect(
                    "deferred-backbone pipeline cannot run per-stream inference \
                     (the node owns its backbone): use process_with_maps",
                );
                (ex.extract(tensor), t0.elapsed())
            }
            Backbone::Shared(maps, wall) => (maps, wall),
        };
        self.timers.base_dnn += extract;

        // Phase 2: every MC consumes the maps (timed as one block, matching
        // the paper's phased execution / end-to-end flow control).
        // `decisions` is a reused scratch: the MC loop itself is
        // allocation-free in steady state.
        let t1 = Instant::now();
        let mut decisions = std::mem::take(&mut self.decisions_scratch);
        decisions.clear();
        for mc in &mut self.mcs {
            if let Some(d) = mc.process_tap(maps.get(&mc.spec().tap)) {
                decisions.push((mc.id(), d));
            }
        }
        self.timers.microclassifiers += t1.elapsed();
        self.timers.frames += 1;

        for &(mc_id, d) in &decisions {
            self.apply_decision(mc_id, d);
        }
        self.decisions_scratch = decisions;
        self.drain_into(self.mcs.len(), out);
        extract
    }

    /// Shared ingest bookkeeping: frame counters, archival, and the pending
    /// entry, which keeps the frame until its MC decisions are in.
    fn ingest_frame(&mut self, frame: Frame) {
        assert!(
            !self.mcs.is_empty(),
            "deploy at least one MC before streaming"
        );
        let idx = self.next_in;
        self.next_in += 1;
        self.stats.frames_in += 1;

        if let Some(archive) = &mut self.archive {
            self.stats.bytes_archived += archive.record(&frame) as u64;
        }

        self.pending.insert(
            idx,
            Pending {
                frame,
                metadata: FrameMetadata::new(),
                closed: Vec::new(),
                decided: 0,
            },
        );
    }

    fn apply_decision(&mut self, mc: McId, d: crate::spec::McDecision) {
        let entry = self
            .pending
            .get_mut(&d.frame)
            .expect("decision for unknown frame");
        if let Some(ev) = d.event {
            entry.metadata.insert(mc, ev);
        }
        if let Some(closed) = d.closed_event {
            entry.closed.push(closed);
        }
        entry.decided += 1;
    }

    /// Finalizes, in order, the frames every one of `n_mcs` MCs decided.
    fn drain_into(&mut self, n_mcs: usize, out: &mut Vec<FrameVerdict>) {
        while let Some(entry) = self.pending.get(&self.next_out) {
            if entry.decided < n_mcs {
                break;
            }
            let Pending {
                frame,
                metadata,
                closed,
                ..
            } = self.pending.remove(&self.next_out).expect("checked");
            out.push(self.finalize(self.next_out, frame, metadata, closed));
            self.next_out += 1;
        }
    }

    fn finalize(
        &mut self,
        idx: u64,
        frame: Frame,
        metadata: FrameMetadata,
        closed: Vec<EventRecord>,
    ) -> FrameVerdict {
        self.stats.frames_out += 1;
        self.stats.events_closed += closed.len() as u64;
        let mut uploaded_bytes = 0;
        if metadata.matched() {
            let run_pos = self.matched_run;
            self.matched_run += 1;
            // Degraded nodes thin event uploads: only every
            // `upload_stride`-th frame of a matched run is re-encoded
            // (stride 1 ⇒ every matched frame, the paper's behavior).
            if run_pos.is_multiple_of(self.upload_stride as u64) {
                // Re-encode for upload; a gap in uploaded frames breaks the
                // P-frame chain, so start a fresh GOP.
                if self.last_uploaded != Some(idx.wrapping_sub(1)) {
                    self.upload_encoder.force_keyframe();
                }
                let encoded: EncodedFrame = self.upload_encoder.encode(&frame);
                uploaded_bytes = encoded.data.len();
                self.stats.frames_uploaded += 1;
                self.stats.bytes_uploaded += uploaded_bytes as u64;
                self.last_uploaded = Some(idx);
            }
        } else {
            self.matched_run = 0;
        }
        FrameVerdict {
            frame: idx,
            metadata,
            uploaded_bytes,
            closed_events: closed,
        }
    }

    /// Flushes all in-flight frames at end of stream.
    pub fn finish(mut self) -> (Vec<FrameVerdict>, PipelineStats, PhaseTimers) {
        let mcs = std::mem::take(&mut self.mcs);
        let n = mcs.len();
        for mc in mcs {
            let id = mc.id();
            for d in mc.finish() {
                self.apply_decision(id, d);
            }
        }
        let mut out = Vec::new();
        self.drain_into(n, &mut out);
        assert!(
            self.pending.is_empty(),
            "frames left undecided at finish: {:?}",
            self.pending.keys().collect::<Vec<_>>()
        );
        (out, self.stats, self.timers)
    }

    /// Extract features for one frame tensor without running MCs — used by
    /// training and the throughput harness. The returned maps borrow the
    /// extractor's internal buffers and are overwritten by the next
    /// extraction.
    pub fn extract_only(&mut self, tensor: &Tensor) -> &FeatureMaps {
        self.extractor
            .as_mut()
            .expect(
                "deferred-backbone pipeline cannot run per-stream inference \
                 (the node owns its backbone): use process_with_maps",
            )
            .extract(tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::SmoothingConfig;
    use ff_video::scene::{Scene, SceneConfig};

    fn tiny_cfg(res: Resolution) -> PipelineConfig {
        PipelineConfig {
            mobilenet: MobileNetConfig::with_width(0.25),
            resolution: res,
            fps: 15.0,
            upload_bitrate_bps: 100_000.0,
            archive: Some(ArchiveConfig::default()),
        }
    }

    fn scene_frames(n: usize) -> Vec<Frame> {
        let cfg = SceneConfig {
            resolution: Resolution::new(64, 32),
            seed: 3,
            pedestrian_rate: 0.2,
            ..Default::default()
        };
        Scene::new(cfg).take(n).map(|(f, _)| f).collect()
    }

    #[test]
    fn every_frame_gets_a_verdict() {
        let res = Resolution::new(64, 32);
        let mut ff = FilterForward::new(tiny_cfg(res));
        ff.deploy(McSpec::full_frame("always", 1));
        ff.deploy(McSpec::windowed("windowed", None, 2));
        let frames = scene_frames(12);
        let mut verdicts = Vec::new();
        for f in &frames {
            verdicts.extend(ff.process(f));
        }
        let (tail, stats, timers) = ff.finish();
        verdicts.extend(tail);
        assert_eq!(verdicts.len(), 12);
        let idx: Vec<u64> = verdicts.iter().map(|v| v.frame).collect();
        assert_eq!(idx, (0..12).collect::<Vec<_>>());
        assert_eq!(stats.frames_out, 12);
        assert_eq!(timers.frames, 12);
        assert!(timers.base_dnn > Duration::ZERO);
    }

    #[test]
    fn threshold_zero_uploads_everything_threshold_one_nothing() {
        let res = Resolution::new(64, 32);
        let frames = scene_frames(8);
        for (threshold, expect_all) in [(0.0f32, true), (1.1f32, false)] {
            let mut ff = FilterForward::new(tiny_cfg(res));
            let spec = McSpec {
                threshold,
                smoothing: SmoothingConfig { n: 1, k: 1 },
                ..McSpec::full_frame("t", 7)
            };
            ff.deploy(spec);
            let mut verdicts = Vec::new();
            for f in &frames {
                verdicts.extend(ff.process(f));
            }
            let (tail, stats, _) = ff.finish();
            verdicts.extend(tail);
            if expect_all {
                assert!(verdicts.iter().all(|v| v.matched()));
                assert_eq!(stats.frames_uploaded, 8);
                assert!(stats.bytes_uploaded > 0);
            } else {
                assert!(verdicts.iter().all(|v| !v.matched()));
                assert_eq!(stats.frames_uploaded, 0);
                assert_eq!(stats.bytes_uploaded, 0);
            }
        }
    }

    #[test]
    fn archive_records_all_frames_regardless_of_matches() {
        let res = Resolution::new(64, 32);
        let mut ff = FilterForward::new(tiny_cfg(res));
        let spec = McSpec {
            threshold: 1.1, // match nothing
            smoothing: SmoothingConfig { n: 1, k: 1 },
            ..McSpec::full_frame("nothing", 3)
        };
        ff.deploy(spec);
        for f in scene_frames(6) {
            let _ = ff.process(&f);
        }
        assert_eq!(ff.archive().unwrap().frames(), 6);
        let (_, stats, _) = ff.finish();
        assert!(stats.bytes_archived > 0);
        assert_eq!(stats.frames_uploaded, 0);
    }

    #[test]
    fn upload_stride_thins_matched_runs() {
        let res = Resolution::new(64, 32);
        let frames = scene_frames(9);
        let run = |stride: u32| {
            let mut ff = FilterForward::new(tiny_cfg(res));
            let spec = McSpec {
                threshold: 0.0, // every frame matches: one long event run
                smoothing: SmoothingConfig { n: 1, k: 1 },
                ..McSpec::full_frame("all", 5)
            };
            ff.deploy(spec);
            ff.set_upload_stride(stride);
            let mut verdicts = Vec::new();
            for f in &frames {
                verdicts.extend(ff.process(f));
            }
            let (tail, stats, _) = ff.finish();
            verdicts.extend(tail);
            (verdicts, stats)
        };
        let (v1, s1) = run(1);
        let (v3, s3) = run(3);
        // Stride 1 uploads all 9; stride 3 uploads frames 0, 3, 6.
        assert_eq!(s1.frames_uploaded, 9);
        assert_eq!(s3.frames_uploaded, 3);
        assert!(s3.bytes_uploaded < s1.bytes_uploaded);
        for (a, b) in v1.iter().zip(&v3) {
            // Verdicts only differ in uploaded_bytes thinning.
            assert_eq!(a.metadata, b.metadata);
            assert_eq!(a.matched(), b.matched());
            if b.frame % 3 != 0 {
                assert_eq!(b.uploaded_bytes, 0, "frame {} must be thinned", b.frame);
            } else {
                assert!(b.uploaded_bytes > 0);
            }
        }
    }

    #[test]
    fn deferred_backbone_matches_eager_verdicts_bit_for_bit() {
        let res = Resolution::new(64, 32);
        let frames = scene_frames(10);
        let spec = || McSpec::full_frame("mc", 5);

        let mut eager = FilterForward::new(tiny_cfg(res));
        eager.deploy(spec());
        let mut eager_verdicts = Vec::new();
        for f in &frames {
            eager_verdicts.extend(eager.process(f));
        }
        let (tail, eager_stats, _) = eager.finish();
        eager_verdicts.extend(tail);

        // Deferred: no private extractor — a separately built template of
        // the same config supplies tap shapes at deploy and maps at runtime.
        let mut template = FeatureExtractor::new(
            MobileNetConfig::with_width(0.25),
            vec![
                ff_models::LAYER_LOCALIZED_TAP.to_string(),
                ff_models::LAYER_FULL_FRAME_TAP.to_string(),
            ],
        );
        let mut deferred = FilterForward::new_deferred(tiny_cfg(res));
        assert!(deferred.is_deferred());
        deferred.deploy_with(spec(), &template);
        assert_eq!(deferred.taps().len(), 2);
        assert_eq!(deferred.precision(), ff_tensor::Precision::F32);
        let mut deferred_verdicts = Vec::new();
        for f in &frames {
            let maps = template.extract(&f.to_tensor()).clone();
            deferred_verdicts.extend(deferred.process_with_maps(f, &maps, Duration::ZERO));
        }
        let (tail, deferred_stats, _) = deferred.finish();
        deferred_verdicts.extend(tail);

        assert_eq!(eager_verdicts, deferred_verdicts);
        assert_eq!(eager_stats.bytes_uploaded, deferred_stats.bytes_uploaded);
    }

    #[test]
    #[should_panic(expected = "use process_with_maps")]
    fn deferred_backbone_rejects_per_stream_inference() {
        let res = Resolution::new(64, 32);
        let template = FeatureExtractor::new(
            MobileNetConfig::with_width(0.25),
            vec![ff_models::LAYER_FULL_FRAME_TAP.to_string()],
        );
        let mut ff = FilterForward::new_deferred(tiny_cfg(res));
        ff.deploy_with(McSpec::full_frame("mc", 1), &template);
        let _ = ff.process(&Frame::black(res));
    }

    #[test]
    #[should_panic(expected = "use deploy_with")]
    fn deferred_backbone_rejects_plain_deploy() {
        let res = Resolution::new(64, 32);
        let mut ff = FilterForward::new_deferred(tiny_cfg(res));
        let _ = ff.deploy(McSpec::full_frame("mc", 1));
    }

    #[test]
    #[should_panic(expected = "deploy at least one MC")]
    fn streaming_without_mcs_panics() {
        let res = Resolution::new(32, 32);
        let mut ff = FilterForward::new(tiny_cfg(res));
        let _ = ff.process(&Frame::black(res));
    }

    #[test]
    #[should_panic(expected = "deploy MCs before streaming")]
    fn late_deploy_panics() {
        let res = Resolution::new(64, 32);
        let mut ff = FilterForward::new(tiny_cfg(res));
        ff.deploy(McSpec::full_frame("a", 1));
        let _ = ff.process(&Frame::black(res));
        ff.deploy(McSpec::full_frame("b", 2));
    }
}

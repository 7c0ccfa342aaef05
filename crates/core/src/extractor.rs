//! The feature extractor (paper §3.1): runs the base DNN once per frame
//! and exposes named intermediate activations to every microclassifier.
//!
//! This is FilterForward's computation-sharing core. The extractor executes
//! only as deep as the deepest requested tap, and microclassifier crops are
//! applied to the *feature maps*, never the pixels, so any number of MCs
//! with different crops share one base-DNN pass (§3.2).

use ff_data::CropRect;
use ff_models::MobileNetConfig;
use ff_nn::Sequential;
use ff_tensor::{Tensor, Workspace};
use ff_video::Resolution;

/// Activations of the requested tap layers for one frame.
///
/// Refreshed in place every frame (tensor buffers cycle through the
/// [`Workspace`] extraction draws from): the extractor owns one, borrowed
/// via [`FeatureExtractor::extract`], and a caller sharing the extractor
/// owns its own ([`FeatureExtractor::extract_into`]). `clone` one to keep
/// a frame's maps.
#[derive(Debug, Clone, Default)]
pub struct FeatureMaps {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl FeatureMaps {
    /// The activation of a tap.
    ///
    /// # Panics
    ///
    /// Panics if `tap` was not requested at extractor construction.
    pub fn get(&self, tap: &str) -> &Tensor {
        self.names
            .iter()
            .position(|n| n == tap)
            .map(|i| &self.tensors[i])
            .unwrap_or_else(|| panic!("tap {tap:?} not extracted"))
    }

    /// Tap names present.
    pub fn taps(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// The shared base-DNN feature extractor.
///
/// Extraction is immutable ([`Self::extract_into`]): one extractor — one
/// set of weights — serves any number of threads at once, each with its
/// own [`Workspace`] and [`FeatureMaps`]. [`Self::extract`] is the same
/// call on a pair the extractor owns. Either way all intermediate
/// activations and the tap outputs themselves are recycled across frames,
/// so steady-state extraction performs no heap allocation.
pub struct FeatureExtractor {
    net: Sequential,
    config: MobileNetConfig,
    /// Tap names, kept sorted by layer depth (see [`Self::resync_taps`]).
    taps: Vec<String>,
    /// Layer indices of `taps`, same order (strictly ascending).
    tap_indices: Vec<usize>,
    ws: Workspace,
    maps: FeatureMaps,
    /// Per-frame maps of the last [`Self::extract_batch`] call, grown to the
    /// largest batch seen (tensor buffers cycle through `ws`).
    batch_maps: Vec<FeatureMaps>,
    /// Reused tap-major scratch for the batched walk.
    batch_outs: Vec<Tensor>,
    /// Whether [`Self::calibrate`] has run (used to detect extractors whose
    /// network state can no longer match a freshly built twin).
    calibrated: bool,
}

impl std::fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FeatureExtractor(taps: {:?})", self.taps)
    }
}

impl FeatureExtractor {
    /// Builds a MobileNet-backed extractor serving the given taps.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or contains an unknown layer name.
    pub fn new(config: MobileNetConfig, taps: Vec<String>) -> Self {
        let net = config.build();
        Self::from_network(net, config, taps)
    }

    /// Wraps an existing (e.g. synthetically pretrained) backbone.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or contains an unknown layer name.
    pub fn from_network(net: Sequential, config: MobileNetConfig, taps: Vec<String>) -> Self {
        assert!(!taps.is_empty(), "extractor needs at least one tap");
        let mut ex = FeatureExtractor {
            net,
            config,
            taps,
            tap_indices: Vec::new(),
            ws: Workspace::new(),
            maps: FeatureMaps::default(),
            batch_maps: Vec::new(),
            batch_outs: Vec::new(),
            calibrated: false,
        };
        ex.resync_taps();
        ex
    }

    /// Re-resolves tap indices and keeps taps sorted by layer depth, so the
    /// streaming path can use the allocation-free ascending-index walk.
    ///
    /// # Panics
    ///
    /// Panics if any tap name is unknown.
    fn resync_taps(&mut self) {
        // Validate up front: sort_by_key may never invoke its key closure
        // for short lists.
        for t in &self.taps {
            assert!(self.net.index_of(t).is_some(), "unknown tap {t:?}");
        }
        self.taps
            .sort_by_key(|t| self.net.index_of(t).expect("validated"));
        self.tap_indices = self
            .taps
            .iter()
            .map(|t| self.net.index_of(t).expect("validated"))
            .collect();
    }

    /// The base-DNN configuration.
    pub fn config(&self) -> &MobileNetConfig {
        &self.config
    }

    /// Registered tap names.
    pub fn taps(&self) -> &[String] {
        &self.taps
    }

    /// Registers an additional tap (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the layer name is unknown.
    pub fn ensure_tap(&mut self, tap: &str) {
        if self.taps.iter().any(|t| t == tap) {
            return;
        }
        assert!(self.net.index_of(tap).is_some(), "unknown tap {tap:?}");
        self.taps.push(tap.to_string());
        self.resync_taps();
    }

    /// Runs the base DNN on one frame tensor (HWC, `[0,1]`), producing all
    /// registered taps into `maps`: [`Sequential::infer_taps`] at one
    /// frame, over the tap indices resolved at construction, so it executes
    /// only to the deepest tap.
    ///
    /// Immutable: any number of threads may extract through one extractor
    /// at once, each with its own `ws` and `maps`, and each frame's maps
    /// are bit-identical to what any other caller gets for that frame.
    /// `maps`' previous tensors are recycled into `ws` and every buffer
    /// involved is drawn from it, so a caller passing the same pair every
    /// frame allocates nothing in the steady state.
    pub fn extract_into(&self, frame: &Tensor, ws: &mut Workspace, maps: &mut FeatureMaps) {
        if maps.names != self.taps {
            maps.names.clone_from(&self.taps);
        }
        self.net
            .infer_taps(frame, 1, &self.tap_indices, ws, &mut maps.tensors);
    }

    /// [`Self::extract_into`] on the extractor's own workspace and maps.
    ///
    /// The returned maps are owned by the extractor and overwritten by the
    /// next call; `clone` them to keep a frame's activations.
    pub fn extract(&mut self, frame: &Tensor) -> &FeatureMaps {
        let mut ws = std::mem::take(&mut self.ws);
        let mut maps = std::mem::take(&mut self.maps);
        self.extract_into(frame, &mut ws, &mut maps);
        (self.ws, self.maps) = (ws, maps);
        &self.maps
    }

    /// Runs the base DNN **once for a whole batch of frames** — one camera's
    /// consecutive frames, or one frame from each of several streams — and
    /// returns per-frame [`FeatureMaps`] aligned with `frames`.
    ///
    /// The frames are stacked and go through [`Sequential::infer_taps`] at
    /// their count, the same walk [`Self::extract`] takes at one: every
    /// layer runs once for all of them (per convolution one GEMM over every
    /// frame's output rows, its patches gathered a strip at a time — no
    /// stacked im2col matrix), so each packed weight panel is streamed
    /// through cache once per *batch* instead of once per frame. Frame
    /// `b`'s maps are **bit-identical** to what [`Self::extract`] would
    /// produce for that frame alone.
    ///
    /// The returned maps are owned by the extractor and overwritten by the
    /// next batched call; every buffer (the stacked input, all
    /// intermediates, the per-frame tap copies) cycles through the
    /// workspace, so steady-state batched extraction allocates nothing.
    ///
    /// This is not the edge node's path: its gather style extracts each
    /// frame on its own through [`Self::extract_into`], inside the frame's
    /// stream job, because on the node's small cores a batch is no cheaper
    /// per frame than one frame walked alone and the jobs run side by side.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or the frames' shapes differ.
    pub fn extract_batch(&mut self, frames: &[Tensor]) -> &[FeatureMaps] {
        let batch = frames.len();
        assert!(batch > 0, "extract_batch needs at least one frame");
        let fd = frames[0].dims();
        assert!(
            frames.iter().all(|f| f.dims() == fd),
            "extract_batch frames must share one shape"
        );
        self.batch_maps
            .resize_with(batch.max(self.batch_maps.len()), Default::default);
        for m in &mut self.batch_maps {
            if m.names != self.taps {
                m.names.clone_from(&self.taps);
            }
            for t in m.tensors.drain(..) {
                self.ws.recycle(t);
            }
        }
        let frame_len: usize = fd.iter().product();
        // One frame has no leading frame count.
        let dims = [batch, fd[0], fd[1], fd[2]];
        let mut stacked = self.ws.take(&dims[usize::from(batch == 1)..]);
        for (b, f) in frames.iter().enumerate() {
            stacked.data_mut()[b * frame_len..(b + 1) * frame_len].copy_from_slice(f.data());
        }
        self.net.infer_taps(
            &stacked,
            batch,
            &self.tap_indices,
            &mut self.ws,
            &mut self.batch_outs,
        );
        self.ws.recycle(stacked);
        // The walk fills tap-major (`t·batch + b`); deal the tensors out to
        // each frame's map in tap order.
        for (j, t) in self.batch_outs.drain(..).enumerate() {
            self.batch_maps[j % batch].tensors.push(t);
        }
        &self.batch_maps[..batch]
    }

    /// Shape of a tap's activation for a given input resolution.
    pub fn tap_shape(&self, res: Resolution, tap: &str) -> Vec<usize> {
        self.net.shape_at(&[res.height, res.width, 3], tap)
    }

    /// Multiply-adds per frame, counted to the deepest registered tap.
    pub fn multiply_adds(&self, res: Resolution) -> u64 {
        let deepest = self
            .taps
            .iter()
            .max_by_key(|t| self.net.index_of(t).expect("validated"))
            .expect("non-empty");
        self.net
            .multiply_adds_to(&[res.height, res.width, 3], deepest)
    }

    /// Mutable access to the underlying network (synthetic pretraining).
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Sets the precision the backbone's inference runs at (see
    /// [`ff_tensor::Precision`]): f32, or whole-int8 with quarter-size
    /// weight panels, u8 activations and integer accumulation.
    /// Updates the recorded [`Self::config`] so a twin extractor built
    /// from it quantizes identically and stays bit-compatible.
    pub fn set_precision(&mut self, precision: ff_tensor::Precision) {
        self.net.set_precision(precision);
        self.config.precision = precision;
    }

    /// The backbone's weight-panel precision.
    pub fn precision(&self) -> ff_tensor::Precision {
        self.config.precision
    }

    /// Calibrates the backbone's folded batch-norm layers from sample
    /// frame tensors (DESIGN.md S2): per-channel statistics are fit layer
    /// by layer, exactly the role BN plays in the original MobileNet. Call
    /// once, with a handful of representative frames, before training or
    /// deploying MCs.
    pub fn calibrate(&mut self, sample_frames: &[Tensor]) {
        use ff_nn::Layer;
        let _ = self.net.calibrate(sample_frames.to_vec());
        self.calibrated = true;
    }

    /// Whether [`Self::calibrate`] has run. A calibrated extractor's folded
    /// norms no longer match a freshly built network of the same config, so
    /// anything substituting a twin extractor must reproduce the
    /// calibration to stay bit-identical.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }
}

/// Rescales a fractional pixel-space crop onto a feature-map grid
/// (paper §4.1: "the coordinates are rescaled based on the dimensions of
/// the feature maps"), guaranteeing at least one cell.
pub fn crop_to_grid(crop: &CropRect, grid_h: usize, grid_w: usize) -> (usize, usize, usize, usize) {
    let h0 = ((crop.y0 * grid_h as f64).floor() as usize).min(grid_h.saturating_sub(1));
    let w0 = ((crop.x0 * grid_w as f64).floor() as usize).min(grid_w.saturating_sub(1));
    let h1 = ((crop.y1 * grid_h as f64).ceil() as usize).clamp(h0 + 1, grid_h);
    let w1 = ((crop.x1 * grid_w as f64).ceil() as usize).clamp(w0 + 1, grid_w);
    (h0, h1, w0, w1)
}

/// Applies a fractional crop to a feature map.
pub fn crop_feature_map(fm: &Tensor, crop: &CropRect) -> Tensor {
    let (h0, h1, w0, w1) = crop_to_grid(crop, fm.dims()[0], fm.dims()[1]);
    fm.crop3(h0, h1, w0, w1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::{LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};

    fn tiny_extractor() -> FeatureExtractor {
        FeatureExtractor::new(
            MobileNetConfig::with_width(0.25),
            vec![LAYER_LOCALIZED_TAP.into(), LAYER_FULL_FRAME_TAP.into()],
        )
    }

    #[test]
    fn extracts_both_taps_with_correct_shapes() {
        let mut ex = tiny_extractor();
        let res = Resolution::new(64, 32);
        let frame = Tensor::filled(vec![32, 64, 3], 0.4);
        let maps = ex.extract(&frame).clone();
        assert_eq!(
            maps.get(LAYER_LOCALIZED_TAP).dims(),
            ex.tap_shape(res, LAYER_LOCALIZED_TAP).as_slice()
        );
        assert_eq!(
            maps.get(LAYER_FULL_FRAME_TAP).dims(),
            ex.tap_shape(res, LAYER_FULL_FRAME_TAP).as_slice()
        );
    }

    #[test]
    fn batched_extraction_matches_per_frame_bit_for_bit() {
        let mut serial = tiny_extractor();
        let mut batched = tiny_extractor();
        let frames: Vec<Tensor> = (0..4)
            .map(|i| Tensor::filled(vec![32, 64, 3], 0.1 + 0.2 * i as f32))
            .collect();
        for batch in [1usize, 2, 4] {
            let maps = batched.extract_batch(&frames[..batch]);
            assert_eq!(maps.len(), batch);
            for (b, frame) in frames[..batch].iter().enumerate() {
                let want = serial.extract(frame);
                for tap in [LAYER_LOCALIZED_TAP, LAYER_FULL_FRAME_TAP] {
                    assert_eq!(
                        maps[b].get(tap),
                        want.get(tap),
                        "batch {batch} frame {b} tap {tap}"
                    );
                }
            }
        }
    }

    #[test]
    fn cost_counts_only_to_deepest_tap() {
        let shallow = FeatureExtractor::new(
            MobileNetConfig::with_width(0.25),
            vec![LAYER_LOCALIZED_TAP.into()],
        );
        let deep = tiny_extractor();
        let res = Resolution::new(64, 32);
        assert!(shallow.multiply_adds(res) < deep.multiply_adds(res));
    }

    #[test]
    #[should_panic(expected = "unknown tap")]
    fn unknown_tap_rejected() {
        let _ = FeatureExtractor::new(
            MobileNetConfig::with_width(0.25),
            vec!["conv9_9/sep".into()],
        );
    }

    #[test]
    fn ensure_tap_is_idempotent() {
        let mut ex = tiny_extractor();
        let n = ex.taps().len();
        ex.ensure_tap(LAYER_LOCALIZED_TAP);
        assert_eq!(ex.taps().len(), n);
        ex.ensure_tap("conv3_1/sep");
        assert_eq!(ex.taps().len(), n + 1);
    }

    #[test]
    fn crop_rescaling_matches_paper_semantics() {
        // Bottom half of the frame on a 10-row grid → rows 5..10.
        let crop = CropRect {
            x0: 0.0,
            y0: 0.5,
            x1: 1.0,
            y1: 1.0,
        };
        assert_eq!(crop_to_grid(&crop, 10, 12), (5, 10, 0, 12));
        // Tiny crops still produce at least one cell.
        let sliver = CropRect {
            x0: 0.49,
            y0: 0.49,
            x1: 0.51,
            y1: 0.51,
        };
        let (h0, h1, w0, w1) = crop_to_grid(&sliver, 4, 4);
        assert!(h1 > h0 && w1 > w0);
    }

    #[test]
    fn cropping_features_not_pixels_shares_extraction() {
        // Two different crops of the same FeatureMaps: one extract call.
        let mut ex = tiny_extractor();
        let frame = Tensor::filled(vec![32, 64, 3], 0.3);
        let maps = ex.extract(&frame);
        let fm = maps.get(LAYER_LOCALIZED_TAP);
        let top = crop_feature_map(
            fm,
            &CropRect {
                x0: 0.0,
                y0: 0.0,
                x1: 1.0,
                y1: 0.5,
            },
        );
        let bottom = crop_feature_map(
            fm,
            &CropRect {
                x0: 0.0,
                y0: 0.5,
                x1: 1.0,
                y1: 1.0,
            },
        );
        assert_eq!(top.dims()[0] + bottom.dims()[0], fm.dims()[0]);
    }
}

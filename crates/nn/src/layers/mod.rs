//! Layer implementations.
//!
//! # Row bands
//!
//! A convolution's output row is a pure function of the input rows its
//! kernel reads, so a layer can compute any band of its output rows from
//! just those input rows: [`band_geometry`] restricts a geometry to a band,
//! and every kernel run on the restricted geometry computes the whole
//! map's rows bit for bit. [`crate::Sequential::infer_taps`] uses that to
//! walk each fused `producer → depthwise` pair — the stem `conv1 →
//! conv2_1/dw` and every `*/sep → next */dw` whose intermediate map is not
//! a tap — in bands sized to L2 ([`fused`]'s band walk): the producer's
//! GEMM writes a band of rows, halo included, and the depthwise rows read
//! it while it is still in cache, so the intermediate map is never written
//! whole. The other boundary, `*/dw → */sep`, cannot fuse under
//! [`Precision::Int8Act`]: the 1×1 quantizes its whole input map with one
//! per-frame scale and zero-point, which needs that map's min and max
//! before its first row can be coded.

use std::ops::Range;
use std::sync::OnceLock;

use ff_tensor::{Conv2dGeometry, Precision};

pub mod activation;
pub mod conv;
pub mod dense;
pub mod depthwise;
pub mod fused;
pub(crate) mod int8act;
pub mod norm;
pub mod pool;
pub mod separable;

/// Inference weights derived from a layer's trainable ones in the
/// [`crate::Layer::set_precision`] format — packed GEMM panels, or a
/// depthwise layer's quantize-roundtripped taps.
///
/// Built on the first inference that needs them and dropped by every
/// `&mut` path that can change the weights ([`crate::Layer::params_mut`],
/// which weight loading and the optimizers take, and
/// [`crate::Layer::backward`]) or the precision, so
/// [`crate::Layer::infer`] reads them through `&self` and any number of
/// threads can walk one layer at once.
pub(crate) struct DerivedWeights<T> {
    precision: Precision,
    cell: OnceLock<T>,
}

impl<T> DerivedWeights<T> {
    /// Nothing derived yet, at [`Precision::F32`].
    pub(crate) fn new() -> Self {
        DerivedWeights {
            precision: Precision::F32,
            cell: OnceLock::new(),
        }
    }

    /// The precision inference runs at.
    pub(crate) fn precision(&self) -> Precision {
        self.precision
    }

    /// The derived weights, built by `build` at [`Self::precision`] on the
    /// first call since the last invalidation.
    pub(crate) fn get(&self, build: impl FnOnce(Precision) -> T) -> &T {
        self.cell.get_or_init(|| build(self.precision))
    }

    /// Drops the derived weights: the trainable ones may be about to change.
    pub(crate) fn invalidate(&mut self) {
        self.cell.take();
    }

    /// Selects the precision, dropping the derived weights if it changes.
    pub(crate) fn set_precision(&mut self, precision: Precision) {
        if self.precision != precision {
            self.precision = precision;
            self.invalidate();
        }
    }
}

/// `geo` restricted to output rows `rows` of one frame, and the input rows
/// those read: the same convolution over just those input rows, with the
/// zero rows SAME padding adds above them when the band starts at the top
/// of the map. Every output cell of the band sees the same taps, padding
/// and accumulation order as in the whole map, so a kernel run on the
/// band's rows under this geometry writes exactly the whole map's rows.
///
/// # Panics
///
/// Panics unless `rows` is a non-empty range of `geo`'s output rows.
pub(crate) fn band_geometry(
    geo: &Conv2dGeometry,
    rows: Range<usize>,
) -> (Conv2dGeometry, Range<usize>) {
    assert!(
        rows.start < rows.end && rows.end <= geo.out_h,
        "band rows {rows:?} of {}",
        geo.out_h
    );
    // The first input row the band's taps reach; negative inside the pad.
    let top = (rows.start * geo.stride) as isize - geo.pad_top as isize;
    let lo = top.max(0) as usize;
    let hi = ((rows.end - 1) * geo.stride + geo.kh)
        .saturating_sub(geo.pad_top)
        .min(geo.in_h);
    let band = Conv2dGeometry {
        in_h: hi - lo,
        out_h: rows.len(),
        pad_top: (lo as isize - top) as usize,
        ..*geo
    };
    (band, lo..hi)
}

//! Pooling layers: windowed max pooling and the global grid reductions used
//! by the full-frame microclassifier ("max over the grid of logits") and the
//! MobileNet head (global average).

use ff_tensor::{Tensor, Workspace};

use crate::layer::{frame_dims, stacked};
use crate::Layer;

/// Windowed max pooling with a square kernel and stride, VALID semantics
/// (trailing partial windows are dropped), as used by the discrete-classifier
/// family.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    cache: Vec<(Vec<usize>, Vec<usize>)>, // (input dims, argmax flat indices)
}

impl MaxPool2d {
    /// Creates a `k×k` max pool with the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(
            k > 0 && stride > 0,
            "pool kernel and stride must be positive"
        );
        MaxPool2d {
            k,
            stride,
            cache: Vec::new(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.k && w >= self.k,
            "pool {0}x{0} does not fit {h}x{w}",
            self.k
        );
        (
            (h - self.k) / self.stride + 1,
            (w - self.k) / self.stride + 1,
        )
    }

    /// Pools one `[h, w, c]` frame into `out` (`[oh, ow, c]`), writing each
    /// output's flat input index of its maximum to `arg` when given.
    fn pool(
        &self,
        x: &[f32],
        (h, w, c): (usize, usize, usize),
        out: &mut [f32],
        arg: &mut [usize],
    ) {
        let (oh, ow) = self.out_hw(h, w);
        for oy in 0..oh {
            for ox in 0..ow {
                for ch in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0;
                    for ky in 0..self.k {
                        for kx in 0..self.k {
                            let (y, xx) = (oy * self.stride + ky, ox * self.stride + kx);
                            let i = (y * w + xx) * c + ch;
                            if x[i] > best {
                                best = x[i];
                                best_i = i;
                            }
                        }
                    }
                    let o = (oy * ow + ox) * c + ch;
                    out[o] = best;
                    if let Some(a) = arg.get_mut(o) {
                        *a = best_i;
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn layer_type(&self) -> &'static str {
        "max_pool2d"
    }

    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let d = frame_dims(x, frames);
        let (h, w, c) = (d[0], d[1], d[2]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = ws.take(stacked(&[frames, oh, ow, c]));
        let (fin, fout) = (h * w * c, oh * ow * c);
        for f in 0..frames {
            let of = &mut out.data_mut()[f * fout..(f + 1) * fout];
            self.pool(&x.data()[f * fin..(f + 1) * fin], (h, w, c), of, &mut []);
        }
        out
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        let (h, w, c) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(vec![oh, ow, c]);
        let mut arg = vec![0usize; oh * ow * c];
        self.pool(x.data(), (h, w, c), out.data_mut(), &mut arg);
        self.cache.push((x.dims().to_vec(), arg));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (dims, arg) = self
            .cache
            .pop()
            .expect("MaxPool2d::backward without cached forward");
        let mut dx = Tensor::zeros(dims);
        for (g, &i) in grad_out.data().iter().zip(&arg) {
            dx.data_mut()[i] += g;
        }
        dx
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(in_shape[0], in_shape[1]);
        vec![oh, ow, in_shape[2]]
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

/// Global max over the spatial grid, per channel: `[H, W, C] → [C]`.
///
/// With `C = 1` this is exactly the full-frame object detector's "apply a
/// max operator over the grid of logits (signifying looking for ≥ 1
/// objects)" from §3.3.1.
#[derive(Debug, Default)]
pub struct GlobalMaxPool {
    cache: Vec<(Vec<usize>, Vec<usize>)>,
}

impl GlobalMaxPool {
    /// Creates a global max pool.
    pub fn new() -> Self {
        GlobalMaxPool::default()
    }
}

impl Layer for GlobalMaxPool {
    fn layer_type(&self) -> &'static str {
        "global_max_pool"
    }

    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let d = frame_dims(x, frames);
        let (cells, c) = (d[0] * d[1], d[2]);
        let mut out = ws.take(stacked(&[frames, c]));
        for f in 0..frames {
            let of = &mut out.data_mut()[f * c..(f + 1) * c];
            grid_max(
                &x.data()[f * cells * c..(f + 1) * cells * c],
                cells,
                of,
                &mut [],
            );
        }
        out
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        let (cells, c) = (x.dims()[0] * x.dims()[1], x.dims()[2]);
        let mut out = Tensor::zeros(vec![c]);
        let mut arg = vec![0usize; c];
        grid_max(x.data(), cells, out.data_mut(), &mut arg);
        self.cache.push((x.dims().to_vec(), arg));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (dims, arg) = self
            .cache
            .pop()
            .expect("GlobalMaxPool::backward without cached forward");
        let mut dx = Tensor::zeros(dims);
        for (g, &i) in grad_out.data().iter().zip(&arg) {
            dx.data_mut()[i] += g;
        }
        dx
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        vec![in_shape[2]]
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

/// Per-channel max over the `cells` cells of one HWC frame `x` into `out`
/// (`[c]`), writing each channel's flat input index of its maximum to `arg`
/// when given.
fn grid_max(x: &[f32], cells: usize, out: &mut [f32], arg: &mut [usize]) {
    assert!(cells > 0, "global max over empty grid");
    let c = out.len();
    out.fill(f32::NEG_INFINITY);
    for pos in 0..cells {
        for (ch, &v) in x[pos * c..(pos + 1) * c].iter().enumerate() {
            if v > out[ch] {
                out[ch] = v;
                if let Some(a) = arg.get_mut(ch) {
                    *a = pos * c + ch;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    #[test]
    fn maxpool_picks_window_max() {
        let x = Tensor::from_vec(vec![2, 2, 1], vec![1., 5., 3., 2.]);
        let mut p = MaxPool2d::new(2, 2);
        let y = p.forward(&x, Phase::Inference);
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert_eq!(y.data(), &[5.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![2, 2, 1], vec![1., 5., 3., 2.]);
        let mut p = MaxPool2d::new(2, 2);
        let _ = p.forward(&x, Phase::Train);
        let dx = p.backward(&Tensor::filled(vec![1, 1, 1], 7.0));
        assert_eq!(dx.data(), &[0., 7., 0., 0.]);
    }

    #[test]
    fn global_max_per_channel() {
        let x = Tensor::from_vec(vec![2, 1, 2], vec![1., 9., 4., 2.]);
        let mut p = GlobalMaxPool::new();
        let y = p.forward(&x, Phase::Inference);
        assert_eq!(y.data(), &[4., 9.]);
    }

    #[test]
    fn global_max_backward() {
        let x = Tensor::from_vec(vec![2, 1, 1], vec![3., 8.]);
        let mut p = GlobalMaxPool::new();
        let _ = p.forward(&x, Phase::Train);
        let dx = p.backward(&Tensor::filled(vec![1], 1.0));
        assert_eq!(dx.data(), &[0., 1.]);
    }

    #[test]
    fn maxpool_overlapping_windows() {
        let x = Tensor::from_vec(vec![3, 3, 1], (1..=9).map(|v| v as f32).collect());
        let mut p = MaxPool2d::new(2, 1);
        let y = p.forward(&x, Phase::Inference);
        assert_eq!(y.dims(), &[2, 2, 1]);
        assert_eq!(y.data(), &[5., 6., 8., 9.]);
    }
}

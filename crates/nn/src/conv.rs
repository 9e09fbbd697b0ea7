//! Convolutional layers and a small image classifier: the substrate for
//! the NetDissect comparison of paper Appendix E (which probes CNN channel
//! activations against pixel-level concept masks).
//!
//! Dimensions here are small (synthetic 16–32 px images), so the kernels
//! are plain loops; clarity and correct gradients matter more than SIMD.
//!
//! As in [`crate::lstm`] there are two forwards. Training runs
//! [`Conv2d::forward`] + [`relu_volume`] + [`maxpool2`], which keep the
//! pre-activations, ReLU masks and pool argmaxes the backward pass
//! consumes. Extraction ([`SmallCnn::unit_maps`],
//! [`SmallCnn::unit_pixels`]) runs [`Conv2d::forward_infer`] and a
//! max-only pool, which keep nothing — and produce the same bits: every
//! output pixel starts from the bias and adds its in-range taps in the
//! same `ic, ky, kx` order.

use crate::adam::Adam;
use crate::dense::Dense;
use deepbase_tensor::{init, ops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A `channels x height x width` activation volume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor3 {
    /// Channel count.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    data: Vec<f32>,
}

impl Tensor3 {
    /// Zero-filled volume.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Tensor3 {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Builds from a closure over `(channel, y, x)`.
    pub fn from_fn(
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(c * h * w);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    data.push(f(ci, y, x));
                }
            }
        }
        Tensor3 { c, h, w, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[(c * self.h + y) * self.w + x]
    }

    /// Element update.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        self.data[(c * self.h + y) * self.w + x] = v;
    }

    /// Adds to an element.
    #[inline]
    pub fn add(&mut self, c: usize, y: usize, x: usize, v: f32) {
        self.data[(c * self.h + y) * self.w + x] += v;
    }

    /// One channel as an `h x w` matrix (an "activation map").
    pub fn channel(&self, c: usize) -> Matrix {
        let start = c * self.h * self.w;
        Matrix::from_vec(
            self.h,
            self.w,
            self.data[start..start + self.h * self.w].to_vec(),
        )
        .expect("channel shape")
    }

    /// Flattens to a `1 x (c*h*w)` row for a dense head.
    pub fn flatten_row(&self) -> Matrix {
        Matrix::from_vec(1, self.data.len(), self.data.clone()).expect("flatten shape")
    }

    /// Raw buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// 2-D convolution with 3x3 kernels and same-padding (pad = 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    /// Weights as `out_ch x (in_ch * 9)` rows.
    w: Matrix,
    b: Matrix,
    adam_w: Adam,
    adam_b: Adam,
    grad_w: Matrix,
    grad_b: Matrix,
}

const K: usize = 3;
const PAD: i64 = 1;

impl Conv2d {
    /// Creates a layer with Glorot-style init.
    pub fn new(in_ch: usize, out_ch: usize, rng: &mut impl Rng) -> Self {
        let fan = in_ch * K * K;
        Conv2d {
            in_ch,
            out_ch,
            w: init::glorot_uniform(out_ch, fan, rng),
            b: Matrix::zeros(1, out_ch),
            adam_w: Adam::new(out_ch, fan),
            adam_b: Adam::new(1, out_ch),
            grad_w: Matrix::zeros(out_ch, fan),
            grad_b: Matrix::zeros(1, out_ch),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Training forward (same spatial size thanks to padding): the
    /// pre-activations, which [`relu_volume`] turns into output and mask.
    pub fn forward(&self, x: &Tensor3) -> Tensor3 {
        assert_eq!(x.c, self.in_ch, "conv input channels");
        let mut y = Tensor3::zeros(self.out_ch, x.h, x.w);
        for oc in 0..self.out_ch {
            let wrow = self.w.row(oc);
            let bias = self.b.get(0, oc);
            for yy in 0..x.h {
                for xx in 0..x.w {
                    let mut acc = bias;
                    for ic in 0..self.in_ch {
                        for ky in 0..K {
                            let sy = yy as i64 + ky as i64 - PAD;
                            if sy < 0 || sy >= x.h as i64 {
                                continue;
                            }
                            for kx in 0..K {
                                let sx = xx as i64 + kx as i64 - PAD;
                                if sx < 0 || sx >= x.w as i64 {
                                    continue;
                                }
                                acc += wrow[(ic * K + ky) * K + kx]
                                    * x.get(ic, sy as usize, sx as usize);
                            }
                        }
                    }
                    y.set(oc, yy, xx, acc);
                }
            }
        }
        y
    }

    /// Inference forward fused with ReLU: the post-activation volume and
    /// nothing else. An output row accumulates one tap at a time across
    /// the whole row (a branch-free, vectorizable inner loop); a tap that
    /// falls outside the image is left out of exactly the pixels the
    /// range checks of [`Self::forward`] leave it out of, so each pixel
    /// sums the same terms in the same order.
    pub fn forward_infer(&self, x: &Tensor3) -> Tensor3 {
        assert_eq!(x.c, self.in_ch, "conv input channels");
        let (h, w) = (x.h, x.w);
        let mut y = Tensor3::zeros(self.out_ch, h, w);
        if w == 0 {
            return y; // no pixels, and `acc[pad..]` below needs one
        }
        let pad = PAD as usize;
        for oc in 0..self.out_ch {
            let wrow = self.w.row(oc);
            let bias = self.b.get(0, oc);
            for yy in 0..h {
                let acc = &mut y.data[(oc * h + yy) * w..][..w];
                acc.fill(bias);
                for ic in 0..self.in_ch {
                    for ky in 0..K {
                        // Source row `yy + ky - pad`, when it exists.
                        let Some(sy) = (yy + ky).checked_sub(pad).filter(|&sy| sy < h) else {
                            continue;
                        };
                        let src = &x.data[(ic * h + sy) * w..][..w];
                        for kx in 0..K {
                            let tap = wrow[(ic * K + ky) * K + kx];
                            // Pixel `xx` reads `src[xx + kx - pad]`.
                            let dst = &mut acc[pad.saturating_sub(kx)..];
                            for (a, &s) in dst.iter_mut().zip(&src[kx.saturating_sub(pad)..]) {
                                *a += tap * s;
                            }
                        }
                    }
                }
                for a in acc {
                    *a = if *a > 0.0 { *a } else { 0.0 };
                }
            }
        }
        y
    }

    /// Backward pass: accumulates parameter grads, returns `dL/dx`.
    pub fn backward(&mut self, x: &Tensor3, dy: &Tensor3) -> Tensor3 {
        let mut dx = Tensor3::zeros(x.c, x.h, x.w);
        for oc in 0..self.out_ch {
            let mut db = 0.0f32;
            for yy in 0..x.h {
                for xx in 0..x.w {
                    let g = dy.get(oc, yy, xx);
                    if g == 0.0 {
                        continue;
                    }
                    db += g;
                    for ic in 0..self.in_ch {
                        for ky in 0..K {
                            let sy = yy as i64 + ky as i64 - PAD;
                            if sy < 0 || sy >= x.h as i64 {
                                continue;
                            }
                            for kx in 0..K {
                                let sx = xx as i64 + kx as i64 - PAD;
                                if sx < 0 || sx >= x.w as i64 {
                                    continue;
                                }
                                let widx = (ic * K + ky) * K + kx;
                                let xv = x.get(ic, sy as usize, sx as usize);
                                let wv = self.w.get(oc, widx);
                                let cur = self.grad_w.get(oc, widx);
                                self.grad_w.set(oc, widx, cur + g * xv);
                                dx.add(ic, sy as usize, sx as usize, g * wv);
                            }
                        }
                    }
                }
            }
            let cur = self.grad_b.get(0, oc);
            self.grad_b.set(0, oc, cur + db);
        }
        dx
    }

    /// Applies accumulated gradients with Adam.
    pub fn apply_grads(&mut self, lr: f32, scale: f32) {
        self.grad_w.scale_inplace(scale);
        self.grad_b.scale_inplace(scale);
        self.adam_w.step(&mut self.w, &self.grad_w, lr);
        self.adam_b.step(&mut self.b, &self.grad_b, lr);
        self.grad_w.scale_inplace(0.0);
        self.grad_b.scale_inplace(0.0);
    }
}

/// ReLU on a volume, returning output and a mask for backward.
pub fn relu_volume(x: &Tensor3) -> (Tensor3, Tensor3) {
    let mut y = x.clone();
    let mut mask = Tensor3::zeros(x.c, x.h, x.w);
    for c in 0..x.c {
        for yy in 0..x.h {
            for xx in 0..x.w {
                let v = x.get(c, yy, xx);
                if v > 0.0 {
                    mask.set(c, yy, xx, 1.0);
                } else {
                    y.set(c, yy, xx, 0.0);
                }
            }
        }
    }
    (y, mask)
}

/// 2x2 max-pool with stride 2; returns pooled volume and argmax indices.
pub fn maxpool2(x: &Tensor3) -> (Tensor3, Vec<usize>) {
    let oh = x.h / 2;
    let ow = x.w / 2;
    let mut y = Tensor3::zeros(x.c, oh, ow);
    let mut argmax = vec![0usize; x.c * oh * ow];
    for c in 0..x.c {
        for yy in 0..oh {
            for xx in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let sy = yy * 2 + dy;
                        let sx = xx * 2 + dx;
                        let v = x.get(c, sy, sx);
                        if v > best {
                            best = v;
                            best_idx = (c * x.h + sy) * x.w + sx;
                        }
                    }
                }
                y.set(c, yy, xx, best);
                argmax[(c * oh + yy) * ow + xx] = best_idx;
            }
        }
    }
    (y, argmax)
}

/// [`maxpool2`] without the argmax indices (inference).
fn maxpool2_infer(x: &Tensor3) -> Tensor3 {
    let (oh, ow) = (x.h / 2, x.w / 2);
    let mut y = Tensor3::zeros(x.c, oh, ow);
    for c in 0..x.c {
        for yy in 0..oh {
            let top = &x.data[(c * x.h + 2 * yy) * x.w..][..x.w];
            let bottom = &x.data[(c * x.h + 2 * yy + 1) * x.w..][..x.w];
            let out = &mut y.data[(c * oh + yy) * ow..][..ow];
            for (xx, o) in out.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for v in [
                    top[2 * xx],
                    top[2 * xx + 1],
                    bottom[2 * xx],
                    bottom[2 * xx + 1],
                ] {
                    if v > best {
                        best = v;
                    }
                }
                *o = best;
            }
        }
    }
    y
}

/// Backward of [`maxpool2`]: routes gradients to the argmax positions.
pub fn maxpool2_backward(
    dy: &Tensor3,
    argmax: &[usize],
    in_shape: (usize, usize, usize),
) -> Tensor3 {
    let (c, h, w) = in_shape;
    let mut dx = Tensor3::zeros(c, h, w);
    for (i, &src) in argmax.iter().enumerate() {
        dx.data[src] += dy.data[i];
    }
    dx
}

/// Nearest-neighbour upsampling of an activation map to `(h, w)` — the
/// alignment step NetDissect applies before computing IoU against
/// pixel-level masks.
pub fn upsample_nearest(map: &Matrix, h: usize, w: usize) -> Matrix {
    let sh = map.rows().max(1);
    let sw = map.cols().max(1);
    Matrix::from_fn(h, w, |y, x| {
        map.get(nearest_source(y, h, sh), nearest_source(x, w, sw))
    })
}

/// The source coordinate (of `src_len`) nearest-neighbour upsampling
/// reads for destination coordinate `dst` (of `dst_len`).
fn nearest_source(dst: usize, dst_len: usize, src_len: usize) -> usize {
    (dst * src_len / dst_len).min(src_len - 1)
}

/// A small two-conv-block CNN classifier over `C x S x S` images.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmallCnn {
    conv1: Conv2d,
    conv2: Conv2d,
    head: Dense,
    input_size: usize,
    /// Construction-time metadata, retained for future serialization.
    #[allow(dead_code)]
    classes: usize,
}

impl SmallCnn {
    /// Builds the network for `input_size`-pixel square images with
    /// `in_ch` channels, `c1`/`c2` conv channels and `classes` outputs.
    pub fn new(
        in_ch: usize,
        input_size: usize,
        c1: usize,
        c2: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            input_size.is_multiple_of(4),
            "input must be divisible by 4 (two pools)"
        );
        let mut rng = init::seeded_rng(seed);
        let feat = c2 * (input_size / 4) * (input_size / 4);
        SmallCnn {
            conv1: Conv2d::new(in_ch, c1, &mut rng),
            conv2: Conv2d::new(c1, c2, &mut rng),
            head: Dense::new(feat, classes, &mut rng),
            input_size,
            classes,
        }
    }

    /// Number of channels in the inspected (second) conv layer.
    pub fn units(&self) -> usize {
        self.conv2.out_channels()
    }

    /// Post-ReLU activations of the second conv layer at its own
    /// resolution (inference forward).
    fn unit_volume(&self, img: &Tensor3) -> Tensor3 {
        let p1 = maxpool2_infer(&self.conv1.forward_infer(img));
        self.conv2.forward_infer(&p1)
    }

    /// Post-ReLU activation maps of the second conv layer — the "units"
    /// NetDissect inspects — upsampled to the input resolution.
    pub fn unit_maps(&self, img: &Tensor3) -> Vec<Matrix> {
        let a2 = self.unit_volume(img);
        (0..a2.c)
            .map(|c| upsample_nearest(&a2.channel(c), self.input_size, self.input_size))
            .collect()
    }

    /// The same upsampled maps pixel-major, for the channels `unit_ids`
    /// only: `out` is an `S² x unit_ids.len()` row-major block whose row
    /// `y * S + x` receives the requested channels at that pixel (one
    /// record of a pixels-as-symbols behavior matrix).
    pub fn unit_pixels(&self, img: &Tensor3, unit_ids: &[usize], out: &mut [f32]) {
        let size = self.input_size;
        assert_eq!(
            out.len(),
            size * size * unit_ids.len(),
            "unit_pixels output shape"
        );
        if unit_ids.is_empty() {
            return;
        }
        let a2 = self.unit_volume(img);
        let mut rows = out.chunks_exact_mut(unit_ids.len());
        for y in 0..size {
            let sy = nearest_source(y, size, a2.h);
            for x in 0..size {
                let sx = nearest_source(x, size, a2.w);
                let dst = rows.next().expect("S² rows");
                for (d, &u) in dst.iter_mut().zip(unit_ids) {
                    *d = a2.get(u, sy, sx);
                }
            }
        }
    }

    /// Class probabilities for one image.
    pub fn predict_proba(&self, img: &Tensor3) -> Vec<f32> {
        let (a1, _) = relu_volume(&self.conv1.forward(img));
        let (p1, _) = maxpool2(&a1);
        let (a2, _) = relu_volume(&self.conv2.forward(&p1));
        let (p2, _) = maxpool2(&a2);
        let logits = self.head.forward(&p2.flatten_row());
        ops::softmax_rows(&logits).row(0).to_vec()
    }

    /// Greedy class prediction.
    pub fn predict(&self, img: &Tensor3) -> usize {
        let p = self.predict_proba(img);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// One SGD step on a single labelled image; returns the loss.
    pub fn train_example(&mut self, img: &Tensor3, label: usize, lr: f32) -> f32 {
        let z1 = self.conv1.forward(img);
        let (a1, m1) = relu_volume(&z1);
        let (p1, arg1) = maxpool2(&a1);
        let z2 = self.conv2.forward(&p1);
        let (a2, m2) = relu_volume(&z2);
        let (p2, arg2) = maxpool2(&a2);
        let flat = p2.flatten_row();
        let logits = self.head.forward(&flat);
        let probs = ops::softmax_rows(&logits);
        let loss = -probs.get(0, label).max(1e-12).ln();

        let mut dlogits = probs;
        let v = dlogits.get(0, label);
        dlogits.set(0, label, v - 1.0);
        let dflat = self.head.backward(&flat, &dlogits);
        let mut dp2 = Tensor3::zeros(p2.c, p2.h, p2.w);
        dp2.data.copy_from_slice(dflat.as_slice());
        let mut da2 = maxpool2_backward(&dp2, &arg2, (a2.c, a2.h, a2.w));
        for (d, m) in da2.data.iter_mut().zip(m2.data.iter()) {
            *d *= m;
        }
        let dp1 = self.conv2.backward(&p1, &da2);
        let mut da1 = maxpool2_backward(&dp1, &arg1, (a1.c, a1.h, a1.w));
        for (d, m) in da1.data.iter_mut().zip(m1.data.iter()) {
            *d *= m;
        }
        self.conv1.backward(img, &da1);

        self.conv1.apply_grads(lr, 1.0);
        self.conv2.apply_grads(lr, 1.0);
        self.head.apply_grads(lr, 1.0);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity::{bits, plant, SPECIAL_WEIGHTS};
    use deepbase_tensor::init::seeded_rng;

    #[test]
    fn tensor3_indexing() {
        let t = Tensor3::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as f32);
        assert_eq!(t.get(1, 2, 3), 123.0);
        assert_eq!(t.channel(1).get(2, 3), 123.0);
        assert_eq!(t.flatten_row().cols(), 24);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new(1, 1, &mut rng);
        // Zero all weights, set the center tap to 1: output == input.
        conv.w.scale_inplace(0.0);
        conv.w.set(0, 4, 1.0); // (ic=0, ky=1, kx=1)
        let img = Tensor3::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let out = conv.forward(&img);
        assert_eq!(out, img);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = seeded_rng(2);
        let mut conv = Conv2d::new(2, 2, &mut rng);
        let img = Tensor3::from_fn(2, 4, 4, |c, y, x| {
            ((c + 2 * y + 3 * x) % 5) as f32 * 0.3 - 0.5
        });
        let y = conv.forward(&img);
        let dy = y.clone(); // L = sum(y^2)/2
        let dx = conv.backward(&img, &dy);
        let analytic_w = conv.grad_w.clone();

        let loss = |conv: &Conv2d, img: &Tensor3| -> f32 {
            conv.forward(img)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum()
        };
        let eps = 1e-2;
        for oc in 0..2 {
            for k in 0..6 {
                let orig = conv.w.get(oc, k);
                conv.w.set(oc, k, orig + eps);
                let lp = loss(&conv, &img);
                conv.w.set(oc, k, orig - eps);
                let lm = loss(&conv, &img);
                conv.w.set(oc, k, orig);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic_w.get(oc, k);
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                    "dW[{oc},{k}] {fd} vs {an}"
                );
            }
        }
        // Input gradient at a few positions.
        for (c, yy, xx) in [(0, 0, 0), (1, 2, 3), (0, 3, 1)] {
            let mut imgp = img.clone();
            imgp.set(c, yy, xx, img.get(c, yy, xx) + eps);
            let lp = loss(&conv, &imgp);
            let mut imgm = img.clone();
            imgm.set(c, yy, xx, img.get(c, yy, xx) - eps);
            let lm = loss(&conv, &imgm);
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.get(c, yy, xx);
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "dx[{c},{yy},{xx}] {fd} vs {an}"
            );
        }
    }

    #[test]
    fn maxpool_and_backward() {
        let x = Tensor3::from_fn(1, 4, 4, |_, y, xx| (y * 4 + xx) as f32);
        let (y, arg) = maxpool2(&x);
        assert_eq!(y.get(0, 0, 0), 5.0);
        assert_eq!(y.get(0, 1, 1), 15.0);
        let dy = Tensor3::from_fn(1, 2, 2, |_, _, _| 1.0);
        let dx = maxpool2_backward(&dy, &arg, (1, 4, 4));
        assert_eq!(dx.get(0, 1, 1), 1.0); // position of the 5
        assert_eq!(dx.get(0, 0, 0), 0.0);
        assert_eq!(dx.as_slice().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn relu_volume_masks() {
        let x = Tensor3::from_fn(
            1,
            2,
            2,
            |_, y, xx| if (y + xx) % 2 == 0 { 1.5 } else { -1.5 },
        );
        let (y, mask) = relu_volume(&x);
        assert_eq!(y.get(0, 0, 1), 0.0);
        assert_eq!(y.get(0, 0, 0), 1.5);
        assert_eq!(mask.get(0, 0, 0), 1.0);
        assert_eq!(mask.get(0, 0, 1), 0.0);
    }

    #[test]
    fn upsample_nearest_tiles() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let up = upsample_nearest(&m, 4, 4);
        assert_eq!(up.get(0, 0), 1.0);
        assert_eq!(up.get(0, 3), 2.0);
        assert_eq!(up.get(3, 0), 3.0);
        assert_eq!(up.get(3, 3), 4.0);
    }

    #[test]
    fn cnn_learns_quadrant_classification() {
        // Class = which quadrant holds the bright square.
        let mut cnn = SmallCnn::new(1, 8, 4, 4, 4, 3);
        let make = |q: usize| {
            Tensor3::from_fn(1, 8, 8, |_, y, x| {
                let (qy, qx) = (q / 2, q % 2);
                if (qy * 4..qy * 4 + 4).contains(&y) && (qx * 4..qx * 4 + 4).contains(&x) {
                    1.0
                } else {
                    0.0
                }
            })
        };
        for _ in 0..60 {
            for q in 0..4 {
                cnn.train_example(&make(q), q, 0.01);
            }
        }
        for q in 0..4 {
            assert_eq!(cnn.predict(&make(q)), q, "quadrant {q}");
        }
    }

    /// `unit_maps` through the training forward — the reference the
    /// inference path must reproduce.
    fn training_unit_maps(cnn: &SmallCnn, img: &Tensor3) -> Vec<Matrix> {
        let (a1, _) = relu_volume(&cnn.conv1.forward(img));
        let (p1, _) = maxpool2(&a1);
        let (a2, _) = relu_volume(&cnn.conv2.forward(&p1));
        (0..a2.c)
            .map(|c| upsample_nearest(&a2.channel(c), cnn.input_size, cnn.input_size))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Parity is the contract, one for all three families: conv +
        /// ReLU agree bit for bit at every shape, including ones where
        /// every pixel is a border pixel.
        #[test]
        fn conv_inference_is_the_training_forward_plus_relu(
            seed in 0u64..10_000,
            in_ch in 1usize..4,
            out_ch in 1usize..4,
            h in 0usize..8,
            w in 0usize..8,
            specials in proptest::collection::vec((0usize..10_000, 0usize..SPECIAL_WEIGHTS.len()), 0..16),
        ) {
            let mut rng = seeded_rng(seed);
            let mut conv = Conv2d::new(in_ch, out_ch, &mut rng);
            plant(&mut conv.w, &specials);
            plant(&mut conv.b, &specials[..specials.len().min(2)]);
            let img = Tensor3::from_fn(in_ch, h, w, |_, _, _| {
                let v: f32 = rng.gen_range(-1.0..1.0);
                // A fifth of the pixels are exact (signed) zeros.
                if v.abs() < 0.2 { v * 0.0 } else { v }
            });
            let (expected, _) = relu_volume(&conv.forward(&img));
            let got = conv.forward_infer(&img);
            proptest::prop_assert_eq!((got.c, got.h, got.w), (out_ch, h, w));
            proptest::prop_assert_eq!(bits(got.as_slice()), bits(expected.as_slice()));
        }

        /// The whole extraction path, at image sides where the pool
        /// floors (odd) and down to 2x2; `unit_pixels` is the same maps
        /// pixel-major, restricted to the requested channels.
        #[test]
        fn unit_maps_and_unit_pixels_are_the_training_forward(
            seed in 0u64..10_000,
            side in 2usize..12,
            unit_picks in proptest::collection::vec(0usize..100, 0..7),
            specials in proptest::collection::vec((0usize..10_000, 0usize..SPECIAL_WEIGHTS.len()), 0..16),
        ) {
            let mut cnn = SmallCnn::new(2, 8, 3, 5, 2, seed);
            plant(&mut cnn.conv1.w, &specials);
            plant(&mut cnn.conv2.w, &specials);
            let mut rng = seeded_rng(seed ^ 0x5eed);
            let img = Tensor3::from_fn(2, side, side, |_, _, _| rng.gen_range(-1.0..1.0));
            let expected = training_unit_maps(&cnn, &img);
            let maps = cnn.unit_maps(&img);
            proptest::prop_assert_eq!(maps.len(), expected.len());
            for (got, want) in maps.iter().zip(&expected) {
                proptest::prop_assert_eq!(got.shape(), (8, 8));
                proptest::prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            }
            let unit_ids: Vec<usize> = unit_picks.iter().map(|u| u % 5).collect();
            let mut pixels = vec![f32::NAN; 64 * unit_ids.len()];
            cnn.unit_pixels(&img, &unit_ids, &mut pixels);
            for (p, row) in pixels.chunks(unit_ids.len().max(1)).enumerate() {
                let want: Vec<f32> = unit_ids.iter().map(|&u| expected[u].as_slice()[p]).collect();
                proptest::prop_assert_eq!(bits(row), bits(&want), "pixel {}", p);
            }
        }
    }

    #[test]
    fn unit_maps_have_input_resolution() {
        let cnn = SmallCnn::new(1, 8, 3, 5, 2, 4);
        let img = Tensor3::zeros(1, 8, 8);
        let maps = cnn.unit_maps(&img);
        assert_eq!(maps.len(), 5);
        for m in maps {
            assert_eq!(m.shape(), (8, 8));
        }
    }
}

//! Convolutional layers and a small image classifier: the substrate for
//! the NetDissect comparison of paper Appendix E (which probes CNN channel
//! activations against pixel-level concept masks).
//!
//! As in [`crate::lstm`] there are two forwards. Training runs
//! [`Conv2d::forward`] + [`relu_volume`] + [`maxpool2`] on `C x H x W`
//! [`Tensor3`]s, keeping the pre-activations, ReLU masks and pool argmaxes
//! the backward pass consumes; it is written for clarity and is the
//! parity reference. Extraction ([`SmallCnn::unit_maps`],
//! [`SmallCnn::unit_pixels`], [`SmallCnn::unit_pixels_batch`]) runs the
//! one inference kernel, `Conv2d::forward_infer`, which keeps nothing and
//! produces the same bits:
//!
//! * **Layout.** The kernel writes channels-last (`H x W x C`): one
//!   pixel's channels are contiguous. It reads channels-first, so a row of
//!   a tap window is one contiguous slice: conv-1 reads the image's
//!   [`Tensor3`] buffer in place, the 2x2 max-pool reads conv-1's
//!   channels-last output and writes the channels-first volume conv-2
//!   reads, and the unit read-out takes the requested channels straight
//!   from conv-2's channels-last output. The buffers are reused across
//!   the images of one call.
//! * **Lane groups.** Output channels run eight at a time: the weights are
//!   packed per group as a bias row and one row per tap, each an
//!   `[f32; 8]`, so one pixel's group accumulates in an `[f32; 8]` the
//!   compiler keeps in vector registers on the baseline target. A partial
//!   last group gets zero weights and bias in its dead lanes, which are
//!   never stored. Interior pixels go two at a time (two independent
//!   accumulation chains per tap row).
//! * **Interior / border.** An interior pixel takes all nine taps of each
//!   input channel with no range checks (and, its window being of fixed
//!   size, no per-tap bounds checks); a border pixel takes the taps whose
//!   source lies inside the image — exactly the ones the range checks of
//!   [`Conv2d::forward`] keep. Zero-padding the input instead would add
//!   `w * 0` terms the reference never adds, which turns a `±∞` weight
//!   into a NaN.
//! * **Order.** Per lane, a pixel starts from its bias, adds its taps in
//!   the training forward's `ic, ky, kx` order (`acc += w * x`, no fused
//!   multiply-add) and then applies ReLU. Float addition does not
//!   associate, so that order, not the mathematical sum, is what makes the
//!   two forwards agree bit for bit; the behavior store keys columns by
//!   the weights, not by which forward wrote them.

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
/// Output channels per register tile of the inference kernel.
const LANES: usize = 8;
/// Interior pixels of one row the inference kernel accumulates at once.
const TILE: usize = 2;

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

    /// The weights as the inference kernel reads them: per group of
    /// [`LANES`] output channels, a bias row and then one row per tap in
    /// `ic, ky, kx` order; dead lanes of a partial last group are zero.
    fn pack_lanes(&self, packed: &mut Vec<[f32; LANES]>) {
        let fan = self.in_ch * K * K;
        packed.clear();
        for first in (0..self.out_ch).step_by(LANES) {
            let lanes = LANES.min(self.out_ch - first);
            let mut row = [0.0; LANES];
            for (l, r) in row[..lanes].iter_mut().enumerate() {
                *r = self.b.get(0, first + l);
            }
            packed.push(row);
            for t in 0..fan {
                for (l, r) in row[..lanes].iter_mut().enumerate() {
                    *r = self.w.get(first + l, t);
                }
                packed.push(row);
            }
        }
    }

    /// Inference forward fused with ReLU (see the module docs): reads an
    /// `in_ch x h x w` input, writes the post-activation volume
    /// channels-last into `out` (resized to `h x w x out_ch`). `packed` is
    /// [`Self::pack_lanes`]'s output.
    fn forward_infer(
        &self,
        src: &[f32],
        (h, w): (usize, usize),
        packed: &[[f32; LANES]],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(src.len(), self.in_ch * h * w, "conv input shape");
        let oc = self.out_ch;
        out.resize(h * w * oc, 0.0);
        for (g, group) in packed.chunks_exact(1 + self.in_ch * K * K).enumerate() {
            let first = g * LANES;
            let lanes = LANES.min(oc - first);
            let mut store = |y: usize, x: usize, acc: &[f32; LANES]| {
                let dst = &mut out[(y * w + x) * oc + first..][..lanes];
                for (d, &a) in dst.iter_mut().zip(acc) {
                    *d = if a > 0.0 { a } else { 0.0 };
                }
            };
            for y in 0..h {
                // Tap `k` reads source `y + k - 1`: keep the taps whose
                // source row / column lies inside the image.
                let ky = usize::from(y == 0)..K.min(h + 1 - y);
                let mut x = 0;
                while x < w {
                    if ky == (0..K) && x > 0 && x + TILE < w {
                        let tile = self.pixels::<TILE>(group, src, (h, w), (y, x), 0..K, 0..K);
                        for (p, acc) in tile.iter().enumerate() {
                            store(y, x + p, acc);
                        }
                        x += TILE;
                    } else {
                        let kx = usize::from(x == 0)..K.min(w + 1 - x);
                        let [acc] = self.pixels::<1>(group, src, (h, w), (y, x), ky.clone(), kx);
                        store(y, x, &acc);
                        x += 1;
                    }
                }
            }
        }
    }

    /// The lane groups of the `N` pixels `x..x + N` of row `y`, before
    /// ReLU: each the bias row plus every tap of the `ky x kx` window in
    /// `ic, ky, kx` order. The pixels are independent accumulation chains,
    /// which lets a tile of them overlap in the pipeline; a window row is
    /// one slice of the input, so an interior tile's fixed-size window
    /// needs no per-tap bounds check.
    #[inline(always)]
    fn pixels<const N: usize>(
        &self,
        group: &[[f32; LANES]],
        src: &[f32],
        (h, w): (usize, usize),
        (y, x): (usize, usize),
        ky: std::ops::Range<usize>,
        kx: std::ops::Range<usize>,
    ) -> [[f32; LANES]; N] {
        let (bias, taps) = group.split_first().expect("a bias row");
        let mut acc = [*bias; N];
        for (ic, taps) in taps.chunks_exact(K * K).enumerate() {
            for ky in ky.clone() {
                // Source row `y + ky - 1` from column `x + kx.start - 1`
                // (both `>= 0`: the window never starts outside the image);
                // tap `kx.start + j` of pixel `x + p` reads `line[j + p]`.
                let start = (ic * h + y + ky - 1) * w + x + kx.start - 1;
                let line = &src[start..start + kx.len() + N - 1];
                let row = &taps[ky * K + kx.start..ky * K + kx.end];
                for (j, tap) in row.iter().enumerate() {
                    for (acc, &v) in acc.iter_mut().zip(&line[j..j + N]) {
                        for (a, &t) in acc.iter_mut().zip(tap) {
                            *a += t * v;
                        }
                    }
                }
            }
        }
        acc
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

/// [`maxpool2`] without the argmax indices (inference), from conv-1's
/// channels-last output to the channels-first input conv-2 reads: writes
/// the `c x h/2 x w/2` pooled volume of the `h x w x c` volume `src` into
/// `out`, each value the largest of its four candidates taken in
/// [`maxpool2`]'s order.
fn maxpool2_infer(src: &[f32], (h, w, c): (usize, usize, usize), out: &mut Vec<f32>) {
    let (oh, ow) = (h / 2, w / 2);
    out.resize(c * oh * ow, 0.0);
    let pixel = |y: usize, x: usize| &src[(y * w + x) * c..][..c];
    for i in 0..oh * ow {
        let (y, x) = (2 * (i / ow), 2 * (i % ow));
        let candidates = [
            pixel(y, x),
            pixel(y, x + 1),
            pixel(y + 1, x),
            pixel(y + 1, x + 1),
        ];
        for ch in 0..c {
            let mut best = f32::NEG_INFINITY;
            for v in candidates.map(|p| p[ch]) {
                if v > best {
                    best = v;
                }
            }
            out[ch * oh * ow + i] = best;
        }
    }
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

/// The inference forward's buffers, kept across the images of one call:
/// both convs' packed lane weights and the current image's conv-1
/// (channels-last), pooled (channels-first) and conv-2 (channels-last)
/// volumes.
#[derive(Default)]
struct InferScratch {
    w1: Vec<[f32; LANES]>,
    w2: Vec<[f32; LANES]>,
    a1: Vec<f32>,
    p1: Vec<f32>,
    a2: Vec<f32>,
}

/// For each pixel of a `size x size` map in row-major order, the pixel
/// `row * w + col` of an `h x w` map that nearest-neighbour upsampling
/// ([`upsample_nearest`]) reads for it.
fn upsample_sources(size: usize, (h, w): (usize, usize)) -> Vec<usize> {
    let cols: Vec<usize> = (0..size).map(|x| nearest_source(x, size, w)).collect();
    (0..size)
        .flat_map(|y| {
            let row = nearest_source(y, size, h) * w;
            cols.iter().map(move |&col| row + col)
        })
        .collect()
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
            input_size >= 4 && input_size.is_multiple_of(4),
            "input size {input_size} must be a positive multiple of 4 (two pools)"
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

    /// Buffers for [`Self::unit_volume`], with both convs' weights packed.
    fn scratch(&self) -> InferScratch {
        let mut s = InferScratch::default();
        self.conv1.pack_lanes(&mut s.w1);
        self.conv2.pack_lanes(&mut s.w2);
        s
    }

    /// Post-ReLU activations of the second conv layer at its own
    /// resolution (inference forward): leaves the `h x w x units`
    /// channels-last volume in `s.a2` and returns `(h, w)`.
    fn unit_volume(&self, img: &Tensor3, s: &mut InferScratch) -> (usize, usize) {
        assert_eq!(img.c, self.conv1.in_ch, "conv input channels");
        let (h, w) = (img.h / 2, img.w / 2);
        assert!(
            h > 0 && w > 0,
            "a {}x{}x{} image pools to an empty {h}x{w} map (unit maps need at least 2x2 pixels)",
            img.c,
            img.h,
            img.w
        );
        let c1 = self.conv1.out_ch;
        self.conv1
            .forward_infer(&img.data, (img.h, img.w), &s.w1, &mut s.a1);
        maxpool2_infer(&s.a1, (img.h, img.w, c1), &mut s.p1);
        self.conv2.forward_infer(&s.p1, (h, w), &s.w2, &mut s.a2);
        (h, w)
    }

    /// Post-ReLU activation maps of the second conv layer — the "units"
    /// NetDissect inspects — upsampled to the input resolution.
    pub fn unit_maps(&self, img: &Tensor3) -> Vec<Matrix> {
        let mut s = self.scratch();
        let sources = upsample_sources(self.input_size, self.unit_volume(img, &mut s));
        let units = self.units();
        (0..units)
            .map(|u| {
                let map = sources.iter().map(|&p| s.a2[p * units + u]).collect();
                Matrix::from_vec(self.input_size, self.input_size, map).expect("S x S map")
            })
            .collect()
    }

    /// The same upsampled maps pixel-major, for the channels `unit_ids`
    /// only: `out` is an `S² x unit_ids.len()` row-major block whose row
    /// `y * S + x` receives the requested channels at that pixel (one
    /// record of a pixels-as-symbols behavior matrix).
    pub fn unit_pixels(&self, img: &Tensor3, unit_ids: &[usize], out: &mut [f32]) {
        self.unit_pixels_batch(&[img], unit_ids, out);
    }

    /// [`Self::unit_pixels`] for several images into consecutive
    /// `S² x unit_ids.len()` blocks of `out`, reusing one set of buffers.
    pub fn unit_pixels_batch(&self, imgs: &[&Tensor3], unit_ids: &[usize], out: &mut [f32]) {
        let size = self.input_size;
        let block = size * size * unit_ids.len();
        assert_eq!(out.len(), imgs.len() * block, "unit_pixels output shape");
        if block == 0 {
            return;
        }
        let units = self.units();
        let mut s = self.scratch();
        for (img, out) in imgs.iter().zip(out.chunks_exact_mut(block)) {
            let sources = upsample_sources(size, self.unit_volume(img, &mut s));
            for (p, dst) in sources
                .into_iter()
                .zip(out.chunks_exact_mut(unit_ids.len()))
            {
                let src = &s.a2[p * units..][..units];
                for (d, &u) in dst.iter_mut().zip(unit_ids) {
                    *d = src[u];
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
    use crate::parity::{bits, SPECIAL_WEIGHTS};
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

    /// The values planted into weights, biases and pixels: the shared
    /// [`SPECIAL_WEIGHTS`] plus the non-finite ones. ReLU maps every NaN
    /// to `+0.0`, so no NaN payload ever reaches an output.
    fn specials() -> Vec<f32> {
        let non_finite = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        SPECIAL_WEIGHTS.iter().copied().chain(non_finite).collect()
    }

    const N_SPECIALS: usize = SPECIAL_WEIGHTS.len() + 3;

    /// Overwrites entries of `values` with [`specials`]: `(position, which)`.
    fn plant_any(values: &mut [f32], picks: &[(usize, usize)]) {
        if values.is_empty() {
            return;
        }
        let (specials, len) = (specials(), values.len());
        for &(pos, which) in picks {
            values[pos % len] = specials[which];
        }
    }

    /// `v` (`c x h x w`) channels-last.
    fn to_hwc(v: &Tensor3) -> Vec<f32> {
        let mut out = Vec::with_capacity(v.data.len());
        for y in 0..v.h {
            for x in 0..v.w {
                out.extend((0..v.c).map(|c| v.get(c, y, x)));
            }
        }
        out
    }

    /// Up to 15 `(position, which)` picks for [`plant_any`].
    fn picks() -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..10_000, 0usize..N_SPECIALS), 0..16)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Parity is the contract, one for all three families: the
        /// channels-last kernel and the training forward + ReLU agree bit
        /// for bit — one lane group, several, and partial ones; at every
        /// shape down to the ones where no pixel is interior (1xN, Nx1,
        /// 2x2) or where a row holds a partial tile.
        #[test]
        fn conv_inference_is_the_training_forward_plus_relu(
            seed in 0u64..10_000,
            in_ch in 1usize..=5,
            out_ch in 1usize..=17,
            h in 0usize..=9,
            w in 0usize..=9,
            weight_picks in picks(),
            bias_picks in picks(),
            pixel_picks in picks(),
        ) {
            let mut rng = seeded_rng(seed);
            let mut conv = Conv2d::new(in_ch, out_ch, &mut rng);
            plant_any(conv.w.as_mut_slice(), &weight_picks);
            plant_any(conv.b.as_mut_slice(), &bias_picks[..bias_picks.len().min(4)]);
            let mut img = Tensor3::from_fn(in_ch, h, w, |_, _, _| {
                let v: f32 = rng.gen_range(-1.0..1.0);
                // A fifth of the pixels are exact (signed) zeros.
                if v.abs() < 0.2 { v * 0.0 } else { v }
            });
            plant_any(&mut img.data, &pixel_picks);
            let mut packed = Vec::new();
            conv.pack_lanes(&mut packed);
            let mut got = vec![f32::NAN; 3];
            conv.forward_infer(&img.data, (h, w), &packed, &mut got);
            let (expected, _) = relu_volume(&conv.forward(&img));
            proptest::prop_assert_eq!(bits(&got), bits(&to_hwc(&expected)));
        }

        /// The whole extraction path for conv widths that are not
        /// multiples of the lane group, at image shapes where the pool
        /// floors (odd), non-square ones and down to 2x2; `unit_pixels`
        /// is the same maps pixel-major, restricted to the requested
        /// channels, and `unit_pixels_batch` is `unit_pixels` per image.
        #[test]
        fn unit_maps_and_unit_pixels_are_the_training_forward(
            seed in 0u64..10_000,
            widths in (0usize..3, 0usize..3),
            h in 2usize..12,
            w in 2usize..12,
            unit_picks in proptest::collection::vec(0usize..100, 0..7),
            weight_picks in picks(),
            pixel_picks in picks(),
        ) {
            let (c1, c2) = ([1, 6, 9][widths.0], [1, 8, 13][widths.1]);
            let mut cnn = SmallCnn::new(2, 8, c1, c2, 2, seed);
            for values in [&mut cnn.conv1.w, &mut cnn.conv1.b, &mut cnn.conv2.w, &mut cnn.conv2.b] {
                plant_any(values.as_mut_slice(), &weight_picks);
            }
            let mut rng = seeded_rng(seed ^ 0x5eed);
            let mut img = Tensor3::from_fn(2, h, w, |_, _, _| rng.gen_range(-1.0..1.0));
            plant_any(&mut img.data, &pixel_picks);
            let expected = training_unit_maps(&cnn, &img);
            let maps = cnn.unit_maps(&img);
            proptest::prop_assert_eq!(maps.len(), c2);
            for (got, want) in maps.iter().zip(&expected) {
                proptest::prop_assert_eq!(got.shape(), (8, 8));
                proptest::prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            }
            let unit_ids: Vec<usize> = unit_picks.iter().map(|u| u % c2).collect();
            let mut pixels = vec![f32::NAN; 64 * unit_ids.len()];
            cnn.unit_pixels(&img, &unit_ids, &mut pixels);
            for (p, row) in pixels.chunks(unit_ids.len().max(1)).enumerate() {
                let want: Vec<f32> = unit_ids.iter().map(|&u| expected[u].as_slice()[p]).collect();
                proptest::prop_assert_eq!(bits(row), bits(&want), "pixel {}", p);
            }
            let blank = Tensor3::zeros(2, 4, 4);
            let mut batch = vec![f32::NAN; 3 * pixels.len()];
            cnn.unit_pixels_batch(&[&img, &blank, &img], &unit_ids, &mut batch);
            let mut blank_pixels = vec![f32::NAN; pixels.len()];
            cnn.unit_pixels(&blank, &unit_ids, &mut blank_pixels);
            let want: Vec<f32> = [&pixels[..], &blank_pixels, &pixels].concat();
            proptest::prop_assert_eq!(bits(&batch), bits(&want));
        }
    }

    #[test]
    #[should_panic(expected = "input size 0 must be a positive multiple of 4")]
    fn a_zero_input_size_is_refused() {
        SmallCnn::new(1, 0, 2, 2, 2, 1);
    }

    #[test]
    fn images_under_two_pixels_a_side_are_refused_naming_their_shape() {
        let cnn = SmallCnn::new(1, 8, 3, 5, 2, 4);
        for (h, w) in [(0, 0), (1, 1), (1, 8), (8, 1), (0, 8)] {
            let img = Tensor3::zeros(1, h, w);
            let want = format!("a 1x{h}x{w} image pools to an empty");
            let maps = std::panic::catch_unwind(|| cnn.unit_maps(&img));
            let pixels = std::panic::catch_unwind(|| cnn.unit_pixels(&img, &[0], &mut [0.0; 64]));
            for payload in [maps.err(), pixels.err()] {
                let payload = payload.expect("refused");
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("a formatted message");
                assert!(msg.contains(&want), "{msg}");
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

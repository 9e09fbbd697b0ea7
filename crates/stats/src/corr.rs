//! Pearson correlation: batch, streaming, and Fisher-transform confidence
//! intervals.
//!
//! Correlation is DeepBase's default *independent* affinity measure
//! (paper §4.3). The streaming accumulator is what makes the paper's early
//! stopping optimization (§5.2.2) possible: affinity is an empirical
//! estimate over a sample, and the Fisher-transform confidence interval
//! tells the engine when the estimate has converged.

use deepbase_tensor::{transpose_columns_into, Columns};

/// Streaming accumulator for Pearson's r over a pair of variables.
///
/// Maintains *shifted* co-moments in a single pass: the first observation
/// (or the first block's mean) becomes a per-variable shift `k`, and all
/// sums accumulate `x − k` instead of raw `x`. Correlation is shift
/// invariant, and working near the data's own origin removes the
/// catastrophic cancellation of `Σx² − (Σx)²/n` when `mean² ≫ variance`
/// — a constant column pushed element-wise has *exactly* zero variance
/// here. The accumulator also tracks a running bound on the rounding
/// error of each variance (`err_xx`/`err_yy`); [`Self::correlation`]
/// treats any variance inside that bound as "numerically constant" and
/// scores it 0 instead of amplifying noise.
#[derive(Debug, Clone, Default)]
pub struct StreamingPearson {
    n: u64,
    /// Per-variable shifts, fixed by the first data to arrive.
    kx: f64,
    ky: f64,
    /// Shifted sums: `Σ(x−kx)`, `Σ(y−ky)`, and their co-moments.
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_yy: f64,
    sum_xy: f64,
    /// Accumulated bounds on the floating-point error of the variances.
    err_xx: f64,
    err_yy: f64,
}

impl StreamingPearson {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds one `(x, y)` observation.
    #[inline]
    pub fn push(&mut self, x: f32, y: f32) {
        let (x, y) = (x as f64, y as f64);
        if self.n == 0 {
            self.kx = x;
            self.ky = y;
        }
        let dx = x - self.kx;
        let dy = y - self.ky;
        self.n += 1;
        self.sum_x += dx;
        self.sum_y += dy;
        self.sum_xx += dx * dx;
        self.sum_yy += dy * dy;
        self.sum_xy += dx * dy;
        self.err_xx += f64::EPSILON * dx * dx;
        self.err_yy += f64::EPSILON * dy * dy;
    }

    /// Adds a block of paired observations.
    ///
    /// Accumulates the block's (shifted) moments in registers before
    /// folding them into the state once — the vectorizable hot path
    /// behind the correlation measure (the per-`push` path updates the
    /// struct fields per element).
    pub fn push_block(&mut self, xs: &[f32], ys: &[f32]) {
        assert_eq!(xs.len(), ys.len(), "pearson block length mismatch");
        if xs.is_empty() {
            return;
        }
        if self.n == 0 {
            self.kx = xs[0] as f64;
            self.ky = ys[0] as f64;
        }
        let (kx, ky) = (self.kx, self.ky);
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let dx = x as f64 - kx;
            let dy = y as f64 - ky;
            sx += dx;
            sy += dy;
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
        }
        self.fold_shifted(xs.len() as u64, sx, sy, sxx, syy, sxy);
    }

    /// Adds a block where `x` is a strided column view: observation `i`
    /// pairs `xs[offset + i * stride]` with `ys[i]`.
    ///
    /// This is the columnar entry point for row-major behavior matrices
    /// (`stride` = number of units, `offset` = unit index): one pass per
    /// unit with register accumulation, instead of scattering every row
    /// across all unit accumulators.
    pub fn push_block_strided(&mut self, xs: &[f32], offset: usize, stride: usize, ys: &[f32]) {
        assert!(stride > 0, "pearson stride must be positive");
        if ys.is_empty() {
            return;
        }
        assert!(
            offset + (ys.len() - 1) * stride < xs.len(),
            "pearson strided block out of range"
        );
        if self.n == 0 {
            self.kx = xs[offset] as f64;
            self.ky = ys[0] as f64;
        }
        let (kx, ky) = (self.kx, self.ky);
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        let mut idx = offset;
        for &y in ys {
            let dx = xs[idx] as f64 - kx;
            let dy = y as f64 - ky;
            sx += dx;
            sy += dy;
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
            idx += stride;
        }
        self.fold_shifted(ys.len() as u64, sx, sy, sxx, syy, sxy);
    }

    /// Folds block moments already expressed in this accumulator's
    /// shifted frame, charging the summation-error budget at the block's
    /// own (shifted, i.e. small) magnitude.
    fn fold_shifted(&mut self, n: u64, sx: f64, sy: f64, sxx: f64, syy: f64, sxy: f64) {
        self.n += n;
        self.sum_x += sx;
        self.sum_y += sy;
        self.sum_xx += sxx;
        self.sum_yy += syy;
        self.sum_xy += sxy;
        let bn = n as f64;
        self.err_xx += f64::EPSILON * bn * sxx.abs();
        self.err_yy += f64::EPSILON * bn * syy.abs();
    }

    /// Folds pre-aggregated **raw** (unshifted) block moments into the
    /// state. Lets callers that score many units against one shared `y`
    /// column (the correlation measure) compute the `y` moments once per
    /// block. The raw sums are re-centered onto the accumulator's shift
    /// (adopted from the first block's means), and the cancellation cost
    /// of that re-centering — which scales with the *raw* magnitude, per
    /// block rather than per dataset — is added to the error bound so
    /// [`Self::correlation`] can tell surviving signal from noise.
    #[inline(always)]
    pub fn accumulate(
        &mut self,
        n: u64,
        sum_x: f64,
        sum_y: f64,
        sum_xx: f64,
        sum_yy: f64,
        sum_xy: f64,
    ) {
        if n == 0 {
            return;
        }
        let bn = n as f64;
        if self.n == 0 {
            self.kx = sum_x / bn;
            self.ky = sum_y / bn;
        }
        let (kx, ky) = (self.kx, self.ky);
        let sx = sum_x - bn * kx;
        let sy = sum_y - bn * ky;
        let sxx = sum_xx - 2.0 * kx * sum_x + bn * kx * kx;
        let syy = sum_yy - 2.0 * ky * sum_y + bn * ky * ky;
        let sxy = sum_xy - ky * sum_x - kx * sum_y + bn * kx * ky;
        self.n += n;
        self.sum_x += sx;
        self.sum_y += sy;
        self.sum_xx += sxx;
        self.sum_yy += syy;
        self.sum_xy += sxy;
        self.err_xx += f64::EPSILON * bn * sum_xx.abs();
        self.err_yy += f64::EPSILON * bn * sum_yy.abs();
    }

    /// Merges another accumulator into this one (used by the parallel
    /// device to combine per-thread partials). The other accumulator's
    /// moments are translated from its shift onto this one's.
    pub fn merge(&mut self, other: &StreamingPearson) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let on = other.n as f64;
        let dx = other.kx - self.kx;
        let dy = other.ky - self.ky;
        let sxx = other.sum_xx + 2.0 * dx * other.sum_x + on * dx * dx;
        let syy = other.sum_yy + 2.0 * dy * other.sum_y + on * dy * dy;
        let sxy = other.sum_xy + dy * other.sum_x + dx * other.sum_y + on * dx * dy;
        self.n += other.n;
        self.sum_x += other.sum_x + on * dx;
        self.sum_y += other.sum_y + on * dy;
        self.sum_xx += sxx;
        self.sum_yy += syy;
        self.sum_xy += sxy;
        // The translation above can cancel (e.g. when a partial's shift is
        // a far outlier from its data), so the error budget must be
        // charged at the magnitude of the *terms*, not of the possibly
        // tiny result.
        let mag_xx = other.sum_xx.abs() + 2.0 * (dx * other.sum_x).abs() + on * dx * dx;
        let mag_yy = other.sum_yy.abs() + 2.0 * (dy * other.sum_y).abs() + on * dy * dy;
        self.err_xx += other.err_xx + f64::EPSILON * on * mag_xx;
        self.err_yy += other.err_yy + f64::EPSILON * on * mag_yy;
    }

    /// Current correlation estimate.
    ///
    /// Returns 0 when either variable is (numerically) constant — the
    /// convention the DeepBase engine relies on for padding symbols and
    /// dead units, where "no signal" must not poison score tables with
    /// NaN or clamped cancellation noise. "Numerically constant" means
    /// the variance sits inside the accumulator's tracked rounding-error
    /// bound, so a genuinely varying column survives even at a large mean
    /// while a constant column of any magnitude scores 0. Non-finite
    /// observations (saturated or diverged units yield `inf`/NaN sums,
    /// and `inf − inf` variances are NaN that passes any `<=` guard)
    /// also score 0 rather than NaN.
    pub fn correlation(&self) -> f32 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let cov = self.sum_xy - self.sum_x * self.sum_y / n;
        let var_x = self.sum_xx - self.sum_x * self.sum_x / n;
        let var_y = self.sum_yy - self.sum_y * self.sum_y / n;
        // Non-finite sums (saturated units) make the variances NaN or
        // infinite; catch them before the threshold comparisons, which
        // NaN would silently pass.
        if !var_x.is_finite() || !var_y.is_finite() {
            return 0.0;
        }
        // Noise floor: the tracked per-operation error bound (with a 4x
        // safety factor), plus the final `sxx − sx²/n` subtraction's own
        // rounding at the shifted (small) magnitude, plus an absolute
        // epsilon for exactly-zero variances.
        let noise_floor = |err: f64, sum_sq: f64| {
            1e-12_f64
                .max(4.0 * err)
                .max(n * f64::EPSILON * sum_sq.abs())
        };
        if var_x <= noise_floor(self.err_xx, self.sum_xx)
            || var_y <= noise_floor(self.err_yy, self.sum_yy)
        {
            return 0.0;
        }
        let r = cov / (var_x * var_y).sqrt();
        if !r.is_finite() {
            return 0.0;
        }
        r.clamp(-1.0, 1.0) as f32
    }

    /// Half-width of the Fisher-transform confidence interval around the
    /// current estimate, for the given `z` critical value (1.96 ≈ 95%).
    ///
    /// The paper's early-stopping criterion compares this against the user
    /// threshold ε: the transform `z = atanh(r)` is approximately normal
    /// with standard error `1/sqrt(n - 3)`, and the half-width is mapped
    /// back through `tanh`.
    pub fn fisher_half_width(&self, z_crit: f64) -> f32 {
        if self.n < 4 {
            return f32::INFINITY;
        }
        let r = self.correlation() as f64;
        // Guard atanh at the boundary.
        let r = r.clamp(-0.999_999, 0.999_999);
        let fisher_z = r.atanh();
        let se = 1.0 / ((self.n as f64) - 3.0).sqrt();
        let lo = (fisher_z - z_crit * se).tanh();
        let hi = (fisher_z + z_crit * se).tanh();
        (((hi - lo) / 2.0) as f32).abs()
    }

    /// The accumulator's complete internal state as raw bits: the
    /// observation count followed by the nine `f64` fields in declaration
    /// order. [`StreamingPearson::from_state_bits`] reconstructs an
    /// accumulator that is bit-identical in every future operation —
    /// the serialization contract behind durable materialized views,
    /// where a stored state must merge exactly like the live one it
    /// snapshots.
    pub fn state_bits(&self) -> [u64; 10] {
        [
            self.n,
            self.kx.to_bits(),
            self.ky.to_bits(),
            self.sum_x.to_bits(),
            self.sum_y.to_bits(),
            self.sum_xx.to_bits(),
            self.sum_yy.to_bits(),
            self.sum_xy.to_bits(),
            self.err_xx.to_bits(),
            self.err_yy.to_bits(),
        ]
    }

    /// Rebuilds an accumulator from [`StreamingPearson::state_bits`]
    /// output, bit-exactly.
    pub fn from_state_bits(bits: [u64; 10]) -> StreamingPearson {
        StreamingPearson {
            n: bits[0],
            kx: f64::from_bits(bits[1]),
            ky: f64::from_bits(bits[2]),
            sum_x: f64::from_bits(bits[3]),
            sum_y: f64::from_bits(bits[4]),
            sum_xx: f64::from_bits(bits[5]),
            sum_yy: f64::from_bits(bits[6]),
            sum_xy: f64::from_bits(bits[7]),
            err_xx: f64::from_bits(bits[8]),
            err_yy: f64::from_bits(bits[9]),
        }
    }
}

/// Unit columns [`accumulate_list`] advances per row sweep.
const TILE: usize = 8;

/// Hypothesis columns [`accumulate_list`] advances per row sweep.
const HYPS: usize = 4;

/// Rows of the stack tile [`accumulate_list`] loads a band of unit columns
/// into, at most: 8 KiB of unit values.
const BAND_ROWS: usize = 256;

/// Bytes of one band's tile and live hypothesis values together, at most:
/// half an L1 data cache, so every sweep of a band reads them from L1.
const BAND_BYTES: usize = 16 * 1024;

deepbase_tensor::simd_kernel! {
    /// Folds one unit block — `width` unit columns of `rows` values each,
    /// one contiguous run per unit ([`Columns`]) — into the accumulators
    /// of a hypothesis list: the block kernel of the correlation measure.
    ///
    /// `accs` holds one row per hypothesis, each of `width` accumulators
    /// (row `h`, entry `u` is the accumulator of unit `u` and hypothesis
    /// `h`); `ys[h]` is hypothesis `h`'s column of `rows` values, or `None`
    /// for a member that is not fed this block, whose row is left
    /// untouched.
    ///
    /// Each live hypothesis's column is widened to f64 and its `y` moments
    /// summed once. The units advance `TILE` (8) abreast and the live
    /// hypotheses `HYPS` (4) at a time, over bands of rows whose tile and
    /// `y` values fit `BAND_BYTES` (at most `BAND_ROWS` rows):
    /// a band of a tile's eight unit columns is copied into a row-major
    /// stack tile (`deepbase_tensor::transpose_columns_into`: an 8 × 8
    /// transpose in registers when the CPU has AVX2), and one sweep over
    /// its rows loads `TILE` adjacent
    /// values per row and feeds `TILE` independent `Σxy` chains per
    /// hypothesis; a tile's first sweep also accumulates its `Σx` and
    /// `Σx²` — once for the whole list. Every sweep of the band reads the
    /// tile from L1. The sweep runs at load/multiply throughput instead of
    /// one dependent f64 add per element: two f64 lanes per register at
    /// the default x86-64 target, four in the AVX2 copy the dispatcher
    /// picks at run time (`deepbase_tensor::simd`).
    /// Every chain still adds the block's rows in row order, carried from
    /// band to band, and every `(unit, hypothesis)` accumulator receives
    /// the same five sums through [`StreamingPearson::accumulate`], so the
    /// result is bit-identical to walking each pair on its own, on either
    /// copy, whatever the list's length; the `width % TILE` trailing units
    /// are swept one at a time, straight from their columns.
    pub fn accumulate_list(
        accs: &mut [Vec<StreamingPearson>], xs: Columns<'_>, ys: &[Option<&[f32]>]
    ) = accumulate_list_body;
}

/// Body of [`accumulate_list`].
#[inline(always)]
fn accumulate_list_body(
    accs: &mut [Vec<StreamingPearson>],
    xs: Columns<'_>,
    ys: &[Option<&[f32]>],
) {
    let shape = "pearson block shape mismatch";
    assert_eq!(accs.len(), ys.len(), "{shape}");
    let Some(width) = accs.first().map(Vec::len) else {
        return;
    };
    assert!(accs.iter().all(|row| row.len() == width), "{shape}");
    assert_eq!(xs.width(), width, "{shape}");
    let rows = xs.rows();
    // The live members in list order, each with its `y` moments.
    let live: Vec<Live> = (ys.iter().enumerate())
        .filter_map(|(h, y)| y.map(|y| (h, y)))
        .map(|(h, y)| {
            assert_eq!(y.len(), rows, "{shape}");
            let y: Vec<f64> = y.iter().map(|&y| y as f64).collect();
            let (mut sy, mut syy) = (0.0f64, 0.0);
            for &y in &y {
                sy += y;
                syy += y * y;
            }
            Live { h, y, sy, syy }
        })
        .collect();
    if width == 0 || live.is_empty() {
        return;
    }
    // Each chain's running sum is carried from band to band.
    let mut sums = Sums {
        x: vec![0.0; width],
        xx: vec![0.0; width],
        xy: vec![0.0; live.len() * width],
    };
    let tiled = width - width % TILE;
    let mut tile = [[0.0f32; TILE]; BAND_ROWS];
    let band_bytes_per_row = 4 * TILE + 8 * live.len();
    let band = (BAND_BYTES / band_bytes_per_row).clamp(TILE, BAND_ROWS) / TILE * TILE;
    for start in (0..rows).step_by(band) {
        let end = (start + band).min(rows);
        for u0 in (0..tiled).step_by(TILE) {
            let cols: [&[f32]; TILE] = std::array::from_fn(|j| &xs.column(u0 + j)[start..end]);
            let tile = &mut tile[..end - start];
            transpose_columns_into(&cols, tile.as_flattened_mut());
            let at = Band {
                xs: tile.as_flattened(),
                width,
                rows: start..end,
            };
            at.tile::<TILE>(u0, &live, &mut sums);
        }
        for u in tiled..width {
            let at = Band {
                xs: &xs.column(u)[start..end],
                width,
                rows: start..end,
            };
            at.tile::<1>(u, &live, &mut sums);
        }
    }
    for (l, hyp) in live.iter().enumerate() {
        let accs = &mut accs[hyp.h];
        let xy = &sums.xy[l * width..][..width];
        for (u, acc) in accs.iter_mut().enumerate() {
            acc.accumulate(rows as u64, sums.x[u], hyp.sy, sums.xx[u], hyp.syy, xy[u]);
        }
    }
}

/// A live hypothesis of [`accumulate_list`]: its list position, its
/// column widened once to f64 (every sweep then broadcasts it straight
/// from memory) and the column's `Σy`, `Σy²`.
struct Live {
    h: usize,
    y: Vec<f64>,
    sy: f64,
    syy: f64,
}

/// The running sums of [`accumulate_list`]: `Σx` and `Σx²` per unit, and
/// `Σxy` per live hypothesis and unit, live-major.
struct Sums {
    x: Vec<f64>,
    xx: Vec<f64>,
    xy: Vec<f64>,
}

/// One band of a block: rows `rows` of `W` adjacent units, row-major (`W`
/// values per row) in `xs`, of a block `width` units wide.
struct Band<'a> {
    xs: &'a [f32],
    width: usize,
    rows: std::ops::Range<usize>,
}

impl Band<'_> {
    /// Units `u0..u0 + W` against every live hypothesis: one sweep per
    /// `HYPS` of them, the first also summing the units' `x` moments.
    #[inline(always)]
    fn tile<const W: usize>(&self, u0: usize, live: &[Live], sums: &mut Sums) {
        for (g, group) in live.chunks(HYPS).enumerate() {
            let first = g * HYPS;
            match (g == 0, group.len()) {
                (true, 1) => self.sweep::<W, 1, true>(u0, group, first, sums),
                (true, 2) => self.sweep::<W, 2, true>(u0, group, first, sums),
                (true, 3) => self.sweep::<W, 3, true>(u0, group, first, sums),
                (true, _) => self.sweep::<W, HYPS, true>(u0, group, first, sums),
                (false, 1) => self.sweep::<W, 1, false>(u0, group, first, sums),
                (false, 2) => self.sweep::<W, 2, false>(u0, group, first, sums),
                (false, 3) => self.sweep::<W, 3, false>(u0, group, first, sums),
                (false, _) => self.sweep::<W, HYPS, false>(u0, group, first, sums),
            }
        }
    }

    /// One pass over the band's rows: `Σxy` of units `u0..u0 + W` against
    /// the first `K` hypotheses of `group` (live positions `first..`) and,
    /// on the `FIRST` sweep, the units' `Σx` and `Σx²` — each chain picking
    /// up where the previous band left it, in row order.
    #[inline(always)]
    fn sweep<const W: usize, const K: usize, const FIRST: bool>(
        &self,
        u0: usize,
        group: &[Live],
        first: usize,
        sums: &mut Sums,
    ) {
        let n = self.rows.len();
        let ys: [&[f64]; K] = std::array::from_fn(|k| &group[k].y[self.rows.clone()]);
        let tile = |v: &[f64], at: usize| -> [f64; W] {
            v[at..at + W].try_into().expect("tile is W wide")
        };
        let (mut sx, mut sxx) = (tile(&sums.x, u0), tile(&sums.xx, u0));
        let mut sxy: [[f64; W]; K] =
            std::array::from_fn(|k| tile(&sums.xy, (first + k) * self.width + u0));
        for (r, row) in self.xs.chunks_exact(W).take(n).enumerate() {
            let row: &[f32; W] = row.try_into().expect("tile is W wide");
            for j in 0..W {
                let x = row[j] as f64;
                if FIRST {
                    sx[j] += x;
                    sxx[j] += x * x;
                }
            }
            for k in 0..K {
                let y = ys[k][r];
                for j in 0..W {
                    sxy[k][j] += row[j] as f64 * y;
                }
            }
        }
        if FIRST {
            sums.x[u0..u0 + W].copy_from_slice(&sx);
            sums.xx[u0..u0 + W].copy_from_slice(&sxx);
        }
        for (k, sxy) in sxy.iter().enumerate() {
            sums.xy[(first + k) * self.width + u0..][..W].copy_from_slice(sxy);
        }
    }
}

/// Critical value for a 95% two-sided normal interval.
pub const Z_95: f64 = 1.959_963_985;

/// One-shot Pearson correlation over two slices.
pub fn pearson(xs: &[f32], ys: &[f32]) -> f32 {
    let mut acc = StreamingPearson::new();
    acc.push_block(xs, ys);
    acc.correlation()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let ys: Vec<f32> = xs.iter().map(|x| -0.5 * x).collect();
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn constant_input_yields_zero() {
        let xs = vec![3.0f32; 10];
        let ys: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(pearson(&xs, &ys), 0.0);
        assert_eq!(pearson(&ys, &xs), 0.0);
    }

    #[test]
    fn large_magnitude_constant_column_scores_zero() {
        // A constant column whose magnitude is large enough that the
        // f64 sum formulation leaves O(1..1e4) of cancellation noise in
        // the variance. An absolute zero-variance guard misses it and the
        // score becomes noise/noise garbage (historically clamped to ±1,
        // or NaN once the HAVING comparison divides by it); the defined
        // result for a constant column is 0.
        for c in [1.6e7f32, 5.5e8, 2.7e9, 1e10] {
            let mut x_const = StreamingPearson::new();
            let mut y_const = StreamingPearson::new();
            for i in 0..1000 {
                x_const.push(c, (i as f32) * 0.37 + 0.11);
                y_const.push((i as f32) * 0.37 + 0.11, c);
            }
            assert_eq!(x_const.correlation(), 0.0, "constant x={c} must score 0");
            assert_eq!(y_const.correlation(), 0.0, "constant y={c} must score 0");
            assert!(x_const.fisher_half_width(Z_95).is_finite());
        }
    }

    #[test]
    fn large_mean_small_variance_signal_survives() {
        // A genuinely correlated column riding on a huge mean (~1e6 with
        // unit-scale variance): raw-sum accumulation cancels the variance
        // into noise and a magnitude-relative threshold would zero the
        // real signal. The shifted accumulation must recover r ≈ 1 on the
        // element-wise path, and the raw-moment `accumulate` path (the
        // engine's columnar fast path) must stay close because its
        // re-centering error is per block, not per dataset.
        let n = 4608;
        let xs: Vec<f32> = (0..n).map(|i| 1.0e6 + (i % 17) as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| (i % 17) as f32).collect();

        let mut pushed = StreamingPearson::new();
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            pushed.push(x, y);
        }
        let r = pushed.correlation();
        assert!(r > 0.999, "push path must recover the signal, got {r}");

        let mut folded = StreamingPearson::new();
        for (xb, yb) in xs.chunks(512).zip(ys.chunks(512)) {
            let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for (&x, &y) in xb.iter().zip(yb.iter()) {
                let (x, y) = (x as f64, y as f64);
                sx += x;
                sy += y;
                sxx += x * x;
                syy += y * y;
                sxy += x * y;
            }
            folded.accumulate(xb.len() as u64, sx, sy, sxx, syy, sxy);
        }
        let r = folded.correlation();
        assert!(r > 0.9, "raw accumulate path must keep the signal, got {r}");
    }

    #[test]
    fn non_finite_observations_never_emit_nan() {
        // A saturated unit (inf activation) or a NaN from a diverged model
        // turns the co-moment sums non-finite; `inf - inf` style variance
        // is NaN, which sails through `<=` comparisons. The score must
        // still come back 0, never NaN, so HAVING filters and top-k sorts
        // stay well-defined.
        let mut sat = StreamingPearson::new();
        let mut nan = StreamingPearson::new();
        for i in 0..32 {
            sat.push(if i == 7 { f32::INFINITY } else { 1.0 }, i as f32);
            nan.push(if i == 7 { f32::NAN } else { i as f32 }, i as f32);
        }
        assert_eq!(sat.correlation(), 0.0);
        assert_eq!(nan.correlation(), 0.0);
        assert!(!sat.fisher_half_width(Z_95).is_nan());
        assert!(!nan.fisher_half_width(Z_95).is_nan());
    }

    #[test]
    fn symmetric_in_arguments() {
        let xs = [1.0f32, 4.0, 2.0, 8.0, 5.0];
        let ys = [2.0f32, 1.0, 7.0, 3.0, 9.0];
        assert!((pearson(&xs, &ys) - pearson(&ys, &xs)).abs() < 1e-6);
    }

    #[test]
    fn streaming_matches_batch_under_blocking() {
        let xs: Vec<f32> = (0..100).map(|i| ((i * 37) % 19) as f32).collect();
        let ys: Vec<f32> = (0..100).map(|i| ((i * 11) % 23) as f32 - 5.0).collect();
        let batch = pearson(&xs, &ys);
        let mut acc = StreamingPearson::new();
        for chunk in 0..10 {
            acc.push_block(
                &xs[chunk * 10..(chunk + 1) * 10],
                &ys[chunk * 10..(chunk + 1) * 10],
            );
        }
        assert!((acc.correlation() - batch).abs() < 1e-6);
    }

    #[test]
    fn strided_push_matches_dense_push() {
        // 3 interleaved columns; correlate column 1 against ys.
        let stride = 3;
        let rows = 40;
        let xs: Vec<f32> = (0..rows * stride)
            .map(|i| ((i * 29) % 31) as f32 - 15.0)
            .collect();
        let ys: Vec<f32> = (0..rows).map(|i| ((i * 13) % 17) as f32).collect();
        let col1: Vec<f32> = (0..rows).map(|r| xs[1 + r * stride]).collect();

        let mut dense = StreamingPearson::new();
        for (&x, &y) in col1.iter().zip(ys.iter()) {
            dense.push(x, y);
        }
        let mut strided = StreamingPearson::new();
        strided.push_block_strided(&xs, 1, stride, &ys);
        assert_eq!(strided.count(), dense.count());
        assert!((strided.correlation() - dense.correlation()).abs() < 1e-6);
        assert!((strided.fisher_half_width(Z_95) - dense.fisher_half_width(Z_95)).abs() < 1e-6);
    }

    /// What [`accumulate_list`] computes, walked one `(unit, hypothesis)`
    /// pair at a time: one pass over the unit's column per pair, one
    /// dependent sum chain per moment.
    fn accumulate_pair_by_pair(
        accs: &mut [Vec<StreamingPearson>],
        xs: Columns<'_>,
        ys: &[Option<&[f32]>],
    ) {
        for (row, y) in accs.iter_mut().zip(ys) {
            let Some(y) = y else { continue };
            let (mut sy, mut syy) = (0.0f64, 0.0);
            for &v in *y {
                sy += v as f64;
                syy += v as f64 * v as f64;
            }
            for (acc, column) in row.iter_mut().zip(xs.iter()) {
                let (mut sx, mut sxx, mut sxy) = (0.0f64, 0.0, 0.0);
                for (&x, &v) in column.iter().zip(*y) {
                    let x = x as f64;
                    sx += x;
                    sxx += x * x;
                    sxy += x * v as f64;
                }
                acc.accumulate(y.len() as u64, sx, sy, sxx, syy, sxy);
            }
        }
    }

    /// State bits with every NaN as one class: Rust leaves a NaN's sign and
    /// payload unspecified, and the two compiled copies may differ there.
    fn state(accs: &[Vec<StreamingPearson>]) -> Vec<[u64; 10]> {
        let class = |b: u64| {
            if f64::from_bits(b).is_nan() {
                u64::MAX
            } else {
                b
            }
        };
        accs.iter()
            .flatten()
            .map(|a| a.state_bits().map(class))
            .collect()
    }

    #[test]
    fn list_kernel_on_columns_is_bit_identical_to_the_pair_by_pair_walk() {
        // Unit kinds cycle raw / constant / ±1 / raw-with-NaN-and-±Inf, so
        // every tile (and the scalar tail) holds each of them.
        let value = |r: usize, c: usize| -> f32 {
            let raw = (((r * 31 + c * 17) % 97) as f32 / 97.0 - 0.4) * (1.0 + c as f32);
            match c % 4 {
                1 => 0.75 + c as f32,
                2 => [-1.0, 1.0, 1.0][(r + c) % 3],
                3 if r % 29 == 7 => f32::NAN,
                3 if r % 31 == 11 => f32::INFINITY,
                3 if r % 37 == 5 => f32::NEG_INFINITY,
                _ => raw,
            }
        };
        // Hypothesis columns: small integers, one constant, one with a NaN.
        let hyp = |r: usize, h: usize| -> f32 {
            match h % 5 {
                3 => 1.0,
                4 if r == 77 => f32::NAN,
                _ => ((r * (13 + 2 * h)) % 7) as f32 - 2.0,
            }
        };
        // The 300-row block spans two bands of rows.
        let rows = 450;
        let blocks = [1usize, 0, 64, 3, 300, 50, 32];
        let path = deepbase_tensor::simd::path();
        // Every `width % TILE` tail from 1 to 19 units, and wide blocks.
        let widths = (1usize..=19).chain([96, 100, 300]);
        for width in widths {
            // Unit-major: unit `c`'s rows are one run of the buffer, and
            // each block is a row range of every run.
            let xs: Vec<f32> = (0..width * rows)
                .map(|i| value(i % rows, i / rows))
                .collect();
            let block = |range: std::ops::Range<usize>| -> Vec<&[f32]> {
                let run = |c: usize| &xs[c * rows + range.start..c * rows + range.end];
                (0..width).map(run).collect()
            };
            // Every band of `HYPS` live members from one to nine, and more.
            for n_hyps in (1usize..=9).chain([16]) {
                let cols: Vec<Vec<f32>> = (0..n_hyps)
                    .map(|h| (0..rows).map(|r| hyp(r, h)).collect())
                    .collect();
                // Without a frozen member, and with member `n_hyps / 2`
                // frozen from the fourth block (the one of 3 rows) on.
                for frozen in [None, Some(n_hyps / 2)] {
                    let what = format!("width {width} hyps {n_hyps} frozen {frozen:?}");
                    let fresh = || vec![vec![StreamingPearson::new(); width]; n_hyps];
                    let (mut tiled, mut body, mut walked) = (fresh(), fresh(), fresh());
                    let mut start = 0;
                    for (b, len) in blocks.into_iter().enumerate() {
                        let units = block(start..start + len);
                        let x = Columns::new(&units, len);
                        let ys: Vec<Option<&[f32]>> = (cols.iter().enumerate())
                            .map(|(h, c)| {
                                let live = frozen != Some(h) || b < 3;
                                live.then(|| &c[start..start + len])
                            })
                            .collect();
                        accumulate_list(&mut tiled, x, &ys);
                        accumulate_list_body(&mut body, x, &ys);
                        accumulate_pair_by_pair(&mut walked, x, &ys);
                        start += len;
                    }
                    assert_eq!(start, rows);
                    assert_eq!(state(&tiled), state(&body), "{what}, {path} path");
                    assert_eq!(state(&tiled), state(&walked), "{what}");
                    if let Some(h) = frozen {
                        // The frozen member holds the first three blocks' rows.
                        let counts = tiled[h].iter().map(|a| a.count());
                        assert!(counts.into_iter().all(|n| n == 65), "{what}");
                    }
                    // ...and after folding a second segment's states in.
                    let (mut tiled_b, mut walked_b) = (fresh(), fresh());
                    let ys: Vec<Option<&[f32]>> = cols.iter().map(|c| Some(&c[..40])).collect();
                    let units = block(0..40);
                    accumulate_list(&mut tiled_b, Columns::new(&units, 40), &ys);
                    accumulate_pair_by_pair(&mut walked_b, Columns::new(&units, 40), &ys);
                    for (a, b) in tiled.iter_mut().flatten().zip(tiled_b.iter().flatten()) {
                        a.merge(b);
                    }
                    for (a, b) in walked.iter_mut().flatten().zip(walked_b.iter().flatten()) {
                        a.merge(b);
                    }
                    assert_eq!(state(&tiled), state(&walked), "{what} merged");
                    for (a, b) in tiled.iter().flatten().zip(walked.iter().flatten()) {
                        assert_eq!(a.correlation().to_bits(), b.correlation().to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pearson block shape mismatch")]
    fn block_kernel_rejects_a_unit_block_of_the_wrong_width() {
        let mut accs = vec![vec![StreamingPearson::new(); 3]];
        let xs = Columns::new(&[&[0.0; 2], &[0.0; 2]], 2);
        accumulate_list(&mut accs, xs, &[Some(&[0.0, 1.0])]);
    }

    #[test]
    #[should_panic(expected = "pearson block shape mismatch")]
    fn block_kernel_rejects_a_live_column_of_the_wrong_length() {
        let mut accs = vec![vec![StreamingPearson::new(); 3]; 2];
        let ys: [Option<&[f32]>; 2] = [None, Some(&[0.0, 1.0, 2.0])];
        accumulate_list(&mut accs, Columns::new(&[&[0.0f32; 2][..]; 3], 2), &ys);
    }

    #[test]
    #[should_panic(expected = "pearson block shape mismatch")]
    fn block_kernel_rejects_rows_of_unequal_width() {
        let mut accs = vec![
            vec![StreamingPearson::new(); 3],
            vec![StreamingPearson::new(); 2],
        ];
        let ys: [Option<&[f32]>; 2] = [Some(&[0.0, 1.0]), Some(&[1.0, 0.0])];
        accumulate_list(&mut accs, Columns::new(&[&[0.0f32; 2][..]; 3], 2), &ys);
    }

    #[test]
    fn block_kernel_leaves_a_frozen_member_untouched_whatever_its_column() {
        let mut accs = vec![vec![StreamingPearson::new(); 3]; 2];
        let ys: [Option<&[f32]>; 2] = [Some(&[0.0, 1.0]), None];
        let xs = Columns::new(&[&[1.0, 5.0], &[2.0, 4.0], &[3.0, 9.0]], 2);
        accumulate_list(&mut accs, xs, &ys);
        assert!(accs[0].iter().all(|a| a.count() == 2));
        assert!(accs[1].iter().all(|a| a.count() == 0));
    }

    #[test]
    fn accumulate_equals_pushes() {
        let xs = [1.0f32, -2.0, 3.5, 0.25];
        let ys = [2.0f32, 0.5, -1.0, 4.0];
        let mut pushed = StreamingPearson::new();
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            pushed.push(x, y);
        }
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let (x, y) = (x as f64, y as f64);
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let mut folded = StreamingPearson::new();
        folded.accumulate(4, sx, sy, sxx, syy, sxy);
        assert!((folded.correlation() - pushed.correlation()).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "strided block out of range")]
    fn strided_push_rejects_short_buffer() {
        let mut acc = StreamingPearson::new();
        acc.push_block_strided(&[1.0, 2.0, 3.0], 1, 2, &[0.0, 1.0]);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f32> = (0..60).map(|i| (i as f32).sin()).collect();
        let ys: Vec<f32> = (0..60).map(|i| (i as f32 * 0.5).cos()).collect();
        let mut whole = StreamingPearson::new();
        whole.push_block(&xs, &ys);
        let mut a = StreamingPearson::new();
        let mut b = StreamingPearson::new();
        a.push_block(&xs[..30], &ys[..30]);
        b.push_block(&xs[30..], &ys[30..]);
        a.merge(&b);
        assert!((a.correlation() - whole.correlation()).abs() < 1e-6);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_outlier_shift_stays_sane() {
        // Partial A's shift (its first element) is a far outlier from the
        // rest of the column, so translating the other partial onto it
        // cancels ~1e16-scale terms. The merged estimate must either
        // match the single-pass estimate or detect its own noise and
        // report 0 — never clamped cancellation garbage.
        let xs: Vec<f32> = std::iter::once(0.0f32)
            .chain(std::iter::repeat_n(1.0e8, 499))
            .collect();
        let ys: Vec<f32> = (0..500).map(|i| (i % 7) as f32).collect();
        let mut whole = StreamingPearson::new();
        whole.push_block(&xs, &ys);
        let mut a = StreamingPearson::new();
        let mut b = StreamingPearson::new();
        a.push_block(&xs[..250], &ys[..250]);
        b.push_block(&xs[250..], &ys[250..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        let (ra, rw) = (a.correlation(), whole.correlation());
        assert!(ra.is_finite() && (-1.0..=1.0).contains(&ra));
        assert!(
            (ra - rw).abs() < 0.05 || ra == 0.0,
            "merged {ra} vs single-pass {rw}"
        );
    }

    #[test]
    fn fisher_half_width_shrinks_with_n() {
        let mut acc = StreamingPearson::new();
        let mut widths = Vec::new();
        for i in 0..4000u32 {
            let x = (i % 17) as f32;
            let y = x * 0.7 + ((i * 7) % 13) as f32;
            acc.push(x, y);
            if i % 500 == 499 {
                widths.push(acc.fisher_half_width(Z_95));
            }
        }
        for pair in widths.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-6,
                "widths must be non-increasing: {widths:?}"
            );
        }
    }

    #[test]
    fn convergence_flag_flips() {
        let mut acc = StreamingPearson::new();
        assert!(acc.fisher_half_width(Z_95) > 0.05);
        for i in 0..5000u32 {
            let x = (i % 29) as f32;
            acc.push(x, 0.9 * x + ((i * 3) % 7) as f32);
        }
        assert!(acc.fisher_half_width(Z_95) <= 0.05);
    }

    #[test]
    fn state_bits_round_trip_is_bit_exact() {
        let mut acc = StreamingPearson::new();
        for i in 0..257u32 {
            acc.push(((i * 37) % 19) as f32 - 3.5, ((i * 11) % 23) as f32);
        }
        let back = StreamingPearson::from_state_bits(acc.state_bits());
        assert_eq!(back.state_bits(), acc.state_bits());
        // Future operations agree bit for bit: merge the same partial
        // into both and compare the resulting states exactly.
        let mut tail = StreamingPearson::new();
        tail.push_block(&[1.0, 2.0, 5.0], &[0.5, -1.0, 2.0]);
        let mut a = acc.clone();
        let mut b = back;
        a.merge(&tail);
        b.merge(&tail);
        assert_eq!(a.state_bits(), b.state_bits());
        assert_eq!(
            a.correlation().to_bits(),
            b.correlation().to_bits(),
            "restored accumulator must score bit-identically"
        );
    }

    #[test]
    fn correlation_clamped_to_unit_interval() {
        let xs: Vec<f32> = (0..5).map(|i| i as f32 * 1e6).collect();
        let ys = xs.clone();
        let r = pearson(&xs, &ys);
        assert!((-1.0..=1.0).contains(&r));
    }
}

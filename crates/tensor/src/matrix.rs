//! Dense row-major `f32` matrix.
//!
//! This is the numeric substrate the rest of the reproduction is built on.
//! It deliberately covers only what the DeepBase pipeline needs — dense 2-D
//! arrays, a fast blocked mat-mul (plus transposed variants used by
//! back-propagation), elementwise kernels and reductions — rather than being
//! a general tensor library.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error type for shape-related failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub msg: String,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix of `f32` values.
///
/// Row-major layout means element `(r, c)` lives at `data[r * cols + c]`,
/// which makes per-row slices (`row`) free and keeps mat-mul inner loops
/// sequential in memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                msg: format!("data length {} != {}x{}", data.len(), rows, cols),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor. Panics when out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix containing rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Vertically stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError {
                msg: format!("vstack cols {} != {}", self.cols, other.cols),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Horizontally stacks `self` to the left of `other` (row counts must match).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.rows != other.rows {
            return Err(ShapeError {
                msg: format!("hstack rows {} != {}", self.rows, other.rows),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two equally-shaped matrices.
    pub fn zip_map(
        &self,
        other: &Matrix,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError {
                msg: format!("zip_map {:?} vs {:?}", self.shape(), other.shape()),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise addition. Panics on shape mismatch (used on hot paths
    /// where shapes are statically known).
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
        out
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place scaling.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `row_vec` (length == cols) to every row; used for bias terms.
    pub fn add_row_broadcast(&mut self, row_vec: &[f32]) {
        assert_eq!(row_vec.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(row_vec.iter()) {
                *a += b;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.rows_iter() {
            for (s, v) in sums.iter_mut().zip(row.iter()) {
                *s += v;
            }
        }
        sums
    }

    /// Index of the maximum element of each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when all corresponding elements differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Matrix product `self * other`, via the blocked kernel.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// Matrix product written into an existing, correctly-shaped output
    /// (allocation-free hot path for training loops).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul_into inner dims");
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape"
        );
        kernels::matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Reference `i-k-j` scalar product, retained for parity tests and as
    /// the benchmark baseline the blocked kernel is measured against.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_naive inner dims");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul outer dims {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        kernels::t_matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `self^T * other` into an existing `cols x other.cols` output.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul_into outer dims");
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "t_matmul_into output shape"
        );
        kernels::t_matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// `self * other^T` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t inner dims {}x{} * {}x{}^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        kernels::matmul_t_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }

    /// `self * other^T` into an existing `rows x other.rows` output.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t_into inner dims");
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_t_into output shape"
        );
        kernels::matmul_t_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
    }
}

/// Cache-blocked, register-tiled mat-mul kernels.
///
/// All three product shapes (`A*B`, `Aᵀ*B`, `A*Bᵀ`) share the same design:
///
/// * the shared dimension is processed in panels of [`KC`] so the active
///   right-hand rows stay in cache across output rows;
/// * the left operand's panel is **packed** into a contiguous stack buffer
///   (two rows at a time), so the micro-kernel reads one linear stream;
/// * the micro-kernel updates two output rows with four shared-dimension
///   steps per pass — a branch-free `2x4` register tile whose inner loop
///   is a pure mul-add stream the compiler vectorises across output
///   columns;
/// * there is deliberately no per-element `a == 0.0` skip: the old
///   branch made sparse-ish inputs fast but cost a branch per element on
///   the dense inputs that dominate (activations, weights, gradients).
///
/// Each kernel is one `#[inline(always)]` `_body` compiled twice by
/// [`simd_kernel!`](crate::simd_kernel): for the build's target (4-lane
/// SSE2 at the default x86-64) and for 8-lane AVX2, picked at run time.
/// Vectorisation runs only across independent output columns, so both
/// copies give the same bits.
mod kernels {
    /// Shared-dimension panel width (f32s): 4 rows of 256 floats = 4 KiB
    /// per right-hand panel stripe, comfortably inside L1 alongside the
    /// packed left panel.
    const KC: usize = 256;

    crate::simd_kernel! {
        /// `out = lhs(m x k) * rhs(k x n)`, overwriting `out`.
        pub(crate) fn matmul_into(
            lhs: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]
        ) = matmul_into_body;

        /// `out = lhs(m x k)^T * rhs(m x n)`, overwriting `out` (`k x n`).
        pub(crate) fn t_matmul_into(
            lhs: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]
        ) = t_matmul_into_body;

        /// `out = lhs(m x k) * rhs(n x k)^T`, overwriting `out` (`m x n`).
        pub(crate) fn matmul_t_into(
            lhs: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]
        ) = matmul_t_into_body;
    }

    /// Body of [`matmul_into`].
    #[inline(always)]
    pub(super) fn matmul_into_body(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(lhs.len(), m * k);
        debug_assert_eq!(rhs.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        out.fill(0.0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let mut apack = [0.0f32; 2 * KC];
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            let rhs_panel = &rhs[kb * n..(kb + kc) * n];
            let mut i = 0;
            while i + 1 < m {
                apack[..kc].copy_from_slice(&lhs[i * k + kb..i * k + kb + kc]);
                apack[KC..KC + kc].copy_from_slice(&lhs[(i + 1) * k + kb..(i + 1) * k + kb + kc]);
                let (head, tail) = out.split_at_mut((i + 1) * n);
                let out0 = &mut head[i * n..];
                let out1 = &mut tail[..n];
                accumulate_two_rows(&apack, kc, rhs_panel, n, out0, out1);
                i += 2;
            }
            if i < m {
                apack[..kc].copy_from_slice(&lhs[i * k + kb..i * k + kb + kc]);
                accumulate_one_row(&apack[..kc], rhs_panel, n, &mut out[i * n..(i + 1) * n]);
            }
            kb += kc;
        }
    }

    /// Body of [`t_matmul_into`]: the panel structure of [`matmul_into`]
    /// with the roles swapped. The shared dimension is `m` (rows of both
    /// inputs), and the packed "left" panel holds a *column pair* of `lhs`
    /// gathered across the row panel.
    #[inline(always)]
    pub(super) fn t_matmul_into_body(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(lhs.len(), m * k);
        debug_assert_eq!(rhs.len(), m * n);
        debug_assert_eq!(out.len(), k * n);
        out.fill(0.0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let mut apack = [0.0f32; 2 * KC];
        let mut rb = 0;
        while rb < m {
            let rc = KC.min(m - rb);
            let rhs_panel = &rhs[rb * n..(rb + rc) * n];
            let mut c = 0;
            while c + 1 < k {
                for (p, r) in (rb..rb + rc).enumerate() {
                    apack[p] = lhs[r * k + c];
                    apack[KC + p] = lhs[r * k + c + 1];
                }
                let (head, tail) = out.split_at_mut((c + 1) * n);
                let out0 = &mut head[c * n..];
                let out1 = &mut tail[..n];
                accumulate_two_rows(&apack, rc, rhs_panel, n, out0, out1);
                c += 2;
            }
            if c < k {
                for (p, r) in (rb..rb + rc).enumerate() {
                    apack[p] = lhs[r * k + c];
                }
                accumulate_one_row(&apack[..rc], rhs_panel, n, &mut out[c * n..(c + 1) * n]);
            }
            rb += rc;
        }
    }

    /// Body of [`matmul_t_into`]. Both operands are traversed along
    /// contiguous rows; each output element is a dot product, summed from
    /// `+0.0` in `k` order. Four dots are computed per pass so the `lhs`
    /// row is loaded once per four `rhs` rows.
    #[inline(always)]
    pub(super) fn matmul_t_into_body(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(lhs.len(), m * k);
        debug_assert_eq!(rhs.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let a_row = &lhs[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 3 < n {
                let b0 = &rhs[j * k..(j + 1) * k];
                let b1 = &rhs[(j + 1) * k..(j + 2) * k];
                let b2 = &rhs[(j + 2) * k..(j + 3) * k];
                let b3 = &rhs[(j + 3) * k..(j + 4) * k];
                let (mut d0, mut d1, mut d2, mut d3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for ((((&a, &x0), &x1), &x2), &x3) in a_row.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                    d0 += a * x0;
                    d1 += a * x1;
                    d2 += a * x2;
                    d3 += a * x3;
                }
                out_row[j] = d0;
                out_row[j + 1] = d1;
                out_row[j + 2] = d2;
                out_row[j + 3] = d3;
                j += 4;
            }
            while j < n {
                let b_row = &rhs[j * k..(j + 1) * k];
                let mut d = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    d += a * b;
                }
                out_row[j] = d;
                j += 1;
            }
        }
    }

    /// `2x4` register tile: accumulates four shared-dimension steps into
    /// two output rows per pass. `a` packs the two left rows at offsets
    /// `0` and [`KC`]; `rhs_panel` holds `kc` contiguous right rows.
    #[inline(always)]
    fn accumulate_two_rows(
        a: &[f32; 2 * KC],
        kc: usize,
        rhs_panel: &[f32],
        n: usize,
        out0: &mut [f32],
        out1: &mut [f32],
    ) {
        let mut kk = 0;
        while kk + 3 < kc {
            let (a00, a01, a02, a03) = (a[kk], a[kk + 1], a[kk + 2], a[kk + 3]);
            let (a10, a11, a12, a13) = (a[KC + kk], a[KC + kk + 1], a[KC + kk + 2], a[KC + kk + 3]);
            let b0 = &rhs_panel[kk * n..(kk + 1) * n];
            let b1 = &rhs_panel[(kk + 1) * n..(kk + 2) * n];
            let b2 = &rhs_panel[(kk + 2) * n..(kk + 3) * n];
            let b3 = &rhs_panel[(kk + 3) * n..(kk + 4) * n];
            for (((((o0, o1), &x0), &x1), &x2), &x3) in out0
                .iter_mut()
                .zip(out1.iter_mut())
                .zip(b0)
                .zip(b1)
                .zip(b2)
                .zip(b3)
            {
                *o0 += a00 * x0 + a01 * x1 + a02 * x2 + a03 * x3;
                *o1 += a10 * x0 + a11 * x1 + a12 * x2 + a13 * x3;
            }
            kk += 4;
        }
        while kk < kc {
            let (a0, a1) = (a[kk], a[KC + kk]);
            let b_row = &rhs_panel[kk * n..(kk + 1) * n];
            for ((o0, o1), &b) in out0.iter_mut().zip(out1.iter_mut()).zip(b_row) {
                *o0 += a0 * b;
                *o1 += a1 * b;
            }
            kk += 1;
        }
    }

    /// Single-row tail of the tile: same four-step unrolling, one output.
    #[inline(always)]
    fn accumulate_one_row(a: &[f32], rhs_panel: &[f32], n: usize, out: &mut [f32]) {
        let kc = a.len();
        let mut kk = 0;
        while kk + 3 < kc {
            let (a0, a1, a2, a3) = (a[kk], a[kk + 1], a[kk + 2], a[kk + 3]);
            let b0 = &rhs_panel[kk * n..(kk + 1) * n];
            let b1 = &rhs_panel[(kk + 1) * n..(kk + 2) * n];
            let b2 = &rhs_panel[(kk + 2) * n..(kk + 3) * n];
            let b3 = &rhs_panel[(kk + 3) * n..(kk + 4) * n];
            for ((((o, &x0), &x1), &x2), &x3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
            }
            kk += 4;
        }
        while kk < kc {
            let a0 = a[kk];
            let b_row = &rhs_panel[kk * n..(kk + 1) * n];
            for (o, &b) in out.iter_mut().zip(b_row) {
                *o += a0 * b;
            }
            kk += 1;
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:8.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_correct_shape_and_values() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_fn_row_major_order() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = Matrix::zeros(2, 2);
        a.set(1, 0, 7.5);
        assert_eq!(a.get(1, 0), 7.5);
    }

    #[test]
    fn row_and_col_access() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matmul_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert!(a.matmul(&Matrix::identity(2)).approx_eq(&a, 1e-6));
        assert!(Matrix::identity(2).matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        assert!(a.t_matmul(&b).approx_eq(&a.transpose().matmul(&b), 1e-5));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        assert!(a.matmul_t(&b).approx_eq(&a.matmul(&b.transpose()), 1e-5));
    }

    /// Output bits, every NaN as the canonical quiet NaN: Rust leaves a
    /// NaN result's sign and payload unspecified (LLVM may swap the
    /// operands of a commutative `+` / `*`), so only "is NaN" is compared.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Every dispatched kernel against its baseline body. Shapes straddle
    /// every tile edge (row pairs, the 4-step unroll, the `KC` panel, the
    /// 4-wide dot groups, 4- and 8-lane vectors); inputs are dense, mostly
    /// zero (signed zeros included), or carry ±∞ and NaN.
    #[test]
    fn dispatched_kernels_equal_their_baseline_bodies_bit_for_bit() {
        type Kernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);
        let kernels: [(&str, Kernel, Kernel); 3] = [
            ("matmul", kernels::matmul_into, kernels::matmul_into_body),
            (
                "t_matmul",
                kernels::t_matmul_into,
                kernels::t_matmul_into_body,
            ),
            (
                "matmul_t",
                kernels::matmul_t_into,
                kernels::matmul_t_into_body,
            ),
        ];
        let dense = |i: usize| ((i * 37 + 11) % 23) as f32 * 0.173 - 1.9;
        let sparse = |i: usize| match i % 7 {
            0 => dense(i),
            1 | 4 => -0.0,
            _ => 0.0,
        };
        let special = |i: usize| match i % 41 {
            3 => f32::INFINITY,
            17 => f32::NEG_INFINITY,
            29 => f32::NAN,
            _ => dense(i),
        };
        let fills: [(&str, &dyn Fn(usize) -> f32); 3] = [
            ("dense", &dense),
            ("sparse", &sparse),
            ("special", &special),
        ];
        for m in [1usize, 2, 3, 5, 33] {
            for k in [1usize, 3, 4, 5, 256, 257, 513] {
                for n in [1usize, 3, 4, 5, 7, 8, 9, 31] {
                    for (fill, value) in fills {
                        // Operand lengths for the three shapes: `m × k`
                        // with `k × n`, `m × k` with `m × n`, `m × k` with
                        // `n × k`.
                        for ((name, dispatched, body), (rhs_len, out_len)) in
                            kernels
                                .iter()
                                .zip([(k * n, m * n), (m * n, k * n), (n * k, m * n)])
                        {
                            let lhs: Vec<f32> = (0..m * k).map(value).collect();
                            let rhs: Vec<f32> = (0..rhs_len).map(|i| value(i + 5)).collect();
                            let mut want = vec![f32::NAN; out_len];
                            let mut got = vec![7.0; out_len];
                            body(&lhs, m, k, &rhs, n, &mut want);
                            dispatched(&lhs, m, k, &rhs, n, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{name} {m}x{k}x{n} {fill} on the {} path",
                                crate::simd::path()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_t_sums_every_column_from_positive_zero() {
        // Row 0 of `a` is all -0.0 and `b` all +1.0, so every product is
        // -0.0: a sum seeded with +0.0 gives +0.0 in both the 4-wide
        // columns (0..4) and the tail column (4), and so does k = 0.
        let a = Matrix::from_fn(2, 3, |r, _| if r == 0 { -0.0 } else { 1.5 });
        let b = Matrix::full(5, 3, 1.0);
        let out = a.matmul_t(&b);
        assert_eq!(bits(out.as_slice())[..5], [0u32; 5]);
        assert_eq!(out.row(1), &[4.5; 5]);
        let empty = Matrix::zeros(2, 0).matmul_t(&Matrix::zeros(5, 0));
        assert_eq!(bits(empty.as_slice()), [0u32; 10]);
    }

    #[test]
    fn blocked_matmul_matches_naive_across_shapes() {
        // Shapes straddling the tile boundaries: odd rows, k remainders,
        // k larger than one panel, and tiny edges.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 2),
            (5, 7, 3),
            (8, 256, 4),
            (7, 300, 5),
            (3, 513, 9),
            (33, 17, 31),
        ] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 11 + c * 5) % 9) as f32 - 4.0);
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert!(
                blocked.approx_eq(&naive, 1e-3),
                "blocked != naive at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn into_variants_overwrite_stale_output() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::full(2, 2, 99.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));

        let mut t_out = Matrix::full(3, 2, 99.0);
        a.t_matmul_into(&m(2, 2, &[1.0, 0.0, 0.0, 1.0]), &mut t_out);
        assert!(t_out.approx_eq(&a.transpose(), 1e-6));

        let mut mt_out = Matrix::full(2, 2, 99.0);
        a.matmul_t_into(&a, &mut mt_out);
        assert!(mt_out.approx_eq(&a.matmul(&a.transpose()), 1e-4));
    }

    #[test]
    fn kernels_handle_zero_heavy_inputs() {
        // The old kernel special-cased a == 0.0; the blocked one must stay
        // correct (not fast-pathed) on sparse data.
        let a = Matrix::from_fn(9, 20, |r, c| if (r + c) % 5 == 0 { 2.5 } else { 0.0 });
        let b = Matrix::from_fn(20, 6, |r, c| if r % 3 == 0 { c as f32 } else { 0.0 });
        assert!(a.matmul(&b).approx_eq(&a.matmul_naive(&b), 1e-4));
        assert!(a
            .t_matmul(&Matrix::identity(9).matmul(&a))
            .approx_eq(&a.transpose().matmul(&a), 1e-3));
    }

    #[test]
    fn add_and_sub() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        a.add_scaled(&m(1, 2, &[2.0, 4.0]), 0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_adds_row_to_each_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.col_sums(), vec![4.0, 2.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = m(2, 3, &[0.1, 0.9, 0.5, 0.3, 0.2, 0.8]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn slice_rows_copies_range() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.slice_rows(1, 3);
        assert_eq!(s, m(2, 2, &[3.0, 4.0, 5.0, 6.0]));
    }

    #[test]
    fn stack_operations() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(1, 2, &[3.0, 4.0]);
        assert_eq!(a.vstack(&b).unwrap(), m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(a.hstack(&b).unwrap(), m(1, 4, &[1.0, 2.0, 3.0, 4.0]));
        assert!(a.vstack(&m(1, 3, &[0.0; 3])).is_err());
        assert!(a.hstack(&m(2, 2, &[0.0; 4])).is_err());
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn display_is_bounded_for_large_matrices() {
        let a = Matrix::zeros(100, 100);
        let s = format!("{a}");
        assert!(s.lines().count() < 12);
    }
}

//! A borrowed unit-major block, and the two transposes between row-major
//! rows and unit-major columns.

/// A borrowed block of unit-major values: `width` columns of `rows`
/// values each, every column one contiguous slice of its own — a run of
/// one buffer, a slice of a stored page, or a row range of a longer
/// column — so a block is built without copying any value.
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    cols: &'a [&'a [f32]],
    rows: usize,
}

impl<'a> Columns<'a> {
    /// The block of `cols`, each `rows` values long. Panics when a column
    /// has another length.
    pub fn new(cols: &'a [&'a [f32]], rows: usize) -> Columns<'a> {
        assert!(
            cols.iter().all(|col| col.len() == rows),
            "column block shape mismatch"
        );
        Columns { cols, rows }
    }

    /// Values per column.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column `c`: its `rows` values, in row order. Panics when `c` is not
    /// below the width.
    pub fn column(&self, c: usize) -> &'a [f32] {
        self.cols[c]
    }

    /// Every column, in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f32]> + 'a {
        self.cols.iter().copied()
    }

    /// The columns as the slice of slices they were built from.
    pub fn as_slices(&self) -> &'a [&'a [f32]] {
        self.cols
    }
}

/// The `width` runs of `rows` values a unit-major buffer holds back to
/// back, as column slices. Panics unless `values` holds exactly that many.
pub fn column_runs(values: &[f32], rows: usize, width: usize) -> Vec<&[f32]> {
    assert_eq!(values.len(), rows * width, "column block shape mismatch");
    (0..width)
        .map(|c| &values[c * rows..(c + 1) * rows])
        .collect()
}

/// Writes the row-major `src` (`width` values per row) into rows
/// `first..` of the column-major `out` (column `c` at `out[c * stride..]`):
/// value `(r, c)` of `src` lands at `out[c * stride + first + r]`. Eight
/// rows by eight columns at a time as one 8 × 8 transpose in registers
/// when the CPU has AVX2 ([`crate::simd::avx2`]), value by value
/// otherwise; the same values either way.
pub fn transpose_rows_into(
    src: &[f32],
    width: usize,
    out: &mut [f32],
    stride: usize,
    first: usize,
) {
    if width == 0 {
        return;
    }
    let rows = src.len() / width;
    assert_eq!(src.len(), rows * width, "row-major source shape mismatch");
    assert!(
        first + rows <= stride && (width - 1) * stride + first + rows <= out.len(),
        "column-major output shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2() {
        // SAFETY: `avx::transpose_rows_into` only adds the `avx` target
        // feature, and a CPU with AVX2 has AVX.
        return unsafe { avx::transpose_rows_into(src, width, out, stride, first) };
    }
    transpose_rows_into_scalar(src, width, out, stride, first);
}

/// [`transpose_rows_into`] value by value.
fn transpose_rows_into_scalar(
    src: &[f32],
    width: usize,
    out: &mut [f32],
    stride: usize,
    first: usize,
) {
    for (c, column) in out.chunks_mut(stride).take(width).enumerate() {
        for (cell, row) in column[first..].iter_mut().zip(src.chunks_exact(width)) {
            *cell = row[c];
        }
    }
}

/// Writes the columns `cols` into the row-major `out`, `cols.len()`
/// values per row: value `r` of column `c` lands at
/// `out[r * cols.len() + c]`, for every row `out` holds. Eight rows by
/// eight columns at a time as one 8 × 8 transpose in registers when the
/// CPU has AVX2, value by value otherwise; the same values either way.
/// Panics when `out` is not whole rows or a column is shorter than them.
#[inline]
pub fn transpose_columns_into(cols: &[&[f32]], out: &mut [f32]) {
    let width = cols.len();
    if width == 0 {
        return;
    }
    assert!(
        out.len().is_multiple_of(width) && cols.iter().all(|c| c.len() >= out.len() / width),
        "column-major source shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2() {
        // SAFETY: `avx::transpose_columns_into` only adds the `avx` target
        // feature, and a CPU with AVX2 has AVX.
        return unsafe { avx::transpose_columns_into(cols, out) };
    }
    transpose_columns_into_scalar(cols, out);
}

/// [`transpose_columns_into`] value by value.
#[inline]
fn transpose_columns_into_scalar(cols: &[&[f32]], out: &mut [f32]) {
    for (r, row) in out.chunks_exact_mut(cols.len()).enumerate() {
        for (cell, col) in row.iter_mut().zip(cols) {
            *cell = col[r];
        }
    }
}

/// The AVX halves of [`transpose_rows_into`] and [`transpose_columns_into`]:
/// each 8 × 8 block is eight register loads, the transpose below and eight
/// stores; what is left over goes value by value.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    /// The 8 × 8 transpose of eight registers: pairs interleaved, then
    /// quadruples, then the 128-bit halves swapped into place.
    macro_rules! transpose8 {
        ($v:expr) => {{
            let v: [__m256; 8] = $v;
            let t0 = _mm256_unpacklo_ps(v[0], v[1]);
            let t1 = _mm256_unpackhi_ps(v[0], v[1]);
            let t2 = _mm256_unpacklo_ps(v[2], v[3]);
            let t3 = _mm256_unpackhi_ps(v[2], v[3]);
            let t4 = _mm256_unpacklo_ps(v[4], v[5]);
            let t5 = _mm256_unpackhi_ps(v[4], v[5]);
            let t6 = _mm256_unpacklo_ps(v[6], v[7]);
            let t7 = _mm256_unpackhi_ps(v[6], v[7]);
            let q0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let q1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let q2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let q3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let q4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let q5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let q6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let q7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(q0, q4),
                _mm256_permute2f128_ps::<0x20>(q1, q5),
                _mm256_permute2f128_ps::<0x20>(q2, q6),
                _mm256_permute2f128_ps::<0x20>(q3, q7),
                _mm256_permute2f128_ps::<0x31>(q0, q4),
                _mm256_permute2f128_ps::<0x31>(q1, q5),
                _mm256_permute2f128_ps::<0x31>(q2, q6),
                _mm256_permute2f128_ps::<0x31>(q3, q7),
            ]
        }};
    }

    /// Eight values of `s` from `at` as one register.
    #[inline]
    #[target_feature(enable = "avx")]
    fn load(s: &[f32], at: usize) -> __m256 {
        let eight: &[f32; 8] = s[at..at + 8].try_into().expect("eight values");
        // SAFETY: `eight` holds the eight values loaded.
        unsafe { _mm256_loadu_ps(eight.as_ptr()) }
    }

    /// Stores `v` as the eight values of `s` from `at`.
    #[inline]
    #[target_feature(enable = "avx")]
    fn store(s: &mut [f32], at: usize, v: __m256) {
        let eight: &mut [f32; 8] = (&mut s[at..at + 8]).try_into().expect("eight values");
        // SAFETY: `eight` holds the eight values stored.
        unsafe { _mm256_storeu_ps(eight.as_mut_ptr(), v) }
    }

    #[target_feature(enable = "avx")]
    pub(super) fn transpose_rows_into(
        src: &[f32],
        width: usize,
        out: &mut [f32],
        stride: usize,
        first: usize,
    ) {
        let rows = src.len() / width;
        let (full_rows, full_cols) = (rows - rows % 8, width - width % 8);
        // Runs of up to `RUN` rows of eight columns are transposed into a
        // stack buffer, then written as one copy per column: eight
        // columns' scattered 32-byte stores would keep evicting each
        // other's lines when the column stride is a power of two.
        const RUN: usize = 64;
        let mut stage = [[0.0f32; RUN]; 8];
        for r0 in (0..full_rows).step_by(RUN) {
            let run = (full_rows - r0).min(RUN);
            for c0 in (0..full_cols).step_by(8) {
                for b in (0..run).step_by(8) {
                    let mut v = [_mm256_setzero_ps(); 8];
                    for (i, v) in v.iter_mut().enumerate() {
                        *v = load(src, (r0 + b + i) * width + c0);
                    }
                    for (column, values) in stage.iter_mut().zip(transpose8!(v)) {
                        store(column, b, values);
                    }
                }
                for (c, column) in (c0..).zip(&stage) {
                    out[c * stride + first + r0..][..run].copy_from_slice(&column[..run]);
                }
            }
        }
        // The last columns of every row, then every column of the last
        // rows.
        for c in full_cols..width {
            for r in 0..full_rows {
                out[c * stride + first + r] = src[r * width + c];
            }
        }
        for r in full_rows..rows {
            for c in 0..width {
                out[c * stride + first + r] = src[r * width + c];
            }
        }
    }

    #[target_feature(enable = "avx")]
    pub(super) fn transpose_columns_into(cols: &[&[f32]], out: &mut [f32]) {
        let width = cols.len();
        let rows = out.len() / width;
        let (full_rows, full_cols) = (rows - rows % 8, width - width % 8);
        for c0 in (0..full_cols).step_by(8) {
            for r0 in (0..full_rows).step_by(8) {
                let mut v = [_mm256_setzero_ps(); 8];
                for (v, col) in v.iter_mut().zip(&cols[c0..c0 + 8]) {
                    *v = load(col, r0);
                }
                for (i, row) in transpose8!(v).into_iter().enumerate() {
                    store(out, (r0 + i) * width + c0, row);
                }
            }
        }
        // The last columns of every row, then every column of the last
        // rows.
        for (c, col) in cols.iter().enumerate().skip(full_cols) {
            for r in 0..full_rows {
                out[r * width + c] = col[r];
            }
        }
        for r in full_rows..rows {
            for (c, col) in cols.iter().enumerate() {
                out[r * width + c] = col[r];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_reads_its_columns() {
        let (a, b) = ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]);
        let cols = [&a[..], &b[1..]];
        let block = Columns::new(&cols, 3);
        assert_eq!((block.rows(), block.width()), (3, 2));
        assert_eq!(block.column(1), &[5.0, 6.0, 7.0]);
        assert_eq!(block.iter().collect::<Vec<_>>(), cols);
        assert_eq!(block.as_slices(), cols);
        assert_eq!(Columns::new(&[], 5).width(), 0);
        let values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(column_runs(&values, 3, 2), [&values[..3], &values[3..]]);
        assert_eq!(column_runs(&values[..0], 0, 2), [&[] as &[f32]; 2]);
    }

    #[test]
    #[should_panic(expected = "column block shape mismatch")]
    fn a_block_refuses_a_column_of_another_length() {
        Columns::new(&[&[0.0; 4], &[0.0; 3]], 4);
    }

    /// Columns into rows at widths around the 8 × 8 blocks and every row
    /// count up to 41: the dispatched copy, the scalar one and the
    /// definition agree.
    #[test]
    fn columns_land_in_their_rows_at_every_tail() {
        for width in [1usize, 7, 8, 9, 16, 19] {
            let values: Vec<f32> = (0..width * 41).map(|i| i as f32 * 0.5 - 7.0).collect();
            let cols: Vec<&[f32]> = values.chunks(41).collect();
            for n in 0..=41 {
                let (mut out, mut scalar) = (vec![f32::NAN; n * width], vec![f32::NAN; n * width]);
                transpose_columns_into(&cols, &mut out);
                transpose_columns_into_scalar(&cols, &mut scalar);
                let want: Vec<f32> = (0..n * width).map(|i| cols[i % width][i / width]).collect();
                assert_eq!(out, want, "{width} x {n}, {}", crate::simd::path());
                assert_eq!(scalar, want, "{width} x {n}");
            }
        }
    }

    #[test]
    fn transposed_rows_land_in_their_columns_at_any_offset() {
        let shapes = [
            (0usize, 3usize),
            (1, 1),
            (7, 5),
            (8, 8),
            (19, 9),
            (33, 17),
            (16, 24),
            (23, 64),
        ];
        for (rows, width) in shapes {
            let src: Vec<f32> = (0..rows * width).map(|i| i as f32).collect();
            let (first, stride) = (3, rows + 5);
            let mut out = vec![f32::NAN; width * stride];
            transpose_rows_into(&src, width, &mut out, stride, first);
            for c in 0..width {
                for i in 0..stride {
                    let got = out[c * stride + i];
                    match i.checked_sub(first).filter(|&r| r < rows) {
                        Some(r) => assert_eq!(got, src[r * width + c], "{rows}x{width}"),
                        None => assert!(got.is_nan(), "{rows}x{width} wrote outside its rows"),
                    }
                }
            }
            let mut scalar = vec![f32::NAN; width * stride];
            transpose_rows_into_scalar(&src, width, &mut scalar, stride, first);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&scalar),
                bits(&out),
                "{rows}x{width}, {}",
                crate::simd::path()
            );
        }
    }
}

//! Property-based tests for the matrix substrate: algebraic identities that
//! must hold for arbitrary shapes and contents.

use deepbase_tensor::Matrix;
use proptest::prelude::*;

/// Strategy producing a matrix with dims in [1, 8] and small finite values.
fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// A pair of matrices with a shared inner dimension, for mat-mul laws.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(m, k, n)| {
        let lhs = proptest::collection::vec(-10.0f32..10.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap());
        let rhs = proptest::collection::vec(-10.0f32..10.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap());
        (lhs, rhs)
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(a in small_matrix()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_shape(a in small_matrix()) {
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (a.cols(), a.rows()));
    }

    #[test]
    fn matmul_identity_left_right(a in small_matrix()) {
        let left = Matrix::identity(a.rows()).matmul(&a);
        let right = a.matmul(&Matrix::identity(a.cols()));
        prop_assert!(left.approx_eq(&a, 1e-3));
        prop_assert!(right.approx_eq(&a, 1e-3));
    }

    #[test]
    fn matmul_transpose_law((a, b) in matmul_pair()) {
        // (AB)^T == B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-2));
    }

    #[test]
    fn fused_transpose_kernels_match((a, b) in matmul_pair()) {
        let reference = a.matmul(&b);
        // a.matmul_t(b^T) must equal a.matmul(b).
        let bt = b.transpose();
        prop_assert!(a.matmul_t(&bt).approx_eq(&reference, 1e-2));
        // (a^T).t_matmul(b) must equal a.matmul(b).
        let at = a.transpose();
        prop_assert!(at.t_matmul(&b).approx_eq(&reference, 1e-2));
    }

    #[test]
    fn blocked_matmul_matches_naive_reference((a, b) in matmul_pair()) {
        // The cache-blocked kernel must agree with the retained scalar
        // reference for arbitrary shapes and contents.
        prop_assert!(a.matmul(&b).approx_eq(&a.matmul_naive(&b), 1e-2));
    }

    #[test]
    fn into_kernels_match_allocating_kernels((a, b) in matmul_pair()) {
        // Stale output contents must not leak into any _into result.
        let mut out = Matrix::full(a.rows(), b.cols(), f32::NAN);
        a.matmul_into(&b, &mut out);
        prop_assert!(out.approx_eq(&a.matmul(&b), 1e-3));

        let at = a.transpose();
        let mut t_out = Matrix::full(a.rows(), b.cols(), f32::NAN);
        at.t_matmul_into(&b, &mut t_out);
        prop_assert!(t_out.approx_eq(&a.matmul(&b), 1e-2));

        let bt = b.transpose();
        let mut mt_out = Matrix::full(a.rows(), b.cols(), f32::NAN);
        a.matmul_t_into(&bt, &mut mt_out);
        prop_assert!(mt_out.approx_eq(&a.matmul(&b), 1e-2));
    }

    #[test]
    fn wide_shared_dimension_crosses_panel_boundary(
        m in 1usize..4,
        n in 1usize..4,
        k in 250usize..260,
    ) {
        // k straddles the kernel's KC=256 panel width.
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 13) % 7) as f32 - 3.0);
        prop_assert!(a.matmul(&b).approx_eq(&a.matmul_naive(&b), 1e-1));
    }

    #[test]
    fn add_commutes(a in small_matrix()) {
        let b = a.map(|x| x * 0.5 - 1.0);
        prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-4));
    }

    #[test]
    fn scale_distributes_over_add(a in small_matrix()) {
        let b = a.map(|x| -x + 2.0);
        let lhs = a.add(&b).scale(3.0);
        let rhs = a.scale(3.0).add(&b.scale(3.0));
        prop_assert!(lhs.approx_eq(&rhs, 1e-2));
    }

    #[test]
    fn softmax_rows_are_distributions(a in small_matrix()) {
        let s = deepbase_tensor::ops::softmax_rows(&a);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn vstack_then_slice_roundtrips(a in small_matrix()) {
        let stacked = a.vstack(&a).unwrap();
        prop_assert_eq!(stacked.slice_rows(0, a.rows()), a.clone());
        prop_assert_eq!(stacked.slice_rows(a.rows(), 2 * a.rows()), a);
    }
}

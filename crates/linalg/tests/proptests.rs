//! Property-based tests: the sparse fast paths must agree with the dense
//! reference implementations on arbitrary inputs.

use megh_linalg::{
    identity_residual, iqr, loess_predict_next, mad, mean, median, quantile,
    sherman_morrison_update, std_dev, DenseMatrix, DokMatrix, PiecewiseLinear, SparseVec,
};
use proptest::prelude::*;

fn sparse_vec_strategy(dim: usize) -> impl Strategy<Value = SparseVec> {
    prop::collection::vec((0..dim, -5.0..5.0f64), 0..dim)
        .prop_map(move |pairs| SparseVec::from_pairs(dim, pairs))
}

proptest! {
    #[test]
    fn sparse_dot_matches_dense(a in sparse_vec_strategy(8), b in sparse_vec_strategy(8)) {
        let dense: f64 = a.to_dense().iter().zip(b.to_dense()).map(|(x, y)| x * y).sum();
        prop_assert!((a.dot(&b) - dense).abs() < 1e-9);
    }

    #[test]
    fn add_scaled_matches_dense(a in sparse_vec_strategy(8), b in sparse_vec_strategy(8), s in -3.0..3.0f64) {
        let got = a.add_scaled(&b, s).to_dense();
        let want: Vec<f64> = a
            .to_dense()
            .iter()
            .zip(b.to_dense())
            .map(|(x, y)| x + s * y)
            .collect();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dok_mul_matches_dense(
        entries in prop::collection::vec(((0..6usize, 0..6usize), -4.0..4.0f64), 0..20),
        v in sparse_vec_strategy(6),
    ) {
        let mut m = DokMatrix::zeros(6);
        for ((r, c), val) in entries {
            m.set(r, c, val);
        }
        let got = m.mul_sparse_vec(&v).to_dense();
        let want = m.to_dense().mul_vec(&v.to_dense());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dok_left_mul_is_transpose(
        entries in prop::collection::vec(((0..5usize, 0..5usize), -4.0..4.0f64), 0..15),
        v in sparse_vec_strategy(5),
    ) {
        let mut m = DokMatrix::zeros(5);
        for ((r, c), val) in entries {
            m.set(r, c, val);
        }
        let left = m.mul_sparse_vec_left(&v).to_dense();
        // vᵀM equals Mᵀv.
        let mt = {
            let mut t = DokMatrix::zeros(5);
            for ((r, c), val) in m.iter() {
                t.set(c, r, val);
            }
            t
        };
        let want = mt.to_dense().mul_vec(&v.to_dense());
        for (g, w) in left.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    /// The heart of Megh's §5.2: chained Sherman–Morrison updates on the
    /// sparse DOK matrix must track the dense Gauss–Jordan inverse.
    #[test]
    fn sherman_morrison_tracks_dense_inverse(
        steps in prop::collection::vec((0..6usize, 0..6usize), 1..10),
        gamma in 0.0..0.9f64,
    ) {
        let d = 6;
        let delta = d as f64;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / delta);
        let mut t = DenseMatrix::zeros(d, d);
        for i in 0..d {
            t.set(i, i, delta);
        }
        for (a, a_next) in steps {
            let u = SparseVec::basis(d, a);
            let v = SparseVec::basis(d, a).add_scaled(&SparseVec::basis(d, a_next), -gamma);
            if sherman_morrison_update(&mut b, &u, &v).is_err() {
                // A singular update is legitimately rejected; skip the step
                // (the dense T would be singular too).
                continue;
            }
            for (i, uv) in u.iter() {
                for (j, vv) in v.iter() {
                    t.set(i, j, t.get(i, j) + uv * vv);
                }
            }
            let want = t.inverse().expect("T must stay invertible when SM succeeded");
            prop_assert!(b.to_dense().max_abs_diff(&want) < 1e-6);
        }
    }

    /// Random interleavings of `set`, explicit removal and
    /// `add_outer_product` — including updates that cancel an entry to
    /// exactly zero — leave the compact DOK bitwise equal to a dense
    /// reference that replays the same `old + scale·uᵢ·vⱼ` arithmetic,
    /// with no empty row or column list retained. The same sequence on
    /// a matrix of order 7·2⁴⁰ (indices spread by 2⁴⁰) stores the same
    /// entries and products, and both products match the dense
    /// reference's.
    #[test]
    fn compact_dok_matches_dense_reference_under_interleaved_edits(
        ops in prop::collection::vec(
            (0..4usize, (0..7usize, 0..7usize), -4.0..4.0f64, sparse_vec_strategy(7), sparse_vec_strategy(7)),
            0..30,
        ),
        probe in sparse_vec_strategy(7),
    ) {
        const SPREAD: usize = 1 << 40;
        let spread = |v: &SparseVec| SparseVec::from_pairs(7 * SPREAD, v.iter().map(|(i, x)| (i * SPREAD, x)));
        let mut dense = [[0.0f64; 7]; 7];
        let mut m = DokMatrix::zeros(7);
        let mut big = DokMatrix::zeros(7 * SPREAD);
        for (kind, (r, c), value, u, v) in ops {
            match kind {
                0 | 1 => {
                    // Kind 1 removes the entry explicitly.
                    let value = if kind == 0 { value } else { 0.0 };
                    dense[r][c] = value;
                    m.set(r, c, value);
                    big.set(r * SPREAD, c * SPREAD, value);
                }
                2 => {
                    for (i, ui) in u.iter() {
                        for (j, vj) in v.iter() {
                            dense[i][j] += value * ui * vj;
                        }
                    }
                    m.add_outer_product(&u, &v, value);
                    big.add_outer_product(&spread(&u), &spread(&v), value);
                }
                _ => {
                    // An exact cancellation: x + (−x) = 0.
                    let (e_r, e_c) = (SparseVec::basis(7, r), SparseVec::basis(7, c));
                    let cancel = -dense[r][c];
                    dense[r][c] += cancel;
                    m.add_outer_product(&e_r, &e_c, cancel);
                    big.add_outer_product(&spread(&e_r), &spread(&e_c), cancel);
                }
            }
            prop_assert_eq!(m.check_consistency(), Ok(()));
            prop_assert_eq!(big.check_consistency(), Ok(()));
        }
        let mut nnz = 0;
        for (r, row) in dense.iter().enumerate() {
            for (c, &want) in row.iter().enumerate() {
                nnz += usize::from(want != 0.0);
                let want = if want == 0.0 { 0.0 } else { want };
                prop_assert_eq!(m.get(r, c).to_bits(), want.to_bits());
                prop_assert_eq!(big.get(r * SPREAD, c * SPREAD).to_bits(), want.to_bits());
            }
        }
        prop_assert_eq!(m.nnz(), nnz);
        prop_assert_eq!(big.nnz(), nnz);
        // Both product orientations against the dense reference's.
        let right = m.mul_sparse_vec(&probe).to_dense();
        let left = m.mul_sparse_vec_left(&probe).to_dense();
        for (i, (got_right, got_left)) in right.iter().zip(&left).enumerate() {
            let want_right: f64 = (0..7).map(|j| dense[i][j] * probe.get(j)).sum();
            let want_left: f64 = (0..7).map(|j| probe.get(j) * dense[j][i]).sum();
            prop_assert!((got_right - want_right).abs() < 1e-9);
            prop_assert!((got_left - want_left).abs() < 1e-9);
        }
        let big_probe = spread(&probe);
        prop_assert_eq!(big.mul_sparse_vec(&big_probe), spread(&m.mul_sparse_vec(&probe)));
        prop_assert_eq!(big.mul_sparse_vec_left(&big_probe), spread(&m.mul_sparse_vec_left(&probe)));
    }

    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(-100.0..100.0f64, 1..50)) {
        let q25 = quantile(&values, 0.25);
        let q50 = quantile(&values, 0.5);
        let q75 = quantile(&values, 0.75);
        prop_assert!(q25 <= q50 + 1e-12);
        prop_assert!(q50 <= q75 + 1e-12);
        prop_assert!(iqr(&values) >= -1e-12);
        prop_assert!(mad(&values) >= 0.0);
        prop_assert!(std_dev(&values) >= 0.0);
        prop_assert!(median(&values) <= values.iter().cloned().fold(f64::MIN, f64::max) + 1e-12);
        prop_assert!(mean(&values) <= values.iter().cloned().fold(f64::MIN, f64::max) + 1e-12);
    }

    #[test]
    fn piecewise_linear_stays_in_hull(
        ys in prop::collection::vec(0.0..200.0f64, 2..12),
        x in -1.0..13.0f64,
    ) {
        let knots: Vec<(f64, f64)> = ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
        let f = PiecewiseLinear::new(knots).unwrap();
        let lo = ys.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ys.iter().cloned().fold(f64::MIN, f64::max);
        let v = f.eval(x);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn loess_is_exact_on_lines(slope in -5.0..5.0f64, intercept in -5.0..5.0f64, n in 3..30usize) {
        let series: Vec<f64> = (0..n).map(|i| intercept + slope * i as f64).collect();
        let next = loess_predict_next(&series, 0).unwrap();
        let want = intercept + slope * n as f64;
        prop_assert!((next - want).abs() < 1e-4, "got {next}, want {want}");
    }
}

proptest! {
    /// Randomized Megh-style rank-1 update sequences: the sparse
    /// Sherman–Morrison inverse must keep inverting an independently
    /// maintained dense operator `T` (checked with the same
    /// `identity_residual` predicate the `check-invariants` runtime
    /// checks use) and must match the Gauss–Jordan inverse entrywise.
    #[test]
    fn chained_rank1_updates_track_dense_inverse(
        steps in prop::collection::vec((0..6usize, 0..6usize), 1..40),
        gamma in 0.0..0.9f64,
    ) {
        let d = 6;
        let delta = d as f64;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / delta);
        let mut t = DenseMatrix::zeros(d, d);
        for i in 0..d {
            t.set(i, i, delta);
        }
        for &(a, a_next) in &steps {
            let u = SparseVec::basis(d, a);
            let v = SparseVec::basis(d, a).add_scaled(&SparseVec::basis(d, a_next), -gamma);
            // A vanishing denominator means T + u·vᵀ would be singular;
            // the update is skipped on both representations alike.
            if sherman_morrison_update(&mut b, &u, &v).is_ok() {
                t.set(a, a, t.get(a, a) + 1.0);
                t.set(a, a_next, t.get(a, a_next) - gamma);
            }
        }
        prop_assert!(identity_residual(&b.to_dense(), &t) < 1e-6);
        let gj = t.inverse().expect("operator stays invertible for gamma < 1");
        prop_assert!(b.to_dense().max_abs_diff(&gj) < 1e-6);
    }
}

//! Dictionary-of-keys sparse matrices with sorted row/column adjacency.
//!
//! Storage follows the stored entries, not the matrix order: only rows
//! and columns holding at least one non-zero have an adjacency list, so
//! construction, clone and serialization cost `O(nnz)` whatever the
//! order (Megh's `d = N × M` action space).

// This module is on the Megh decision hot path: steady-state calls must
// not allocate. Enforced by `cargo run -p lint`.
// lint: deny_alloc

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::SparseVec;

/// One orientation of the adjacency: touched row (or column) index →
/// its sorted `(index, value)` pairs. Never holds an empty list.
type Adjacency = BTreeMap<usize, Vec<(usize, f64)>>;

/// A square sparse matrix stored as sorted per-row and per-column
/// adjacency lists.
///
/// This is the data structure §5.2 of the paper describes: only non-zero
/// entries are stored, and the per-row / per-column indexes make the
/// sparse-times-sparse products used by the Sherman–Morrison update
/// proportional to the number of non-zeros actually touched rather than
/// to the matrix order. Each list holds `(index, value)` pairs sorted by
/// index, with the value mirrored in both orientations, so a product
/// walks contiguous pairs after one ordered-map lookup per selected row
/// or column. Only touched rows and columns have a list, and a list is
/// dropped when its last entry cancels, so memory is `O(nnz)`.
///
/// # Examples
///
/// ```
/// use megh_linalg::{DokMatrix, SparseVec};
///
/// let m = DokMatrix::scaled_identity(3, 0.5);
/// let v = SparseVec::basis(3, 1);
/// assert_eq!(m.mul_sparse_vec(&v).get(1), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct DokMatrix {
    order: usize,
    nnz: usize,
    /// Sorted `(col, value)` pairs, per touched row.
    rows: Adjacency,
    /// Sorted `(row, value)` pairs, per touched column; values mirror
    /// `rows`.
    cols: Adjacency,
}

/// Runs `edit` on the list stored under `key`, starting from an empty
/// list when there is none, and keeps `map` free of empty lists.
fn edit_list<R>(
    map: &mut Adjacency,
    key: usize,
    edit: impl FnOnce(&mut Vec<(usize, f64)>) -> R,
) -> R {
    match map.entry(key) {
        Entry::Occupied(mut slot) => {
            let list = slot.get_mut();
            let out = edit(list);
            if list.is_empty() {
                slot.remove();
            }
            out
        }
        Entry::Vacant(slot) => {
            // First touch of this row/column: its list grows from empty,
            // as `Vec::insert` grows an existing one. lint: allow(alloc)
            let mut list = Vec::new();
            let out = edit(&mut list);
            if !list.is_empty() {
                slot.insert(list);
            }
            out
        }
    }
}

/// Replaces the value stored under `idx` in one sorted list (0.0 when
/// absent) by `f(old)`, keeping the list free of zeros. Returns the
/// change in stored entries: −1, 0 or +1.
fn update_entry(list: &mut Vec<(usize, f64)>, idx: usize, f: impl FnOnce(f64) -> f64) -> isize {
    match list.binary_search_by_key(&idx, |&(k, _)| k) {
        Ok(pos) => {
            debug_assert!(pos < list.len());
            let value = f(list[pos].1);
            if value == 0.0 {
                list.remove(pos);
                -1
            } else {
                list[pos].1 = value;
                0
            }
        }
        Err(pos) => {
            let value = f(0.0);
            if value == 0.0 {
                0
            } else {
                list.insert(pos, (idx, value));
                1
            }
        }
    }
}

impl DokMatrix {
    /// Creates an all-zero square matrix of the given order.
    ///
    /// Allocation-free and `O(1)`: rows and columns get storage only
    /// when first touched.
    pub fn zeros(order: usize) -> Self {
        Self {
            order,
            nnz: 0,
            rows: BTreeMap::new(),
            cols: BTreeMap::new(),
        }
    }

    /// Creates `scale · I`, the paper's initialisation `B₀ = (1/δ) I`.
    pub fn scaled_identity(order: usize, scale: f64) -> Self {
        let mut m = Self::zeros(order);
        if scale != 0.0 {
            for i in 0..order {
                m.set(i, i, scale);
            }
        }
        m
    }

    /// The matrix order (number of rows = number of columns).
    pub fn order(&self) -> usize {
        self.order
    }

    /// The number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Returns the entry at `(row, col)`, 0.0 when not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.order && col < self.order, "index out of range");
        let Some(list) = self.rows.get(&row) else {
            return 0.0;
        };
        match list.binary_search_by_key(&col, |&(c, _)| c) {
            // lint: allow(implicit_panic) -- binary_search returned Ok(pos), so pos indexes a stored entry
            Ok(pos) => list[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Sets the entry at `(row, col)`, removing it when `value == 0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.order && col < self.order, "index out of range");
        let change = edit_list(&mut self.rows, row, |list| {
            update_entry(list, col, |_| value)
        });
        edit_list(&mut self.cols, col, |list| {
            update_entry(list, row, |_| value)
        });
        self.nnz = self.nnz.wrapping_add_signed(change);
    }

    /// Verifies the dual-adjacency invariant: `rows` and `cols` hold no
    /// empty list and no out-of-range index, are each sorted and
    /// strictly increasing, mirror each other entry for entry, and
    /// together store exactly [`DokMatrix::nnz`] values.
    ///
    /// Intended for the `check-invariants` feature and tests; cost is
    /// `O(nnz · log nnz)`.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first violation found.
    pub fn check_consistency(&self) -> Result<(), &'static str> {
        let mut row_entries = 0usize;
        for (&r, row) in &self.rows {
            if r >= self.order {
                return Err("row index out of range");
            }
            if row.is_empty() {
                return Err("empty row adjacency list retained");
            }
            let mut prev: Option<usize> = None;
            for &(c, v) in row {
                if c >= self.order {
                    return Err("row entry column index out of range");
                }
                if prev.is_some_and(|p| p >= c) {
                    return Err("row adjacency list not strictly increasing");
                }
                prev = Some(c);
                if v == 0.0 {
                    return Err("explicit zero stored in row adjacency list");
                }
                let Some(col) = self.cols.get(&c) else {
                    return Err("row entry missing from column mirror");
                };
                match col.binary_search_by_key(&r, |&(rr, _)| rr) {
                    Ok(m) if col[m].1.to_bits() == v.to_bits() => {}
                    Ok(_) => return Err("mirror entry disagrees on value"),
                    Err(_) => return Err("row entry missing from column mirror"),
                }
                row_entries += 1;
            }
        }
        let mut col_entries = 0usize;
        for col in self.cols.values() {
            if col.is_empty() {
                return Err("empty column adjacency list retained");
            }
            if col.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err("column adjacency list not strictly increasing");
            }
            col_entries += col.len();
        }
        if row_entries != self.nnz || col_entries != self.nnz {
            return Err("stored entry count disagrees with nnz");
        }
        Ok(())
    }

    /// Iterates over all stored `((row, col), value)` triplets in
    /// row-major order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&r, row)| row.iter().map(move |&(c, v)| ((r, c), v)))
    }

    /// Computes `M · v` for a sparse vector `v`.
    ///
    /// Cost is proportional to the number of stored entries in the columns
    /// selected by `v`'s non-zeros, not to the matrix order.
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let mut m = DokMatrix::zeros(3);
    /// m.set(0, 1, 2.0);
    /// m.set(2, 1, -1.0);
    /// // Column 1 is selected: the product is 2·e₀ − 1·e₂, scaled by v₁.
    /// let out = m.mul_sparse_vec(&SparseVec::from_pairs(3, [(1, 3.0)]));
    /// assert_eq!(out.to_dense(), vec![6.0, 0.0, -3.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.order()`.
    pub fn mul_sparse_vec(&self, v: &SparseVec) -> SparseVec {
        let mut out = SparseVec::zeros(self.order);
        self.mul_sparse_vec_into(v, &mut out);
        out
    }

    /// Computes `M · v` into a caller-provided output vector, reusing
    /// its storage (no allocation once `out`'s buffer has warmed up).
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let m = DokMatrix::scaled_identity(2, 4.0);
    /// let mut out = SparseVec::zeros(2);
    /// m.mul_sparse_vec_into(&SparseVec::basis(2, 0), &mut out);
    /// assert_eq!(out.get(0), 4.0);
    /// // `out` is cleared on entry, so the scratch can be reused freely.
    /// m.mul_sparse_vec_into(&SparseVec::basis(2, 1), &mut out);
    /// assert_eq!(out.to_dense(), vec![0.0, 4.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v.dim()` or `out.dim()` differs from `self.order()`.
    pub fn mul_sparse_vec_into(&self, v: &SparseVec, out: &mut SparseVec) {
        assert_eq!(v.dim(), self.order, "dimension mismatch");
        assert_eq!(out.dim(), self.order, "output dimension mismatch");
        out.clear();
        for (col, value) in v.iter() {
            for &(row, w) in self.cols.get(&col).into_iter().flatten() {
                out.add_at(row, value * w);
            }
        }
    }

    /// Computes `vᵀ · M` for a sparse vector `v` (returned as a vector).
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let mut m = DokMatrix::zeros(3);
    /// m.set(1, 0, 2.0);
    /// m.set(1, 2, 5.0);
    /// // Row 1 is selected: the left product reads a row, not a column.
    /// let out = m.mul_sparse_vec_left(&SparseVec::basis(3, 1));
    /// assert_eq!(out.to_dense(), vec![2.0, 0.0, 5.0]);
    /// assert!(m.mul_sparse_vec(&SparseVec::basis(3, 1)).is_zero());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.order()`.
    pub fn mul_sparse_vec_left(&self, v: &SparseVec) -> SparseVec {
        let mut out = SparseVec::zeros(self.order);
        self.mul_sparse_vec_left_into(v, &mut out);
        out
    }

    /// Computes `vᵀ · M` into a caller-provided output vector, reusing
    /// its storage.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim()` or `out.dim()` differs from `self.order()`.
    pub fn mul_sparse_vec_left_into(&self, v: &SparseVec, out: &mut SparseVec) {
        assert_eq!(v.dim(), self.order, "dimension mismatch");
        assert_eq!(out.dim(), self.order, "output dimension mismatch");
        out.clear();
        for (row, value) in v.iter() {
            for &(col, w) in self.rows.get(&row).into_iter().flatten() {
                out.add_at(col, value * w);
            }
        }
    }

    /// Computes `M · v` for a dense vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.order()`.
    pub fn mul_dense_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.order, "dimension mismatch");
        // Dense materialisation is a diagnostic path, not the hot loop.
        let mut out = vec![0.0; self.order]; // lint: allow(alloc)
        for ((row, col), value) in self.iter() {
            // lint: allow(implicit_panic) -- stored indices are below order, and out/v are order-long (asserted)
            out[row] += value * v[col];
        }
        out
    }

    /// Adds the rank-1 outer product `scale · u vᵀ` in place.
    ///
    /// Cost is `O(nnz(u) · nnz(v))` list updates plus one ordered-map
    /// lookup per touched row and column. Entry `(i, j)` becomes
    /// `get(i, j) + scale·uᵢ·vⱼ`, stored as by [`DokMatrix::set`], so
    /// the result is bitwise identical to updating the entries one by
    /// one.
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let mut m = DokMatrix::zeros(2);
    /// m.add_outer_product(&SparseVec::basis(2, 0), &SparseVec::basis(2, 1), 3.0);
    /// assert_eq!(m.get(0, 1), 3.0);
    /// assert_eq!(m.nnz(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `u` or `v` differ from the order.
    pub fn add_outer_product(&mut self, u: &SparseVec, v: &SparseVec, scale: f64) {
        assert_eq!(u.dim(), self.order, "dimension mismatch for u");
        assert_eq!(v.dim(), self.order, "dimension mismatch for v");
        // Both orientations repeat the same `old + delta` arithmetic, so
        // the mirrored values agree bit for bit.
        for (i, uv) in u.iter() {
            let change = edit_list(&mut self.rows, i, |row| {
                v.iter()
                    .map(|(j, vv)| update_entry(row, j, |old| old + scale * uv * vv))
                    .sum::<isize>()
            });
            self.nnz = self.nnz.wrapping_add_signed(change);
        }
        for (j, vv) in v.iter() {
            edit_list(&mut self.cols, j, |col| {
                for (i, uv) in u.iter() {
                    update_entry(col, i, |old| old + scale * uv * vv);
                }
            });
        }
    }
}

/// Serialized form: order plus `(row, col, value)` triplets — JSON (and
/// most formats) cannot key maps by tuples.
#[derive(Serialize, Deserialize)]
struct DokMatrixRepr {
    order: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl Serialize for DokMatrix {
    // Cold persistence path; the unknown-receiver fallback aliases the
    // inner `.serialize(serializer)` call to every workspace
    // `serialize` (including megh-serve's allocating wire impls), so
    // the subtree is vouched.
    // lint: allow(transitive_alloc)
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Row-major iteration is already sorted by (row, col).
        // Serialization is an explicit cold path. lint: allow(alloc)
        let triplets: Vec<(usize, usize, f64)> = self.iter().map(|((r, c), v)| (r, c, v)).collect();
        DokMatrixRepr {
            order: self.order,
            triplets,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for DokMatrix {
    // Cold path, same aliasing as `serialize` above.
    // lint: allow(transitive_alloc)
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = DokMatrixRepr::deserialize(deserializer)?;
        let mut m = DokMatrix::zeros(repr.order);
        for (r, c, v) in repr.triplets {
            if r >= repr.order || c >= repr.order {
                // lint: allow(alloc)
                return Err(serde::de::Error::custom(format!(
                    "triplet ({r}, {c}) outside order {}",
                    repr.order
                )));
            }
            m.set(r, c, v);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip_preserves_entries() {
        let mut m = DokMatrix::zeros(4);
        m.set(0, 3, 1.5);
        m.set(2, 1, -0.5);
        let json = serde_json::to_string(&m).unwrap();
        let back: DokMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back.order(), 4);
        assert_eq!(back.nnz(), 2);
        assert_eq!(back.get(0, 3), 1.5);
        assert_eq!(back.get(2, 1), -0.5);
        // Rebuilt indexes must work for products.
        let v = SparseVec::basis(4, 3);
        assert_eq!(back.mul_sparse_vec(&v).get(0), 1.5);
    }

    #[test]
    fn serde_rejects_out_of_range_triplets() {
        let json = r#"{"order":2,"triplets":[[5,0,1.0]]}"#;
        assert!(serde_json::from_str::<DokMatrix>(json).is_err());
    }

    #[test]
    fn scaled_identity_layout() {
        let m = DokMatrix::scaled_identity(3, 0.25);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 0.25);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn zero_scale_identity_is_empty() {
        let m = DokMatrix::scaled_identity(3, 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn set_and_remove_updates_indexes() {
        let mut m = DokMatrix::zeros(4);
        m.set(1, 2, 5.0);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 2), 5.0);
        m.set(1, 2, 0.0);
        assert_eq!(m.nnz(), 0);
        // A sparse product must no longer see the removed entry.
        let v = SparseVec::basis(4, 2);
        assert!(m.mul_sparse_vec(&v).is_zero());
    }

    #[test]
    fn iter_is_row_major_sorted() {
        let mut m = DokMatrix::zeros(3);
        m.set(2, 0, 1.0);
        m.set(0, 2, 2.0);
        m.set(0, 1, 3.0);
        m.set(1, 1, 4.0);
        let keys: Vec<(usize, usize)> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn mul_sparse_vec_matches_dense() {
        let mut m = DokMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(0, 2, 2.0);
        m.set(2, 1, -1.0);
        let v = SparseVec::from_pairs(3, [(0, 1.0), (1, 2.0), (2, 3.0)]);
        let got = m.mul_sparse_vec(&v).to_dense();
        let want = m.mul_dense_vec(&v.to_dense());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_into_reuses_scratch_and_matches_alloc_path() {
        let mut m = DokMatrix::zeros(4);
        m.set(0, 1, 2.0);
        m.set(1, 1, -1.0);
        m.set(3, 2, 4.0);
        let v = SparseVec::from_pairs(4, [(1, 1.5), (2, 0.5)]);
        let mut scratch = SparseVec::from_pairs(4, [(0, 9.0), (3, 9.0)]);
        m.mul_sparse_vec_into(&v, &mut scratch);
        assert_eq!(scratch, m.mul_sparse_vec(&v));
        m.mul_sparse_vec_left_into(&v, &mut scratch);
        assert_eq!(scratch, m.mul_sparse_vec_left(&v));
    }

    #[test]
    fn left_multiply_is_transpose_multiply() {
        let mut m = DokMatrix::zeros(3);
        m.set(0, 1, 2.0);
        m.set(2, 1, 3.0);
        let v = SparseVec::from_pairs(3, [(0, 1.0), (2, 1.0)]);
        let left = m.mul_sparse_vec_left(&v);
        // vᵀM has entry at column 1: 1·2 + 1·3 = 5.
        assert_eq!(left.get(1), 5.0);
        assert_eq!(left.nnz(), 1);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = DokMatrix::zeros(3);
        let u = SparseVec::basis(3, 0);
        let v = SparseVec::from_pairs(3, [(1, 2.0), (2, -1.0)]);
        m.add_outer_product(&u, &v, 0.5);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 2), -0.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn outer_product_cancellation_removes_entries() {
        let mut m = DokMatrix::zeros(2);
        let u = SparseVec::basis(2, 0);
        let v = SparseVec::basis(2, 1);
        m.add_outer_product(&u, &v, 1.0);
        m.add_outer_product(&u, &v, -1.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn storage_follows_touched_rows_and_columns() {
        // A huge order costs nothing until entries arrive.
        let mut m = DokMatrix::zeros(usize::MAX / 2);
        m.set(7, 1 << 40, 2.0);
        m.add_outer_product(
            &SparseVec::from_pairs(m.order(), [(7, 1.0), (9, 1.0)]),
            &SparseVec::basis(m.order(), 3),
            0.5,
        );
        assert_eq!((m.rows.len(), m.cols.len()), (2, 2));
        assert_eq!(m.check_consistency(), Ok(()));
        // Cancelling the last entry of a row or column drops its list.
        m.set(7, 1 << 40, 0.0);
        m.add_outer_product(
            &SparseVec::basis(m.order(), 9),
            &SparseVec::basis(m.order(), 3),
            -0.5,
        );
        assert_eq!((m.rows.len(), m.cols.len()), (1, 1));
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.check_consistency(), Ok(()));
    }

    #[test]
    fn consistency_check_rejects_retained_empty_lists() {
        let mut m = DokMatrix::zeros(3);
        m.rows.insert(1, Vec::new());
        assert_eq!(
            m.check_consistency(),
            Err("empty row adjacency list retained")
        );
        let mut m = DokMatrix::zeros(3);
        m.cols.insert(2, Vec::new());
        assert_eq!(
            m.check_consistency(),
            Err("empty column adjacency list retained")
        );
    }
}

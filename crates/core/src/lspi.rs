//! The sparse LSPI state: `B = T⁻¹`, the cost accumulator `z`, and the
//! projection vector `θ = B·z`, all maintained incrementally.
//!
//! §5.2's complexity management is implemented literally here:
//!
//! * `B` is represented as `(1/δ)·I + Δ` where `Δ` is a sparse DOK
//!   matrix, initially *empty*. Memory starts at `O(1)` explicit storage
//!   (the paper's `O(d)` counts the implicit diagonal) and grows only as
//!   actions are explored. [`SparseLspi::explicit_nnz`] — the number of
//!   stored entries of `Δ` — is the Figure 7 "Q-table non-zeros" metric.
//! * Each update applies the Sherman–Morrison formula (Eq. 11) with
//!   `u = φ_{a_t}`, `v = φ_{a_t} − γ·φ_{a_{t+1}}`, touching only the
//!   occupied rows/columns — `O(#migrations)` work per step.
//! * `θ` is updated in closed form rather than recomputed: with
//!   `bu = B·u`, `vb = Bᵀ·v`, `den = 1 + v·bu`,
//!   `θ' = θ + [ −(vb·z)/den + C·(1 − (vb·u)/den) ]·bu`,
//!   which follows from `θ' = B'(z + C·u)` and the rank-1 structure.
//!
//! The decision hot path is allocation-free in the steady state: the
//! basis vectors `u`, `v` and the products `bu`, `vb` live in reusable
//! scratch buffers, and the minimum explicit `θ` entry is cached and
//! maintained incrementally so [`SparseLspi::min_q`] never scans.
//!
//! Every piece of state — `Δ`, `z`, `θ` and the set of explored actions
//! — stores only what updates have touched, so construction, clone and
//! (de)serialization cost `O(nnz)`, independent of `d`
//! ([`SparseLspi::state_bytes`] reports the size).

// This module is on the Megh decision hot path: steady-state calls must
// not allocate. Enforced by `cargo run -p lint`.
// lint: deny_alloc

use std::collections::BTreeSet;
use std::mem::size_of;

use megh_linalg::{DokMatrix, SparseVec};
use serde::value::{self, Value};
use serde::{Deserialize, Serialize};

#[cfg(feature = "check-invariants")]
use megh_linalg::DenseMatrix;

/// Shadow-`T` maintenance costs `O(dim²)` memory, so verification is
/// disabled above this dimension (the checks silently no-op).
#[cfg(feature = "check-invariants")]
const VERIFY_MAX_DIM: usize = 512;
/// The `O(dim²)` residual check runs on every `VERIFY_EVERY`-th
/// successful update; the shadow itself is maintained on every one.
#[cfg(feature = "check-invariants")]
const VERIFY_EVERY: usize = 16;
/// Tolerance on the inverse-drift residual `‖B·T − I‖∞`.
#[cfg(feature = "check-invariants")]
const VERIFY_TOL: f64 = 1e-6;

/// Incremental least-squares policy-iteration state over `d` actions.
///
/// # Examples
///
/// ```
/// use megh_core::SparseLspi;
///
/// let mut lspi = SparseLspi::new(6, 6.0, 0.5);
/// assert_eq!(lspi.q(3), 0.0);
/// lspi.update(3, 1, 2.0);
/// assert!(lspi.q(3) > 0.0); // action 3 now carries observed cost
/// assert_eq!(lspi.updates(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLspi {
    dim: usize,
    inv_delta: f64,
    gamma: f64,
    /// Sparse correction: `B = inv_delta·I + delta_b`.
    delta_b: DokMatrix,
    z: SparseVec,
    theta: SparseVec,
    updates: usize,
    skipped_singular: usize,
    /// Actions that have received a successful update. An action's `θ`
    /// entry can cancel back to exactly 0.0, so exploration must be
    /// tracked explicitly rather than read off `θ`'s support.
    explored: BTreeSet<usize>,
    /// Cached `(action, value)` of the smallest explicit `θ` entry,
    /// maintained incrementally across updates.
    min_entry: Option<(usize, f64)>,
    // Reusable scratch for the Sherman–Morrison step; never serialized.
    scratch_u: SparseVec,
    scratch_v: SparseVec,
    scratch_bu: SparseVec,
    scratch_vb: SparseVec,
    /// Dense shadow of `T = δ·I + Σ u·vᵀ`, the operator whose inverse
    /// `B` purports to be. Maintained only under `check-invariants` and
    /// only when `dim ≤ VERIFY_MAX_DIM`; `None` otherwise — and after
    /// deserialization, which cannot reconstruct `T` without replaying
    /// the whole update stream.
    #[cfg(feature = "check-invariants")]
    shadow_t: Option<DenseMatrix>,
}

impl SparseLspi {
    /// Creates the initial state `B₀ = (1/δ)·I`, `z₀ = 0`, `θ₀ = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0` or `gamma ∉ [0, 1)`.
    pub fn new(dim: usize, delta: f64, gamma: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0, 1)");
        Self {
            dim,
            inv_delta: 1.0 / delta,
            gamma,
            delta_b: DokMatrix::zeros(dim),
            z: SparseVec::zeros(dim),
            theta: SparseVec::zeros(dim),
            updates: 0,
            skipped_singular: 0,
            explored: BTreeSet::new(),
            min_entry: None,
            scratch_u: SparseVec::zeros(dim),
            scratch_v: SparseVec::zeros(dim),
            scratch_bu: SparseVec::zeros(dim),
            scratch_vb: SparseVec::zeros(dim),
            #[cfg(feature = "check-invariants")]
            shadow_t: Self::shadow_for(dim, delta),
        }
    }

    /// Builds the dense shadow operator `T₀ = δ·I` when the dimension
    /// is small enough to afford `O(dim²)` verification state.
    #[cfg(feature = "check-invariants")]
    fn shadow_for(dim: usize, delta: f64) -> Option<DenseMatrix> {
        if dim > VERIFY_MAX_DIM {
            return None;
        }
        let mut t = DenseMatrix::zeros(dim, dim);
        for i in 0..dim {
            t.set(i, i, delta);
        }
        Some(t)
    }

    /// The projected dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The discount factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The approximate action value `Q(s, a) = θᵀ φ_a = θ[a]`.
    ///
    /// # Panics
    ///
    /// Panics if `action >= dim()`.
    pub fn q(&self, action: usize) -> f64 {
        self.theta.get(action)
    }

    /// Explicit non-zero entries stored in the `Δ` part of `B` — the
    /// Figure 7 Q-table growth metric.
    pub fn explicit_nnz(&self) -> usize {
        self.delta_b.nnz()
    }

    /// Non-zero entries of `θ` (distinct actions carrying value).
    pub fn theta_nnz(&self) -> usize {
        self.theta.nnz()
    }

    /// Successful Sherman–Morrison updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Updates skipped because the rank-1 denominator vanished.
    pub fn skipped_singular(&self) -> usize {
        self.skipped_singular
    }

    /// Iterates over the explicit entries of `θ` as `(action, q)` pairs.
    pub fn theta_entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.theta.iter()
    }

    /// The smallest explicit `θ` entry as `(action, value)`, if any.
    ///
    /// Served from the incrementally maintained cache — `O(1)`.
    pub fn min_theta_entry(&self) -> Option<(usize, f64)> {
        self.min_entry
    }

    /// Distinct actions that have received at least one successful
    /// update.
    pub fn explored_count(&self) -> usize {
        self.explored.len()
    }

    /// Bytes held by the learned state's stored entries: `Δ`'s entries
    /// (each kept once per orientation), `z`'s, `θ`'s, and the explored
    /// actions, times their element sizes. Container overhead (map
    /// nodes, spare capacity) is not counted. `O(1)`.
    pub fn state_bytes(&self) -> usize {
        let entries = 2 * self.delta_b.nnz() + self.z.nnz() + self.theta.nnz();
        entries * size_of::<(usize, f64)>() + self.explored.len() * size_of::<usize>()
    }

    /// Minimum Q over the whole action space.
    ///
    /// Actions without an explicit `θ` entry have `Q = 0` exactly, so
    /// the minimum is the smaller of 0 (when any such action exists)
    /// and the cached smallest explicit entry — `O(1)`, no scan.
    pub fn min_q(&self) -> f64 {
        let explicit_min = self.min_entry.map_or(f64::INFINITY, |(_, v)| v);
        if self.theta.nnz() < self.dim {
            explicit_min.min(0.0)
        } else if explicit_min.is_finite() {
            explicit_min
        } else {
            0.0
        }
    }

    /// Whether the action has never received a successful update.
    ///
    /// Tracked explicitly: an explored action whose `θ` entry cancels
    /// back to exactly 0.0 (or whose first observed cost was 0) still
    /// counts as explored, even though its Q reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `action >= dim()`.
    pub fn is_unexplored(&self, action: usize) -> bool {
        assert!(action < self.dim, "action index {action} out of range");
        !self.explored.contains(&action)
    }

    /// Applies one learning step: the agent took `a_prev`, observed
    /// per-stage cost `cost`, and its current policy would next take
    /// `a_next` (the `φ_{π_t(s_{t+1})}` of Eq. 10).
    ///
    /// Returns `false` when the Sherman–Morrison denominator vanished
    /// and the update was skipped (the corresponding `T` update would
    /// have made it singular — vanishingly rare with γ < 1). Skipped
    /// updates do not mark `a_prev` explored.
    ///
    /// # Panics
    ///
    /// Panics if either action index is out of range.
    // lint: depth_budget(6)
    pub fn update(&mut self, a_prev: usize, a_next: usize, cost: f64) -> bool {
        assert!(a_prev < self.dim, "a_prev out of range");
        assert!(a_next < self.dim, "a_next out of range");

        let den = self.sherman_products(a_prev, a_next);
        if den.abs() < 1e-12 {
            self.skipped_singular += 1;
            return false;
        }

        // θ' = θ + [ −(vb·z)/den + C·(1 − (vb·u)/den) ]·bu.
        let vb_z = self.scratch_vb.dot(&self.z);
        let vb_u = self.scratch_vb.dot(&self.scratch_u);
        let coeff = -(vb_z / den) + cost * (1.0 - vb_u / den);
        if coeff != 0.0 {
            self.theta.add_scaled_assign(&self.scratch_bu, coeff);
            self.refresh_theta_min();
        }

        // B' = B − bu·vbᵀ/den (the identity part is untouched; the whole
        // correction accumulates in Δ).
        self.delta_b
            .add_outer_product(&self.scratch_bu, &self.scratch_vb, -1.0 / den);

        // z' = z + C·φ_{a_prev}.
        self.z.add_at(a_prev, cost);

        self.explored.insert(a_prev);

        self.updates += 1;
        #[cfg(feature = "check-invariants")]
        self.verify_update(a_prev, a_next);
        true
    }

    /// Builds `u = φ_{a_prev}`, `v = u − γ·φ_{a_next}` in scratch and
    /// computes `bu = B·u`, `vb = Bᵀ·v`, returning the Sherman–Morrison
    /// denominator `1 + v·bu`.
    fn sherman_products(&mut self, a_prev: usize, a_next: usize) -> f64 {
        // Basis vectors built in scratch so the steady-state step never
        // touches the allocator.
        self.scratch_u.clear();
        self.scratch_u.set(a_prev, 1.0);
        self.scratch_v.clear();
        self.scratch_v.set(a_prev, 1.0);
        self.scratch_v.add_at(a_next, -self.gamma);

        // bu = B·u = u/δ + Δ·u ; vb = Bᵀ·v = v/δ + Δᵀ·v.
        self.delta_b
            .mul_sparse_vec_into(&self.scratch_u, &mut self.scratch_bu);
        self.scratch_bu
            .add_scaled_assign(&self.scratch_u, self.inv_delta);
        self.delta_b
            .mul_sparse_vec_left_into(&self.scratch_v, &mut self.scratch_vb);
        self.scratch_vb
            .add_scaled_assign(&self.scratch_v, self.inv_delta);

        1.0 + self.scratch_v.dot(&self.scratch_bu)
    }

    /// Does nothing. `B` has a single sparse representation, updated in
    /// place on every step, so there is nothing to freeze.
    ///
    /// Kept only because the benchmark harness's per-layer probe
    /// (`perf/src/probe.rs`, metric `core.freeze_ms`) still calls it;
    /// it goes once the harness drops `core.freeze_ms`.
    #[doc(hidden)]
    pub fn freeze(&mut self) {}

    /// Mirrors the rank-1 operator update on the dense shadow `T` and,
    /// every [`VERIFY_EVERY`]-th successful update, asserts the three
    /// runtime invariants: the DOK dual-adjacency structure of `Δ`, the
    /// inverse contract `‖B·T − I‖∞ < ε`, and agreement between the
    /// cached minimum-`θ` entry and a full scan of `θ`'s support.
    #[cfg(feature = "check-invariants")]
    fn verify_update(&mut self, a_prev: usize, a_next: usize) {
        if let Some(t) = self.shadow_t.as_mut() {
            // T ← T + u·vᵀ with u = e_{a_prev}, v = e_{a_prev} − γ·e_{a_next}.
            // When a_prev == a_next the two writes chain, giving 1 − γ.
            t.set(a_prev, a_prev, t.get(a_prev, a_prev) + 1.0);
            t.set(a_prev, a_next, t.get(a_prev, a_next) - self.gamma);
        }
        if self.updates % VERIFY_EVERY != 0 {
            return;
        }
        let structure = self.delta_b.check_consistency();
        assert!(
            structure.is_ok(),
            "DokMatrix invariant violated after update {}: {structure:?}",
            self.updates
        );
        if let Some(t) = self.shadow_t.as_ref() {
            // Densify B = (1/δ)·I + Δ and check it still inverts T.
            let mut b = self.delta_b.to_dense();
            for i in 0..self.dim {
                b.set(i, i, b.get(i, i) + self.inv_delta);
            }
            let residual = megh_linalg::identity_residual(&b, t);
            assert!(
                residual < VERIFY_TOL,
                "inverse drifted: ‖B·T − I‖∞ = {residual:e} after update {}",
                self.updates
            );
        }
        let mut scanned: Option<f64> = None;
        for (_, v) in self.theta.iter() {
            if scanned.is_none_or(|best| v < best) {
                scanned = Some(v);
            }
        }
        assert_eq!(
            self.min_entry.map(|(_, v)| v),
            scanned,
            "cached min-θ disagrees with a full scan after update {}",
            self.updates
        );
    }

    /// Maintains the cached minimum after `θ` changed on the support of
    /// `scratch_bu`. A full `O(nnz(θ))` rescan happens only when the
    /// cached argmin's own entry rose or vanished; otherwise the cost is
    /// `O(nnz(bu))` lookups.
    fn refresh_theta_min(&mut self) {
        let invalidated = match self.min_entry {
            Some((idx, val)) if self.scratch_bu.get(idx) != 0.0 => {
                let now = self.theta.get(idx);
                if now == 0.0 || now > val {
                    true
                } else {
                    self.min_entry = Some((idx, now));
                    false
                }
            }
            _ => false,
        };
        if invalidated {
            self.rescan_theta_min();
            return;
        }
        // A touched entry may have dropped below the cached minimum.
        for (i, _) in self.scratch_bu.iter() {
            let v = self.theta.get(i);
            if v != 0.0 && self.min_entry.is_none_or(|(_, bv)| v < bv) {
                self.min_entry = Some((i, v));
            }
        }
    }

    fn rescan_theta_min(&mut self) {
        self.min_entry = None;
        for (i, v) in self.theta.iter() {
            if self.min_entry.is_none_or(|(_, bv)| v < bv) {
                self.min_entry = Some((i, v));
            }
        }
    }

    /// Recomputes `θ = B·z` from scratch (test oracle; `O(nnz)` but not
    /// incremental).
    pub fn recompute_theta(&self) -> SparseVec {
        let mut theta = self.delta_b.mul_sparse_vec(&self.z);
        theta = theta.add_scaled(&self.z, self.inv_delta);
        theta
    }
}

/// Serialized form: semantic state only. Scratch buffers and the cached
/// minimum are derived, so they are rebuilt on restore; exploration
/// flags are stored as the sorted list of explored action indices.
/// [`SparseLspi`]'s `Serialize` writes the same fields, in this order,
/// from borrowed state.
#[derive(Deserialize)]
struct SparseLspiRepr {
    dim: usize,
    inv_delta: f64,
    gamma: f64,
    delta_b: DokMatrix,
    z: SparseVec,
    theta: SparseVec,
    updates: usize,
    skipped_singular: usize,
    explored: Vec<usize>,
}

impl Serialize for SparseLspi {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        // Serialization is an explicit cold path (persistence, not
        // decide); it walks only stored entries.
        let explored: Vec<usize> = self.explored.iter().copied().collect(); // lint: allow(alloc)
        let field = |name: &str, v: Result<Value, value::ValueError>| {
            v.map(|v| (name.to_string(), v)).map_err(S::Error::custom) // lint: allow(alloc)
        };
        // The fields and order of `SparseLspiRepr`. lint: allow(alloc)
        let pairs = vec![
            field("dim", value::to_value(&self.dim))?,
            field("inv_delta", value::to_value(&self.inv_delta))?,
            field("gamma", value::to_value(&self.gamma))?,
            field("delta_b", value::to_value(&self.delta_b))?,
            field("z", value::to_value(&self.z))?,
            field("theta", value::to_value(&self.theta))?,
            field("updates", value::to_value(&self.updates))?,
            field("skipped_singular", value::to_value(&self.skipped_singular))?,
            field("explored", value::to_value(&explored))?,
        ];
        serializer.serialize_value(Value::Object(pairs))
    }
}

impl<'de> Deserialize<'de> for SparseLspi {
    // Cold path, same aliasing as `serialize` above.
    // lint: allow(transitive_alloc)
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = SparseLspiRepr::deserialize(deserializer)?;
        if let Some(&a) = repr.explored.iter().find(|&&a| a >= repr.dim) {
            // lint: allow(alloc)
            return Err(serde::de::Error::custom(format!(
                "explored action {a} outside dim {}",
                repr.dim
            )));
        }
        let mut lspi = SparseLspi {
            dim: repr.dim,
            inv_delta: repr.inv_delta,
            gamma: repr.gamma,
            delta_b: repr.delta_b,
            z: repr.z,
            theta: repr.theta,
            updates: repr.updates,
            skipped_singular: repr.skipped_singular,
            explored: repr.explored.into_iter().collect(), // lint: allow(alloc)
            min_entry: None,
            scratch_u: SparseVec::zeros(repr.dim),
            scratch_v: SparseVec::zeros(repr.dim),
            scratch_bu: SparseVec::zeros(repr.dim),
            scratch_vb: SparseVec::zeros(repr.dim),
            #[cfg(feature = "check-invariants")]
            shadow_t: None,
        };
        lspi.rescan_theta_min();
        Ok(lspi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_theta_consistent(lspi: &SparseLspi) {
        let want = lspi.recompute_theta();
        for a in 0..lspi.dim() {
            assert!(
                (lspi.q(a) - want.get(a)).abs() < 1e-9,
                "theta[{a}] = {} but recompute gives {}",
                lspi.q(a),
                want.get(a)
            );
        }
    }

    fn naive_min_entry(lspi: &SparseLspi) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (a, v) in lspi.theta_entries() {
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((a, v));
            }
        }
        best
    }

    #[test]
    fn initial_state_is_zero() {
        let lspi = SparseLspi::new(10, 10.0, 0.5);
        assert_eq!(lspi.explicit_nnz(), 0);
        assert_eq!(lspi.theta_nnz(), 0);
        assert_eq!(lspi.min_q(), 0.0);
        assert_eq!(lspi.explored_count(), 0);
        assert_eq!(lspi.min_theta_entry(), None);
        for a in 0..10 {
            assert_eq!(lspi.q(a), 0.0);
            assert!(lspi.is_unexplored(a));
        }
    }

    #[test]
    fn single_update_raises_q_of_taken_action() {
        let mut lspi = SparseLspi::new(4, 4.0, 0.5);
        assert!(lspi.update(2, 0, 3.0));
        assert!(lspi.q(2) > 0.0, "q(2) = {}", lspi.q(2));
        assert_theta_consistent(&lspi);
    }

    #[test]
    fn incremental_theta_matches_recompute_over_many_updates() {
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        let steps = [
            (0usize, 1usize, 2.0),
            (1, 3, 1.5),
            (3, 3, 0.7),
            (2, 0, 4.0),
            (0, 2, 0.9),
            (5, 7, 2.2),
            (7, 5, 1.1),
            (3, 1, 0.3),
        ];
        for &(a, a2, c) in &steps {
            lspi.update(a, a2, c);
            assert_theta_consistent(&lspi);
        }
        assert_eq!(lspi.updates(), steps.len());
    }

    #[test]
    fn cached_min_matches_naive_scan_over_many_updates() {
        // Mixed positive and negative costs exercise both the cheap
        // touched-entry path and the full-rescan path (the cached
        // argmin's own entry rising) of the cache maintenance.
        let mut lspi = SparseLspi::new(12, 12.0, 0.5);
        let costs = [3.0, -2.0, 5.0, -4.5, 1.0, -1.0, 7.0, -6.0, 0.5, 2.5];
        for (t, &c) in costs.iter().cycle().take(60).enumerate() {
            lspi.update(t % 12, (t * 5 + 2) % 12, c);
            assert_eq!(
                lspi.min_theta_entry().map(|(_, v)| v),
                naive_min_entry(&lspi).map(|(_, v)| v),
                "cached min diverged after update {t}"
            );
        }
    }

    #[test]
    fn qtable_growth_is_bounded_by_updates() {
        // Each update adds O(1) rows/columns of fill-in: the Fig 7
        // "linear growth in time" property.
        let mut lspi = SparseLspi::new(100, 100.0, 0.5);
        let mut prev_nnz = 0;
        for t in 0..50 {
            lspi.update(t % 100, (t * 7 + 3) % 100, 1.0);
            let nnz = lspi.explicit_nnz();
            assert!(nnz >= prev_nnz, "nnz must be monotone");
            prev_nnz = nnz;
        }
        // Far below dense d² = 10_000.
        assert!(prev_nnz < 1000, "nnz = {prev_nnz} — fill-in explosion");
    }

    #[test]
    fn min_q_accounts_for_unexplored_zero() {
        let mut lspi = SparseLspi::new(5, 5.0, 0.5);
        lspi.update(0, 1, 10.0);
        // Explored action has positive Q; the other 4 sit at 0.
        assert_eq!(lspi.min_q(), 0.0);
        assert!(!lspi.is_unexplored(0));
        assert!(lspi.is_unexplored(4));
    }

    #[test]
    fn zero_cost_update_still_marks_action_explored() {
        // Regression: a zero observed cost with `z` still empty leaves
        // θ[a] at exactly 0.0; the old support-based check misread the
        // taken action as unexplored forever.
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        assert!(lspi.update(3, 3, 0.0));
        assert_eq!(lspi.q(3), 0.0);
        assert!(
            !lspi.is_unexplored(3),
            "action 3 was taken and must count as explored"
        );
        assert_eq!(lspi.explored_count(), 1);
        assert!(lspi.is_unexplored(4));
    }

    #[test]
    fn theta_entry_cancelled_to_exact_zero_stays_explored() {
        // Regression: drive an explored action's θ entry back to exactly
        // 0.0 through the public update path. q(0) after one more update
        // is affine in that update's cost, so solve for the cancelling
        // cost and walk the neighbouring float values until the entry
        // vanishes from θ's support.
        let mut base = SparseLspi::new(3, 1.0, 0.0);
        base.update(0, 0, 2.0);
        assert!(base.q(0) > 0.0);
        let q_after = |cost: f64| {
            let mut probe = base.clone();
            probe.update(0, 0, cost);
            probe.q(0)
        };
        let at_zero = q_after(0.0);
        let slope = q_after(1.0) - at_zero;
        let guess = -at_zero / slope;
        let mut cancelling = None;
        for offset in -64i64..=64 {
            let cost = f64::from_bits((guess.to_bits() as i64 + offset) as u64);
            if q_after(cost) == 0.0 {
                cancelling = Some(cost);
                break;
            }
        }
        let cost = cancelling.expect("an exactly-cancelling cost exists near the affine root");
        let mut lspi = base.clone();
        lspi.update(0, 0, cost);
        assert_eq!(lspi.q(0), 0.0);
        assert_eq!(lspi.theta_nnz(), 0, "entry must be gone from θ's support");
        assert!(
            !lspi.is_unexplored(0),
            "cancelled-to-zero action must stay explored"
        );
        assert_eq!(lspi.min_q(), 0.0);
    }

    #[test]
    fn exploration_flags_survive_serde_roundtrip() {
        let mut lspi = SparseLspi::new(6, 6.0, 0.5);
        lspi.update(2, 2, 0.0); // explored, θ[2] stays exactly 0
        lspi.update(4, 1, 3.0);
        let json = serde_json::to_string(&lspi).unwrap();
        let back: SparseLspi = serde_json::from_str(&json).unwrap();
        assert!(!back.is_unexplored(2));
        assert!(!back.is_unexplored(4));
        assert!(back.is_unexplored(0));
        assert_eq!(back.explored_count(), 2);
        assert_eq!(back.min_theta_entry(), lspi.min_theta_entry());
        for a in 0..6 {
            assert_eq!(back.q(a), lspi.q(a));
        }
    }

    #[test]
    fn serde_rejects_out_of_range_explored_action() {
        let mut lspi = SparseLspi::new(2, 2.0, 0.5);
        lspi.update(1, 0, 1.0);
        let json = serde_json::to_string(&lspi).unwrap();
        let corrupted = json.replace("\"explored\":[1]", "\"explored\":[9]");
        assert_ne!(json, corrupted, "fixture must contain the explored list");
        assert!(serde_json::from_str::<SparseLspi>(&corrupted).is_err());
    }

    #[test]
    fn repeated_action_accumulates_cost() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        lspi.update(1, 1, 1.0);
        let q1 = lspi.q(1);
        lspi.update(1, 1, 1.0);
        let q2 = lspi.q(1);
        assert!(q2 > q1, "repeated cost must accumulate: {q1} -> {q2}");
        assert_theta_consistent(&lspi);
    }

    #[test]
    fn gamma_zero_is_pure_averaging() {
        // With γ = 0 the operator update is T += u·uᵀ — still valid.
        let mut lspi = SparseLspi::new(3, 3.0, 0.0);
        assert!(lspi.update(0, 2, 2.0));
        assert_theta_consistent(&lspi);
    }

    fn learned_lspi() -> SparseLspi {
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        let steps = [
            (0usize, 1usize, 2.0),
            (1, 3, 1.5),
            (3, 3, 0.7),
            (2, 0, 4.0),
            (0, 2, 0.9),
            (5, 7, 2.2),
        ];
        for &(a, a2, c) in &steps {
            lspi.update(a, a2, c);
        }
        lspi
    }

    #[test]
    fn freeze_stub_leaves_state_and_checkpoint_bytes_unchanged() {
        let checkpoint_bytes = |lspi: &SparseLspi| {
            crate::to_versioned_json(&crate::MeghCheckpoint {
                config: crate::MeghConfig::paper_defaults(4, 2),
                lspi: lspi.clone(),
                temperature: 1.0,
                steps: lspi.updates(),
            })
            .unwrap()
        };
        let mut frozen = learned_lspi();
        let mut plain = learned_lspi();
        frozen.freeze();
        for a in 0..8 {
            assert_eq!(frozen.q(a).to_bits(), plain.q(a).to_bits());
        }
        assert_eq!(frozen.explicit_nnz(), plain.explicit_nnz());
        assert_eq!(checkpoint_bytes(&frozen), checkpoint_bytes(&plain));
        assert!(frozen.update(4, 0, 1.25));
        assert!(plain.update(4, 0, 1.25));
        for a in 0..8 {
            assert_eq!(frozen.q(a).to_bits(), plain.q(a).to_bits());
        }
        assert_eq!(frozen.explicit_nnz(), plain.explicit_nnz());
        assert_eq!(checkpoint_bytes(&frozen), checkpoint_bytes(&plain));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_bad_action() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        lspi.update(3, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn new_rejects_bad_delta() {
        let _ = SparseLspi::new(3, 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn new_rejects_bad_gamma() {
        let _ = SparseLspi::new(3, 3.0, 1.0);
    }
}

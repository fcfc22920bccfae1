//! Proof that the decision hot path is allocation-free in the steady
//! state, using a counting global allocator.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` attribute is process-wide. The allocator counts
//! per thread, so each `#[test]` snapshots only its own thread's counter
//! around its critical section: sibling tests allocating concurrently
//! cannot leak into the measurement, and the result holds for any
//! `--test-threads`.

use megh_core::diagnostics::CountingAllocator;
use megh_core::{BoltzmannPolicy, SparseLspi};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::system();

/// A learned state representative of a warmed-up run: 50 VMs × 66
/// hosts (the paper's small PlanetLab shape), with a spread of
/// explored actions at mixed costs.
fn warmed_lspi() -> SparseLspi {
    let d = 50 * 66;
    let mut lspi = SparseLspi::new(d, d as f64, 0.5);
    for t in 0..200 {
        let a = (t * 131) % d;
        let a2 = (t * 137 + 71) % d;
        let cost = ((t % 7) as f64) - 2.0;
        lspi.update(a, a2, cost);
    }
    lspi
}

#[test]
fn steady_state_sample_is_allocation_free() {
    let lspi = warmed_lspi();
    let policy = BoltzmannPolicy::new(1.5, 0.0);
    let mut rng = StdRng::seed_from_u64(7);

    // Warm-up: first calls may lazily touch anything that caches.
    for _ in 0..10 {
        let _ = policy.sample(&lspi, &mut rng);
    }

    let before = ALLOC.allocations();
    let mut acc = 0usize;
    for _ in 0..1_000 {
        acc += policy.sample(&lspi, &mut rng).expect("non-empty space");
    }
    let after = ALLOC.allocations();
    assert!(acc > 0, "keep the sampled actions observable");
    assert_eq!(
        after - before,
        0,
        "BoltzmannPolicy::sample allocated {} times over 1000 calls",
        after - before
    );
}

#[test]
fn steady_state_greedy_is_allocation_free() {
    let lspi = warmed_lspi();
    let policy = BoltzmannPolicy::new(1.5, 0.0);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..10 {
        let _ = policy.greedy(&lspi, &mut rng);
    }
    let before = ALLOC.allocations();
    let mut acc = 0usize;
    for _ in 0..1_000 {
        acc += policy.greedy(&lspi, &mut rng);
    }
    assert!(acc < usize::MAX);
    assert_eq!(ALLOC.allocations() - before, 0, "greedy hit the heap");
}

#[test]
fn steady_state_update_on_seen_actions_is_allocation_free() {
    // Learning on previously seen action pairs reuses every buffer:
    // the scratch vectors, θ's entry list, and Δ's adjacency rows all
    // have their capacity from the warm-up.
    let mut lspi = warmed_lspi();
    for _ in 0..10 {
        lspi.update(131, 137 + 71, 1.0);
    }
    let before = ALLOC.allocations();
    for t in 0..100 {
        lspi.update(131, 137 + 71, (t % 3) as f64);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "update on a previously seen action pair hit the heap"
    );
}

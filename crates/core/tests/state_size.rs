//! The learned state costs `O(nnz)`, not `O(d)`: the same 500 updates
//! at d = 10⁴ and at d = 10⁸ must allocate about the same bytes for
//! construction, learning, clone and checkpoint serialization.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` attribute is process-wide; the counters are
//! per thread, so sibling tests cannot leak into a measurement.

use megh_core::diagnostics::CountingAllocator;
use megh_core::{to_versioned_json, MeghCheckpoint, MeghConfig, SparseLspi};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::system();

/// Actions stay below this bound at every dimension, so both runs
/// learn exactly the same entries.
const TOUCHED: usize = 10_000;

/// Bytes allocated by the calling thread while `f` runs.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC.bytes_allocated();
    let out = f();
    (out, ALLOC.bytes_allocated() - before)
}

/// Per-operation bytes for `new`, 500 updates, `clone` and
/// `to_versioned_json` on a `vms × hosts` action space.
fn profile(vms: usize, hosts: usize) -> [(&'static str, u64); 4] {
    let dim = vms * hosts;
    // δ and γ are fixed so both dimensions run identical arithmetic.
    let (mut lspi, new) = bytes_of(|| SparseLspi::new(dim, 1e4, 0.5));
    let ((), update) = bytes_of(|| {
        for t in 0..500 {
            let a = (t * 7_919) % TOUCHED;
            let a_next = (t * 104_729 + 13) % TOUCHED;
            lspi.update(a, a_next, ((t % 11) as f64 - 3.0) * 0.25);
        }
    });
    let (copy, clone) = bytes_of(|| lspi.clone());
    drop(copy);
    let checkpoint = MeghCheckpoint {
        config: MeghConfig::paper_defaults(vms, hosts),
        lspi,
        temperature: 1.0,
        steps: 500,
    };
    let (json, save) = bytes_of(|| to_versioned_json(&checkpoint).expect("serializes"));
    assert!(json.len() < 1 << 20, "checkpoint is {} bytes", json.len());
    [
        ("new", new),
        ("update", update),
        ("clone", clone),
        ("to_versioned_json", save),
    ]
}

#[test]
fn state_bytes_do_not_grow_with_the_action_space() {
    let small = profile(100, 100);
    let large = profile(10_000, 10_000);
    for ((op, s), (_, l)) in small.iter().zip(&large) {
        assert!(
            *l <= 2 * *s,
            "{op}: {l} bytes at d = 10^8 vs {s} bytes at d = 10^4"
        );
    }
}

#[test]
fn state_bytes_counts_stored_entries() {
    let mut lspi = SparseLspi::new(10_000 * 10_000, 1e4, 0.5);
    assert_eq!(lspi.state_bytes(), 0);
    lspi.update(3, 3, 1.0);
    let pair = std::mem::size_of::<(usize, f64)>();
    // Δ stores one entry (twice, once per orientation), z and θ one
    // each, plus one explored action.
    assert_eq!(lspi.explicit_nnz(), 1);
    assert_eq!(lspi.theta_nnz(), 1);
    assert_eq!(lspi.state_bytes(), 4 * pair + std::mem::size_of::<usize>());
}

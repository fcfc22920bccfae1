//! Convergence diagnostics for per-step cost series.
//!
//! §6.3 quantifies learning behaviour by when the per-step operation
//! cost "converges to almost stable cost" — Megh in ~100 steps,
//! THR-MMT in ~300–600, MadVM in 200–700. This module implements that
//! measurement: a rolling-window stability detector plus the
//! variance-after-convergence statistic the paper uses to argue Megh's
//! robustness.
//!
//! It also carries the decision-hot-path observability primitives:
//! [`LatencyStats`] summarises the per-step decision latencies the
//! simulator records (Figures 4(d)/5(d) are latency plots), and
//! [`CountingAllocator`] is a global-allocator wrapper used to *prove*
//! the steady-state decision path performs zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use serde::{Deserialize, Serialize};

/// Summary of per-step decision latencies, in microseconds.
///
/// # Examples
///
/// ```
/// use megh_core::diagnostics::LatencyStats;
///
/// let stats = LatencyStats::from_micros(&[10, 20, 30, 40, 1000]);
/// assert_eq!(stats.samples, 5);
/// assert_eq!(stats.median_us, 30.0);
/// assert_eq!(stats.max_us, 1000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of decisions measured.
    pub samples: usize,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median (lower of the two middle samples for even counts), µs.
    pub median_us: f64,
    /// 99th percentile (nearest-rank), µs.
    pub p99_us: f64,
    /// Worst observed decision, µs.
    pub max_us: f64,
}

impl LatencyStats {
    /// Summarises a slice of per-step decision latencies (microseconds,
    /// as recorded in the simulator's step records). An empty slice
    /// yields all-zero statistics.
    pub fn from_micros(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self {
                samples: 0,
                mean_us: 0.0,
                median_us: 0.0,
                p99_us: 0.0,
                max_us: 0.0,
            };
        }
        let mut sorted: Vec<u64> = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = |q: f64| sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1] as f64;
        Self {
            samples: n,
            mean_us: sorted.iter().sum::<u64>() as f64 / n as f64,
            median_us: rank(0.5),
            p99_us: rank(0.99),
            max_us: sorted[n - 1] as f64,
        }
    }
}

/// Summarises the per-step decision latencies of a finished simulation
/// run — the series behind Figures 2(d)–5(d) and the Tables 2–3
/// "Execution time" rows, with tail percentiles the mean hides.
pub fn decision_latency(records: &[megh_sim::StepRecord]) -> LatencyStats {
    let micros: Vec<u64> = records.iter().map(|r| r.decision_micros).collect();
    LatencyStats::from_micros(&micros)
}

/// A [`GlobalAlloc`] wrapper around the system allocator that counts
/// every allocation, per thread. Install it in a test binary to assert
/// a code path never touches the heap:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: megh_core::diagnostics::CountingAllocator =
///     megh_core::diagnostics::CountingAllocator::system();
///
/// let before = ALLOC.allocations();
/// hot_path();
/// assert_eq!(ALLOC.allocations(), before);
/// ```
///
/// Every getter reports the *calling thread's* counts, so a measurement
/// sees only the code it brackets: allocations made concurrently by
/// other threads (sibling tests under a multi-threaded harness, for
/// instance) never leak into it. The counters are thread-locals shared
/// by all instances; a process has a single global allocator, so in
/// practice they belong to the installed one.
#[derive(Debug, Default)]
pub struct CountingAllocator {
    _private: (),
}

thread_local! {
    // Const-initialised and without destructors: touching them from
    // inside `alloc` never allocates and never re-enters the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Adds `by` to the calling thread's `counter`. A thread past its
/// thread-local teardown still allocates; those calls go uncounted.
fn bump(counter: &'static LocalKey<Cell<u64>>, by: u64) {
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(by)));
}

fn read(counter: &'static LocalKey<Cell<u64>>) -> u64 {
    counter.try_with(Cell::get).unwrap_or(0)
}

impl CountingAllocator {
    /// A counting wrapper over [`std::alloc::System`], usable in
    /// `static` position (`const fn`).
    pub const fn system() -> Self {
        Self { _private: () }
    }

    /// Heap acquisitions made by the calling thread so far (`alloc`,
    /// `alloc_zeroed`, and `realloc` each count one).
    pub fn allocations(&self) -> u64 {
        read(&ALLOCATIONS)
    }

    /// Frees made by the calling thread so far.
    pub fn deallocations(&self) -> u64 {
        read(&DEALLOCATIONS)
    }

    /// Total bytes the calling thread has requested across all
    /// acquisitions.
    pub fn bytes_allocated(&self) -> u64 {
        read(&BYTES_ALLOCATED)
    }
}

fn count_acquisition(bytes: usize) {
    bump(&ALLOCATIONS, 1);
    bump(&BYTES_ALLOCATED, bytes as u64);
}

// SAFETY: delegates every operation unchanged to `System`; the counters
// are mere observers and do not affect the returned memory. This is the
// workspace's sole unsafe allowlist entry (see DESIGN §10).
#[allow(unsafe_code)]
// lint: allow(unsafe_code)
unsafe impl GlobalAlloc for CountingAllocator {
    // lint: allow(unsafe_code)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_acquisition(layout.size());
        System.alloc(layout)
    }

    // lint: allow(unsafe_code)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCATIONS, 1);
        System.dealloc(ptr, layout)
    }

    // lint: allow(unsafe_code)
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_acquisition(layout.size());
        System.alloc_zeroed(layout)
    }

    // lint: allow(unsafe_code)
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_acquisition(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Result of convergence analysis on a per-step cost series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// First step from which the series is judged stable, if any.
    pub converged_at: Option<usize>,
    /// Mean of the series after the convergence point (whole series
    /// when no convergence was found).
    pub stable_mean: f64,
    /// Standard deviation after the convergence point.
    pub stable_std: f64,
}

/// Detects when a cost series settles.
///
/// The series is scanned with a rolling window of `window` steps; the
/// first window whose mean stays within `tolerance` (relative) of the
/// mean of *every* subsequent window marks convergence. This matches
/// the paper's reading of Figures 2(a)–5(a): after the convergence
/// point the per-step cost no longer drifts, only fluctuates.
///
/// Returns `converged_at = None` when the series never settles or is
/// shorter than two windows.
///
/// # Panics
///
/// Panics if `window == 0` or `tolerance < 0`.
///
/// # Examples
///
/// ```
/// use megh_core::diagnostics::detect_convergence;
///
/// // A series that decays then stabilises at 1.0.
/// let series: Vec<f64> = (0..200)
///     .map(|t| 1.0 + 4.0 * (-(t as f64) / 20.0).exp())
///     .collect();
/// let c = detect_convergence(&series, 20, 0.05);
/// assert!(c.converged_at.is_some());
/// assert!((c.stable_mean - 1.0).abs() < 0.2);
/// ```
pub fn detect_convergence(series: &[f64], window: usize, tolerance: f64) -> Convergence {
    assert!(window > 0, "window must be positive");
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    if series.len() < 2 * window {
        return Convergence {
            converged_at: None,
            stable_mean: mean(series),
            stable_std: std_dev(series),
        };
    }
    let window_means: Vec<f64> = series.windows(window).step_by(window).map(mean).collect();
    // Find the first window whose mean all later windows stay close to.
    let mut converged_window = None;
    'outer: for (i, &m) in window_means.iter().enumerate() {
        let scale = m.abs().max(1e-12);
        for &later in &window_means[i + 1..] {
            if (later - m).abs() / scale > tolerance {
                continue 'outer;
            }
        }
        // Require at least one later window to confirm stability.
        if i + 1 < window_means.len() {
            converged_window = Some(i);
        }
        break;
    }
    match converged_window {
        Some(i) => {
            let at = i * window;
            Convergence {
                converged_at: Some(at),
                stable_mean: mean(&series[at..]),
                stable_std: std_dev(&series[at..]),
            }
        }
        None => Convergence {
            converged_at: None,
            stable_mean: mean(series),
            stable_std: std_dev(series),
        },
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_converges_immediately() {
        let series = vec![2.0; 100];
        let c = detect_convergence(&series, 10, 0.05);
        assert_eq!(c.converged_at, Some(0));
        assert_eq!(c.stable_mean, 2.0);
        assert_eq!(c.stable_std, 0.0);
    }

    #[test]
    fn decaying_series_converges_after_transient() {
        let series: Vec<f64> = (0..300)
            .map(|t| 1.0 + 10.0 * (-(t as f64) / 15.0).exp())
            .collect();
        let c = detect_convergence(&series, 20, 0.05);
        let at = c.converged_at.expect("must converge");
        assert!(at >= 20, "transient must not count as stable");
        assert!(at <= 160, "converged too late: {at}");
    }

    #[test]
    fn drifting_series_never_converges() {
        let series: Vec<f64> = (0..300).map(|t| t as f64).collect();
        let c = detect_convergence(&series, 20, 0.05);
        assert_eq!(c.converged_at, None);
    }

    #[test]
    fn short_series_is_inconclusive() {
        let c = detect_convergence(&[1.0, 1.0, 1.0], 10, 0.05);
        assert_eq!(c.converged_at, None);
        assert_eq!(c.stable_mean, 1.0);
    }

    #[test]
    fn noise_within_tolerance_still_converges() {
        let series: Vec<f64> = (0..200)
            .map(|t| 5.0 + 0.1 * ((t * 7919) % 13) as f64 / 13.0)
            .collect();
        let c = detect_convergence(&series, 20, 0.05);
        assert!(c.converged_at.is_some());
        assert!(c.stable_std < 0.1);
    }

    #[test]
    fn late_spike_prevents_early_convergence_claim() {
        let mut series = vec![1.0; 240];
        for v in &mut series[140..160] {
            *v = 3.0;
        }
        let c = detect_convergence(&series, 20, 0.05);
        // The first stable-forever window starts right after the spike.
        assert_eq!(c.converged_at, Some(160));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_is_rejected() {
        detect_convergence(&[1.0], 0, 0.1);
    }

    #[test]
    fn latency_stats_on_empty_slice_are_zero() {
        let stats = LatencyStats::from_micros(&[]);
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.mean_us, 0.0);
        assert_eq!(stats.p99_us, 0.0);
    }

    #[test]
    fn latency_stats_summarise_correctly() {
        // 100 samples 1..=100 µs: clean quantiles.
        let samples: Vec<u64> = (1..=100).collect();
        let stats = LatencyStats::from_micros(&samples);
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.mean_us, 50.5);
        assert_eq!(stats.median_us, 50.0);
        assert_eq!(stats.p99_us, 99.0);
        assert_eq!(stats.max_us, 100.0);
    }

    #[test]
    fn latency_stats_are_order_invariant() {
        let a = LatencyStats::from_micros(&[5, 1, 9, 3]);
        let b = LatencyStats::from_micros(&[9, 5, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a.median_us, 3.0);
        assert_eq!(a.max_us, 9.0);
    }

    #[test]
    fn decision_latency_reads_simulation_records() {
        let records: Vec<megh_sim::StepRecord> = (0..10)
            .map(|step| megh_sim::StepRecord {
                step,
                energy_cost_usd: 0.0,
                sla_cost_usd: 0.0,
                total_cost_usd: 0.0,
                migrations: 0,
                cumulative_migrations: 0,
                active_hosts: 1,
                decision_micros: (step as u64 + 1) * 100,
                overloaded_hosts: 0,
            })
            .collect();
        let stats = decision_latency(&records);
        assert_eq!(stats.samples, 10);
        assert_eq!(stats.max_us, 1000.0);
        assert_eq!(stats.median_us, 500.0);
    }

    #[test]
    // Driving a GlobalAlloc by hand is unavoidably unsafe; this test is
    // part of the CountingAllocator allowlist entry (DESIGN §10).
    #[allow(unsafe_code)]
    fn counting_allocator_observes_a_heap_box() {
        // Not installed as the global allocator here — drive it
        // directly to check the bookkeeping.
        let counter = CountingAllocator::system();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let (allocs, frees, bytes) = (
            counter.allocations(),
            counter.deallocations(),
            counter.bytes_allocated(),
        );
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            counter.dealloc(p, layout);
        }
        assert_eq!(counter.allocations() - allocs, 1);
        assert_eq!(counter.deallocations() - frees, 1);
        assert_eq!(counter.bytes_allocated() - bytes, 64);
    }
}

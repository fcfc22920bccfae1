//! Megh: learn-as-you-go live migration of virtual machines.
//!
//! This facade crate re-exports the full reproduction of *"Learn-as-you-go
//! with Megh: Efficient Live Migration of Virtual Machines"* (Basu, Wang,
//! Hong, Chen, Bressan — ICDCS 2017):
//!
//! * [`sim`] — the discrete-time cloud data-center simulator (CloudSim
//!   substitute): power model, live-migration engine, energy and SLA cost
//!   accounting.
//! * [`trace`] — synthetic PlanetLab-like and Google-Cluster-like workload
//!   generators with trace statistics and CSV I/O.
//! * [`core`] — the Megh reinforcement-learning scheduler itself: sparse
//!   basis projection, LSPI with Sherman–Morrison updates, Boltzmann
//!   exploration.
//! * [`baselines`] — the comparators: the MMT heuristic family
//!   (THR/IQR/MAD/LR/LRR), MadVM, and tabular Q-learning.
//! * [`serve`] — the crash-safe decision daemon behind `megh serve`:
//!   lock-free immutable-snapshot reads, a single batching writer, and
//!   versioned checkpoints.
//! * [`linalg`] — the sparse linear-algebra substrate.
//!
//! # Quickstart
//!
//! ```
//! use megh::core::{MeghAgent, MeghConfig};
//! use megh::sim::{DataCenterConfig, Simulation};
//! use megh::trace::PlanetLabConfig;
//!
//! let trace = PlanetLabConfig::new(20, 42).generate_steps(50);
//! let dc = DataCenterConfig::paper_planetlab(10, 20);
//! let agent = MeghAgent::new(MeghConfig::paper_defaults(20, 10));
//! let outcome = Simulation::new(dc, trace).expect("valid setup").run(agent);
//! assert!(outcome.report().total_cost_usd > 0.0);
//! ```

// No unsafe code anywhere in this crate (also enforced by `cargo run -p lint`).
#![forbid(unsafe_code)]

pub use megh_baselines as baselines;
pub use megh_core as core;
pub use megh_linalg as linalg;
pub use megh_serve as serve;
pub use megh_sim as sim;
pub use megh_trace as trace;

/// The most common imports in one place.
///
/// # Examples
///
/// ```
/// use megh::prelude::*;
///
/// let trace = PlanetLabConfig::new(10, 1).generate_steps(20);
/// let config = DataCenterConfig::paper_planetlab(5, 10);
/// let agent = MeghAgent::new(MeghConfig::paper_defaults(10, 5));
/// let outcome = Simulation::new(config, trace).unwrap().run(agent);
/// assert_eq!(outcome.records().len(), 20);
/// ```
pub mod prelude {
    pub use megh_baselines::{MadVmConfig, MadVmScheduler, MmtFlavor, MmtScheduler};
    pub use megh_core::{MeghAgent, MeghConfig, PeriodicMeghAgent};
    pub use megh_sim::{
        DataCenterConfig, DataCenterView, HostOutage, InitialPlacement, MigrationRequest,
        NoOpScheduler, PmId, Scheduler, SimError, Simulation, SlavMetrics, SummaryReport, VmId,
    };
    pub use megh_trace::{DiurnalConfig, GoogleConfig, PlanetLabConfig, TraceStats, WorkloadTrace};
}

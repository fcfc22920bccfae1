//! Megh: the online reinforcement-learning live-migration scheduler
//! (§4–5 of the paper).
//!
//! Megh models live VM migration as an infinite-horizon discounted MDP
//! whose actions are pairs `(j, k)` — migrate VM `j` to host `k` — and
//! resolves the curse of dimensionality by projecting the combinatorial
//! state–action space onto a `d = N × M` dimensional space spanned by one
//! sparse basis vector `φ_{jk}` per action (Theorem 1). The cost-to-go is
//! approximated as `V(s) = θᵀ φ_{π(s)}`, learned with an LSPI-style
//! actor–critic where the inverse transition operator `B = T⁻¹` is
//! maintained incrementally with the Sherman–Morrison formula (Eq. 11) —
//! never re-inverted — and exploration follows a Boltzmann policy with
//! exponentially decaying temperature (Algorithm 2).
//!
//! The implementation realises §5.2's complexity management literally:
//! `B` is stored as `(1/δ)·I` plus a sparse dictionary-of-keys delta, so
//! memory starts at `O(d)` *implicit* entries with zero explicit storage
//! and grows only with the actions actually explored, and every per-step
//! update costs time proportional to the number of migrations, not to
//! `d`. The explicit non-zero count is exactly the "Q-table size" metric
//! of Figure 7.
//!
//! # Examples
//!
//! ```
//! use megh_core::{MeghAgent, MeghConfig};
//! use megh_sim::{DataCenterConfig, Simulation};
//! use megh_trace::PlanetLabConfig;
//!
//! let trace = PlanetLabConfig::new(12, 7).generate_steps(40);
//! let config = DataCenterConfig::paper_planetlab(6, 12);
//! let agent = MeghAgent::new(MeghConfig::paper_defaults(12, 6));
//! let outcome = Simulation::new(config, trace)?.run(agent);
//! assert_eq!(outcome.records().len(), 40);
//! # Ok::<(), megh_sim::SimError>(())
//! ```

// `deny`, not `forbid`: diagnostics::CountingAllocator is the one
// allowlisted `unsafe` in the workspace (a GlobalAlloc wrapper must be
// unsafe) and overrides this with `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

mod action;
mod agent;
mod checkpoint;
mod config;
pub mod diagnostics;
mod lspi;
mod periodic;
mod policy;

pub use action::{Action, ActionSpace};
pub use agent::{MeghAgent, MeghCheckpoint};
pub use checkpoint::{
    fnv1a64, from_versioned_json, load_checkpoint, save_checkpoint, to_versioned_json,
    CheckpointError, Config, Migration, SemVer, CHECKPOINT_VERSION,
};
pub use config::MeghConfig;
pub use lspi::SparseLspi;
pub use periodic::PeriodicMeghAgent;
pub use policy::BoltzmannPolicy;

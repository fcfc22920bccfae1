//! The Megh agent: Algorithm 1 wired to the simulator's scheduler trait.

// This module is on the Megh decision hot path: steady-state calls must
// not allocate. Enforced by `cargo run -p lint`.
// lint: deny_alloc

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use megh_sim::{DataCenterView, MigrationRequest, Scheduler, StepFeedback};

use crate::{ActionSpace, BoltzmannPolicy, MeghConfig, SparseLspi};

/// A serialisable snapshot of everything Megh has learned.
///
/// A long-running controller must survive restarts without forgetting
/// its cost model. The checkpoint carries the configuration, the LSPI
/// state (`B`, `z`, `θ`), the annealed temperature, and the step count;
/// the exploration RNG is *not* carried — restoration reseeds it, which
/// changes future exploration but none of the learned values.
///
/// # Examples
///
/// ```
/// use megh_core::{MeghAgent, MeghConfig};
///
/// let agent = MeghAgent::new(MeghConfig::paper_defaults(6, 3));
/// let json = serde_json::to_string(&agent.checkpoint()).unwrap();
/// let restored = MeghAgent::restore(serde_json::from_str(&json).unwrap(), 99);
/// assert_eq!(restored.qtable_nnz(), agent.qtable_nnz());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeghCheckpoint {
    /// The agent's configuration.
    pub config: MeghConfig,
    /// The learned LSPI state.
    pub lspi: SparseLspi,
    /// The current (decayed) Boltzmann temperature.
    pub temperature: f64,
    /// Steps acted on so far.
    pub steps: usize,
}

/// The online reinforcement-learning scheduler of §5.
///
/// Per observation step (one iteration of Algorithm 1):
///
/// 1. finish learning from the previous step: for the action `a_t` taken
///    last time and the observed per-stage cost `C_{t+1}` (Eq. 6), find
///    the current policy's greedy action `a' = π_t(s_{t+1})` and apply
///    the Sherman–Morrison update of `B` with `u = φ_{a_t}`,
///    `v = φ_{a_t} − γ·φ_{a'}` (Eq. 10–11), accumulate
///    `z ← z + φ_{a_t}·C_{t+1}` and refresh `θ = B·z` incrementally;
/// 2. decay the Boltzmann temperature and sample the next action(s) from
///    the softmax over `Q(a) = θ[a]` (Algorithm 2);
/// 3. emit a [`MigrationRequest`] for each sampled action that moves a
///    VM off its current host — actions targeting the current host are
///    the MDP's "stay put" decisions and request nothing.
///
/// There is no training phase: learning and acting interleave from the
/// first step ("learn-as-you-go").
///
/// # Examples
///
/// ```
/// use megh_core::{MeghAgent, MeghConfig};
///
/// let agent = MeghAgent::new(MeghConfig::paper_defaults(10, 4));
/// assert_eq!(agent.qtable_nnz(), 0); // nothing learned yet
/// ```
#[derive(Debug, Clone)]
pub struct MeghAgent {
    config: MeghConfig,
    space: ActionSpace,
    lspi: SparseLspi,
    policy: BoltzmannPolicy,
    rng: StdRng,
    pending: Vec<usize>,
    /// Per-VM "already decided this step" scratch, reused across steps
    /// so the decision loop allocates nothing in the steady state.
    vm_taken: Vec<bool>,
    last_cost: Option<f64>,
    steps: usize,
}

impl MeghAgent {
    /// Creates an agent for the configured data-center dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MeghConfig::validate`].
    pub fn new(config: MeghConfig) -> Self {
        if let Err(msg) = config.validate() {
            // Documented contract: construction with an invalid config is a
            // programming error, asserted by tests. lint: allow(panic)
            panic!("invalid Megh configuration: {msg}");
        }
        let space = ActionSpace::new(config.n_vms, config.n_hosts);
        let lspi = SparseLspi::new(space.dim(), config.delta, config.gamma);
        let policy = BoltzmannPolicy::new(config.temp0, config.epsilon);
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            space,
            lspi,
            policy,
            rng,
            // One-time construction; both grow once and are then reused.
            pending: Vec::new(),  // lint: allow(alloc)
            vm_taken: Vec::new(), // lint: allow(alloc)
            last_cost: None,
            steps: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &MeghConfig {
        &self.config
    }

    /// Explicit non-zeros in the learned operator — Figure 7's Q-table
    /// size metric.
    pub fn qtable_nnz(&self) -> usize {
        self.lspi.explicit_nnz()
    }

    /// Distinct actions currently carrying value.
    pub fn theta_nnz(&self) -> usize {
        self.lspi.theta_nnz()
    }

    /// Current Boltzmann temperature.
    pub fn temperature(&self) -> f64 {
        self.policy.temperature()
    }

    /// Steps the agent has acted on.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Read access to the underlying LSPI state (diagnostics, benches).
    pub fn lspi(&self) -> &SparseLspi {
        &self.lspi
    }

    /// Snapshots the learned state for persistence.
    pub fn checkpoint(&self) -> MeghCheckpoint {
        // Checkpointing is an explicit cold path (persistence, not decide).
        MeghCheckpoint {
            config: self.config.clone(), // lint: allow(alloc)
            lspi: self.lspi.clone(),     // lint: allow(alloc)
            temperature: self.policy.temperature(),
            steps: self.steps,
        }
    }

    /// Rebuilds an agent from a checkpoint, reseeding exploration.
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed configuration is invalid.
    pub fn restore(checkpoint: MeghCheckpoint, seed: u64) -> Self {
        if let Err(msg) = checkpoint.config.validate() {
            // Documented contract, asserted by tests. lint: allow(panic)
            panic!("invalid Megh configuration in checkpoint: {msg}");
        }
        let space = ActionSpace::new(checkpoint.config.n_vms, checkpoint.config.n_hosts);
        let policy =
            BoltzmannPolicy::with_temperature(checkpoint.temperature, checkpoint.config.epsilon);
        Self {
            space,
            lspi: checkpoint.lspi,
            policy,
            rng: StdRng::seed_from_u64(seed),
            // One-time construction on restore.
            pending: Vec::new(),  // lint: allow(alloc)
            vm_taken: Vec::new(), // lint: allow(alloc)
            last_cost: None,
            steps: checkpoint.steps,
            config: checkpoint.config,
        }
    }

    /// Learns from the stored `(a_t, C_{t+1})` pair, if any. Drains
    /// `pending` in place so its buffer is reused step after step.
    fn learn_pending(&mut self) {
        if let Some(cost) = self.last_cost.take() {
            for idx in 0..self.pending.len() {
                let a_prev = self.pending[idx];
                let a_next = self.policy.greedy(&self.lspi, &mut self.rng);
                self.lspi.update(a_prev, a_next, cost);
            }
        }
        self.pending.clear();
    }
}

impl Scheduler for MeghAgent {
    fn name(&self) -> &str {
        "Megh"
    }

    // lint: depth_budget(8)
    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        assert_eq!(
            (view.n_vms(), view.n_hosts()),
            (self.config.n_vms, self.config.n_hosts),
            "view dimensions do not match the Megh configuration"
        );
        if self.space.dim() == 0 {
            // An empty Vec never touches the heap.
            return Vec::new(); // lint: allow(alloc)
        }

        // Critic: fold last step's observed cost into B, z, θ.
        self.learn_pending();

        // Actor: anneal and sample.
        self.policy.decay();
        self.steps += 1;

        // Starts empty (no heap touch); pushes happen only on the rare
        // steps that actually migrate, bounded by actions_per_step.
        let mut requests = Vec::new(); // lint: allow(alloc)
        self.vm_taken.clear();
        self.vm_taken.resize(self.config.n_vms, false);
        for _ in 0..self.config.actions_per_step {
            let sampled = if self.config.mask_sleeping_targets {
                // §3.1: migrate only to PMs "with potential capacity" —
                // waking a sleeping host is justified only to relieve an
                // overloaded one.
                let space = self.space;
                self.policy.sample_masked(&self.lspi, &mut self.rng, |a| {
                    let action = space.decode(a);
                    let source = view.host_of(action.vm);
                    action.target == source
                        || !view.is_asleep(action.target)
                        || view.is_overloaded(source)
                })
            } else {
                self.policy.sample(&self.lspi, &mut self.rng)
            };
            let Some(a) = sampled else {
                break;
            };
            let action = self.space.decode(a);
            let vm_idx = action.vm.0;
            // Contract: decode() yields in-space actions, and vm_taken
            // is sized to the VM count at construction.
            debug_assert!(vm_idx < self.vm_taken.len());
            if self.vm_taken[vm_idx] {
                continue; // one decision per VM per step
            }
            self.vm_taken[vm_idx] = true;
            // `pending` was drained by `learn_pending`; it now collects
            // this step's actions for the next critic pass.
            self.pending.push(a);
            if view.host_of(action.vm) != action.target {
                requests.push(MigrationRequest::new(action.vm, action.target));
            }
        }
        requests
    }

    // lint: depth_budget(2)
    fn observe(&mut self, feedback: &StepFeedback) {
        self.last_cost = Some(feedback.total_cost_usd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::{DataCenterConfig, Simulation};
    use megh_trace::{PlanetLabConfig, WorkloadTrace};

    fn mini_sim(n_hosts: usize, n_vms: usize, steps: usize) -> Simulation {
        let trace = PlanetLabConfig::new(n_vms, 99).generate_steps(steps);
        Simulation::new(DataCenterConfig::paper_planetlab(n_hosts, n_vms), trace).unwrap()
    }

    #[test]
    fn runs_end_to_end_and_learns() {
        let sim = mini_sim(4, 8, 60);
        let mut agent = MeghAgent::new(MeghConfig::paper_defaults(8, 4));
        let outcome = sim.run(&mut agent);
        assert_eq!(outcome.records().len(), 60);
        assert!(agent.qtable_nnz() > 0, "agent never learned anything");
        assert!(agent.steps() == 60);
        assert!(agent.temperature() < 3.0);
    }

    #[test]
    fn is_deterministic_under_seed() {
        let sim = mini_sim(3, 6, 40);
        let a = sim.run(MeghAgent::new(MeghConfig::paper_defaults(6, 3)));
        let b = sim.run(MeghAgent::new(MeghConfig::paper_defaults(6, 3)));
        let costs_a: Vec<f64> = a.records().iter().map(|r| r.total_cost_usd).collect();
        let costs_b: Vec<f64> = b.records().iter().map(|r| r.total_cost_usd).collect();
        assert_eq!(costs_a, costs_b);
        assert_eq!(a.report().total_migrations, b.report().total_migrations);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let sim = mini_sim(3, 6, 40);
        let mut cfg_a = MeghConfig::paper_defaults(6, 3);
        cfg_a.seed = 1;
        let mut cfg_b = MeghConfig::paper_defaults(6, 3);
        cfg_b.seed = 2;
        let a = sim.run(MeghAgent::new(cfg_a));
        let b = sim.run(MeghAgent::new(cfg_b));
        assert_ne!(a.final_placement(), b.final_placement());
    }

    #[test]
    fn migration_rate_is_modest() {
        // Megh's hallmark (Tables 2–3): orders of magnitude fewer
        // migrations than one per VM per step.
        let steps = 100;
        let sim = mini_sim(5, 10, steps);
        let outcome = sim.run(MeghAgent::new(MeghConfig::paper_defaults(10, 5)));
        let migrations = outcome.report().total_migrations;
        assert!(
            migrations <= steps,
            "at most ~1 migration per step expected, got {migrations}"
        );
    }

    #[test]
    fn qtable_grows_roughly_linearly() {
        let sim = mini_sim(6, 12, 150);
        let mut agent = MeghAgent::new(MeghConfig::paper_defaults(12, 6));
        sim.run(&mut agent);
        let nnz = agent.qtable_nnz();
        // Each step adds O(1) entries; far below d² = 5184.
        assert!(nnz > 10, "nnz = {nnz}");
        assert!(nnz < 5184 / 2, "nnz = {nnz} — fill-in explosion");
    }

    #[test]
    fn empty_data_center_is_handled() {
        let trace = WorkloadTrace::from_rows(300, vec![]).unwrap();
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 0), trace).unwrap();
        let outcome = sim.run(MeghAgent::new(MeghConfig::paper_defaults(0, 2)));
        assert_eq!(outcome.report().total_migrations, 0);
    }

    #[test]
    #[should_panic(expected = "view dimensions")]
    fn dimension_mismatch_panics() {
        let sim = mini_sim(3, 6, 5);
        // Agent configured for the wrong shape.
        sim.run(MeghAgent::new(MeghConfig::paper_defaults(4, 3)));
    }

    #[test]
    #[should_panic(expected = "invalid Megh configuration")]
    fn invalid_config_panics() {
        let mut cfg = MeghConfig::paper_defaults(2, 2);
        cfg.gamma = 2.0;
        let _ = MeghAgent::new(cfg);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_learned_values() {
        let sim = mini_sim(4, 8, 80);
        let mut agent = MeghAgent::new(MeghConfig::paper_defaults(8, 4));
        sim.run(&mut agent);
        let json = serde_json::to_string(&agent.checkpoint()).unwrap();
        let restored = MeghAgent::restore(serde_json::from_str(&json).unwrap(), 5);
        assert_eq!(restored.qtable_nnz(), agent.qtable_nnz());
        assert_eq!(restored.theta_nnz(), agent.theta_nnz());
        assert_eq!(restored.steps(), agent.steps());
        assert!((restored.temperature() - agent.temperature()).abs() < 1e-12);
        for a in 0..agent.lspi().dim() {
            assert_eq!(restored.lspi().q(a), agent.lspi().q(a));
        }
        // The restored agent keeps working.
        let outcome = sim.run(restored);
        assert_eq!(outcome.records().len(), 80);
    }

    #[test]
    #[should_panic(expected = "invalid Megh configuration in checkpoint")]
    fn restore_rejects_corrupt_checkpoint() {
        let agent = MeghAgent::new(MeghConfig::paper_defaults(2, 2));
        let mut cp = agent.checkpoint();
        cp.config.gamma = 7.0;
        let _ = MeghAgent::restore(cp, 1);
    }

    #[test]
    fn actions_per_step_respects_one_decision_per_vm() {
        let sim = mini_sim(4, 4, 30);
        let mut cfg = MeghConfig::paper_defaults(4, 4);
        cfg.actions_per_step = 8;
        let outcome = sim.run(MeghAgent::new(cfg));
        // One decision per VM per step → at most 4 migrations × 30 steps.
        assert!(outcome.report().total_migrations <= 4 * 30);
    }
}

//! Simulated runs: Megh over a streamed PlanetLab trace through
//! `megh_sim::run_streamed`, untraced or wrapped in span recorders.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use megh_core::{MeghAgent, MeghConfig};
use megh_sim::{
    run_streamed, DataCenterConfig, DataCenterView, MigrationRequest, Scheduler, SimError,
    SimOptions, Simulation, StepFeedback,
};
use megh_trace::{PlanetLabConfig, TraceHeader, TraceSource};

use crate::spans::{SpanId, Spans};

/// Steps per simulated day (five-minute PlanetLab intervals).
pub const STEPS_PER_DAY: usize = 288;

/// Fleet size and horizon of one simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    pub hosts: usize,
    pub vms: usize,
    pub steps: usize,
}

/// What set-up hands to every run of a workload.
pub struct Setup {
    pub config: DataCenterConfig,
    pub trace: PlanetLabConfig,
    pub steps: usize,
}

/// Builds the data-center configuration, a fresh agent and the initial
/// placement; the returned duration is what a user waits before the
/// first step (the `setup_s` metric).
pub fn set_up(fleet: Fleet, seed: u64) -> Result<(Setup, MeghAgent, Duration), SimError> {
    let started = Instant::now();
    let config = DataCenterConfig::paper_planetlab(fleet.hosts, fleet.vms);
    let agent = MeghAgent::new(MeghConfig::paper_defaults(fleet.vms, fleet.hosts));
    let trace = PlanetLabConfig::new(fleet.vms, seed);
    // Initial placement is demand-aware: it needs the first trace column.
    let placed = Simulation::new(config, trace.source(1).materialize())?;
    let elapsed = started.elapsed();
    let setup = Setup {
        config: placed.config().clone(),
        trace,
        steps: fleet.steps,
    };
    Ok((setup, agent, elapsed))
}

/// The simulated outputs a run is checked on. They depend only on the
/// code and the seed, so every run of one commit and seed must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outputs {
    pub cost_usd: f64,
    pub migrations: usize,
    pub nnz: usize,
}

impl Outputs {
    /// Exact rendering (the cost with all its digits), used to compare
    /// runs bit for bit.
    pub fn render(&self) -> String {
        format!(
            "{{\"cost_usd\": {:?}, \"migrations\": {}, \"nnz\": {}}}",
            self.cost_usd, self.migrations, self.nnz
        )
    }
}

/// One simulated run.
pub struct SimRun {
    pub wall: Duration,
    /// The wall time split at every `fill_chunk` call: set-up of the
    /// run until the first chunk, then each chunk of steps with its
    /// fill. Repetitions of one trace do the same work in each segment.
    pub segment_ns: Vec<u64>,
    pub steps: usize,
    /// `StepRecord::decision_micros` of every step.
    pub decision_micros: Vec<u64>,
    /// Total cost of every step, reused as realistic observe costs.
    pub step_costs: Vec<f64>,
    pub outputs: Outputs,
    /// Step checks made and failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the agent over the whole trace. With `trace`, the source and
/// the scheduler are wrapped so every `fill_chunk`, `decide` and
/// `observe` call is a span under one `sim.run` span.
pub fn simulate(
    setup: &Setup,
    agent: &mut MeghAgent,
    trace: Option<&RefCell<SimTrace>>,
) -> Result<SimRun, SimError> {
    let mut marks = Vec::new();
    let source = Clocked {
        inner: setup.trace.source(setup.steps),
        marks: &mut marks,
    };
    let options = SimOptions::default();
    let started = Instant::now();
    let outcome = match trace {
        None => run_streamed(&setup.config, source, &mut *agent, options)?,
        Some(t) => {
            let root = t.borrow_mut().begin_run();
            let outcome = run_streamed(
                &setup.config,
                Traced {
                    inner: source,
                    trace: t,
                },
                Traced {
                    inner: &mut *agent,
                    trace: t,
                },
                options,
            );
            t.borrow_mut().spans.close(root);
            outcome?
        }
    };
    let ended = Instant::now();
    let wall = ended - started;
    let mut bounds = vec![started];
    bounds.extend(marks);
    bounds.push(ended);
    let segment_ns = bounds
        .windows(2)
        .map(|w| u64::try_from((w[1] - w[0]).as_nanos()).unwrap_or(u64::MAX))
        .collect();

    let records = outcome.records();
    let cap = setup.config.migration_cap();
    let bad_steps = records
        .iter()
        .filter(|r| {
            r.migrations > cap
                || !(r.energy_cost_usd.is_finite()
                    && r.sla_cost_usd.is_finite()
                    && r.total_cost_usd.is_finite())
        })
        .count() as u64;
    let outputs = Outputs {
        cost_usd: records.iter().map(|r| r.total_cost_usd).sum(),
        migrations: records.iter().map(|r| r.migrations).sum(),
        nnz: agent.qtable_nnz(),
    };
    let attempted = setup.steps as u64;
    // A short run or an agent that learned nothing fails every step.
    let failed = if records.len() != setup.steps || outputs.nnz == 0 {
        attempted
    } else {
        bad_steps
    };
    Ok(SimRun {
        wall,
        segment_ns,
        steps: setup.steps,
        decision_micros: records.iter().map(|r| r.decision_micros).collect(),
        step_costs: records.iter().map(|r| r.total_cost_usd).collect(),
        outputs,
        attempted,
        failed,
    })
}

/// A source that notes when each `fill_chunk` call starts: one clock
/// read per chunk of steps, so it costs the untraced run nothing.
struct Clocked<'a, T> {
    inner: T,
    marks: &'a mut Vec<Instant>,
}

impl<T: TraceSource> TraceSource for Clocked<'_, T> {
    fn header(&self) -> TraceHeader {
        self.inner.header()
    }

    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        self.marks.push(Instant::now());
        self.inner.fill_chunk(buf)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Span state shared by the traced source and scheduler of a run.
pub struct SimTrace {
    pub spans: Spans,
    root: Option<SpanId>,
    /// Roots of every traced run, in order.
    pub runs: Vec<SpanId>,
    /// The first decisions and observed costs, kept as realistic wire
    /// values for the `serve.wire.*` probe.
    pub decisions: Vec<(usize, usize)>,
    pub costs: Vec<f64>,
}

/// Wire values kept over all traced runs.
const KEEP_VALUES: usize = 1024;

impl SimTrace {
    pub fn new(origin: Instant) -> Self {
        Self {
            spans: Spans::new(origin),
            root: None,
            runs: Vec::new(),
            decisions: Vec::new(),
            costs: Vec::new(),
        }
    }

    fn begin_run(&mut self) -> SpanId {
        let root = self.spans.open("sim.run", None);
        self.root = Some(root);
        self.runs.push(root);
        root
    }

    fn open(&mut self, name: &'static str) -> SpanId {
        let root = self.root;
        self.spans.open(name, root)
    }
}

/// A layer wrapped so each call into it is recorded as a span.
struct Traced<'a, T> {
    inner: T,
    trace: &'a RefCell<SimTrace>,
}

impl<T: TraceSource> TraceSource for Traced<'_, T> {
    fn header(&self) -> TraceHeader {
        self.inner.header()
    }

    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        let span = self.trace.borrow_mut().open("trace.fill_chunk");
        let got = self.inner.fill_chunk(buf);
        self.trace.borrow_mut().spans.close(span);
        got
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl<S: Scheduler> Scheduler for Traced<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        let span = self.trace.borrow_mut().open("core.decide");
        let requests = self.inner.decide(view);
        let mut t = self.trace.borrow_mut();
        t.spans.close(span);
        for r in &requests {
            if t.decisions.len() < KEEP_VALUES {
                t.decisions.push((r.vm.0, r.target.0));
            }
        }
        requests
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        let span = self.trace.borrow_mut().open("core.observe");
        self.inner.observe(feedback);
        let mut t = self.trace.borrow_mut();
        t.spans.close(span);
        if t.costs.len() < KEEP_VALUES {
            t.costs.push(feedback.total_cost_usd);
        }
    }
}

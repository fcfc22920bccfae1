//! The two workloads, each as an untraced run (end-to-end metrics)
//! and a traced run (per-layer metrics).
//!
//! A run covers several traces generated from `--seed`. How fast Megh
//! decides depends on the values it has learned — the same number of
//! learned entries costs up to 1.6× more on one trace than on another —
//! so a run over a single trace would measure its seed as much as the
//! code. Every metric is a mean over the run's traces (or start states)
//! of what that trace's repetitions measured.
//!
//! Repetitions of one trace do identical work: the simulated outputs
//! are checked to agree bit for bit. The end-to-end times keep the
//! fastest repetition of each piece of that work — each chunk of steps,
//! each step's decide, each serve episode — rather than a median. On a
//! shared virtual machine the host's speed swings for seconds at a time
//! (a fixed compute loop on a 2-vCPU host took 193–353 ms within one
//! minute, with thread CPU time equal to wall time, so no stolen time
//! to subtract), and a median over a 30 s run keeps whichever phase the
//! run happened to fall in. A slower program is slower in every phase,
//! so the least time over identical repetitions still moves with the
//! code. `setup_s` stays a median over set-ups.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use megh_core::{save_checkpoint, MeghAgent};
use megh_serve::{Request, Response};

use crate::probe;
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::serve::{run_episode, Episode, Load, ScratchDir, Script};
use crate::sim::{self, Fleet, Outputs, SimRun, SimTrace, STEPS_PER_DAY};
use crate::spans::Spans;
use crate::stats::{grouped_quantile, least_each, median, quantile, quantile_sorted};

/// A simulated workload: a fleet and how many traces a run covers.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    pub fleet: Fleet,
    pub traces: usize,
}

/// The paper's PlanetLab fleet (§6.2): 800 hosts × 1052 VMs, so the
/// action space has d = 841,600 dimensions.
const PAPER_FLEET_WEEK: Fleet = Fleet {
    hosts: 800,
    vms: 1052,
    steps: 7 * STEPS_PER_DAY,
};

/// `sim_paper`: the paper's fleet for a simulated week. Engine
/// accounting and trace generation dominate and decide is small, so
/// engine and `trace` changes show here; sampler changes mostly do not.
pub const SIM_PAPER: SimWorkload = SimWorkload {
    fleet: PAPER_FLEET_WEEK,
    traces: 4,
};

/// `serve_paper`: the daemon on the paper's d = 841,600 action space,
/// where each `sync` publishes an O(d) clone + freeze, each
/// `checkpoint` saves the whole state and each decide samples real
/// learned values, so changes to publish, checkpointing or the sampler
/// show here. Its start states: Megh trained on the paper fleet for 18
/// simulated days — about 10⁴ learned non-zeros — and checkpointed with
/// `save_checkpoint`.
const SERVE_PAPER: SimWorkload = SimWorkload {
    fleet: Fleet {
        steps: 18 * STEPS_PER_DAY,
        ..PAPER_FLEET_WEEK
    },
    traces: 2,
};

/// `serve_paper` episode: a fixed amount of work, because a daemon's
/// state — and with it every cost — grows with what it has learned, so
/// a time-bounded episode would drift with machine speed. 32 syncs,
/// one checkpoint, and one decide per observe, as in the simulator's
/// step loop.
const SERVE_LOAD: Load = Load {
    observes: 2048,
    sync_every: 64,
    checkpoint_every: 2048,
    decides_per_sync: 64,
};

/// The serve-layer probe a simulated workload's traced run makes on its
/// end state.
const PROBE_LOAD: Load = Load {
    observes: 512,
    sync_every: 64,
    checkpoint_every: 512,
    decides_per_sync: 64,
};

/// Repetitions a run makes at least, however short `--seconds` is, so
/// every median has a middle.
const MIN_REPS: usize = 3;

/// Where a run finds the daemon binary and keeps its files.
pub struct Env {
    pub megh: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// The simulated outputs of each trace that ran, identical in every
    /// repetition.
    pub outputs: Vec<Option<Outputs>>,
    /// Repetitions whose simulated outputs differed from the first of
    /// their trace, and daemon decisions that differed from the same
    /// request's in another episode of their start state.
    pub mismatches: usize,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

/// The trace seeds of a run: SplitMix64 over `seed`.
fn trace_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Mean over traces of the median over each trace's repetitions.
fn across<T>(by_trace: &[Vec<T>], f: impl Fn(&T) -> f64) -> f64 {
    let per_trace: Vec<f64> = by_trace
        .iter()
        .filter(|reps| !reps.is_empty())
        .map(|reps| median(&reps.iter().map(&f).collect::<Vec<_>>()))
        .collect();
    per_trace.iter().sum::<f64>() / per_trace.len() as f64
}

/// Checks every repetition's outputs against the first on its trace.
struct Agreement {
    first: Vec<Option<Outputs>>,
    mismatches: usize,
}

impl Agreement {
    fn new(traces: usize) -> Self {
        Self {
            first: vec![None; traces],
            mismatches: 0,
        }
    }

    fn check(&mut self, trace: usize, outputs: Outputs) {
        match self.first[trace] {
            None => self.first[trace] = Some(outputs),
            Some(first) if first.render() != outputs.render() => self.mismatches += 1,
            Some(_) => {}
        }
    }

    fn outputs(&self) -> Vec<Option<Outputs>> {
        self.first.clone()
    }
}

fn step_us(run: &SimRun) -> f64 {
    secs(run.wall) * 1e6 / run.steps as f64
}

/// A trace's repetitions reduced to their fastest: the least time each
/// segment of the run and each step's decide took in any repetition.
struct Fastest {
    steps: usize,
    wall_us: f64,
    /// Sorted.
    decision_micros: Vec<u64>,
}

impl Fastest {
    fn of(reps: &[SimRun]) -> Self {
        let wall_ns: u64 = least_each(reps.iter().map(|r| r.segment_ns.as_slice()))
            .iter()
            .sum();
        let mut decision_micros = least_each(reps.iter().map(|r| r.decision_micros.as_slice()));
        decision_micros.sort_unstable();
        Self {
            steps: reps[0].steps,
            wall_us: wall_ns as f64 / 1e3,
            decision_micros,
        }
    }

    fn decide_quantile(&self, q: f64) -> f64 {
        grouped_quantile(&self.decision_micros, q)
    }
}

/// End-to-end metrics of untraced simulated runs, grouped by trace.
fn sim_end_to_end(setups: &[f64], runs: &[Vec<SimRun>], metrics: &mut Metrics) {
    let fastest: Vec<Fastest> = runs
        .iter()
        .filter(|reps| !reps.is_empty())
        .map(|reps| Fastest::of(reps))
        .collect();
    let mean = |f: fn(&Fastest) -> f64| fastest.iter().map(f).sum::<f64>() / fastest.len() as f64;
    metrics.push("setup_s", median(setups), "s");
    metrics.push("step_us", mean(|f| f.wall_us / f.steps as f64), "us");
    let p99 = mean(|f| f.decide_quantile(0.99));
    metrics.push("decide_p50_us", mean(|f| f.decide_quantile(0.5)), "us");
    metrics.push("decide_p99_us", p99, "us");
    // One caller deciding back to back. The engine truncates each time
    // to whole µs, so +0.5 µs restores the mean.
    metrics.push(
        "decides_per_s",
        mean(|f| {
            let total: f64 = f.decision_micros.iter().map(|&m| m as f64 + 0.5).sum();
            f.decision_micros.len() as f64 * 1e6 / total
        }),
        "1/s",
    );
    // Every step applies one observation.
    metrics.push(
        "observes_per_s",
        mean(|f| f.steps as f64 * 1e6 / f.wall_us),
        "1/s",
    );
    // In the simulator an observation is folded into B, z and θ by the
    // next decide, so it becomes visible to decisions when that decide
    // returns: the visibility delay is the decide latency.
    metrics.push("sync_p99_ms", p99 / 1e3, "ms");
    metrics.push("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MB");
}

/// A simulated workload, untraced: set-up plus a full run, cycling
/// over the run's traces until every trace ran and `--seconds` passed.
pub fn sim_untraced(env: &Env, w: SimWorkload) -> Result<Outcome, String> {
    let seeds = trace_seeds(env.seed, w.traces);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut runs: Vec<Vec<SimRun>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut tally = Tally::default();
    let mut agreement = Agreement::new(w.traces);
    let mut rep = 0;
    while rep < w.traces.max(MIN_REPS) || started.elapsed() < env.seconds {
        let t = rep % w.traces;
        let (setup, mut agent, took) = sim::set_up(w.fleet, seeds[t]).map_err(|e| e.to_string())?;
        setups.push(secs(took));
        let run = sim::simulate(&setup, &mut agent, None).map_err(|e| e.to_string())?;
        tally.add(run.attempted, run.failed);
        agreement.check(t, run.outputs);
        runs[t].push(run);
        rep += 1;
    }
    eprintln!("megh-perf: {rep} repetitions over {} traces", w.traces);
    let mut metrics = Metrics::default();
    sim_end_to_end(&setups, &runs, &mut metrics);
    Ok(Outcome {
        metrics,
        tally,
        outputs: agreement.outputs(),
        mismatches: agreement.mismatches,
        spans: None,
    })
}

/// Per-layer metrics of one traced simulated run.
struct SimLayers {
    fill_us_per_step: f64,
    fill_calls: f64,
    engine_self_us_per_step: f64,
    decide_p50_us: f64,
    decide_p99_us: f64,
    decide_p50_us_last_decile: f64,
    observe_busy_us: f64,
}

/// Derives a run's layer metrics from its spans below `root`.
fn sim_layers(spans: &Spans, self_ns: &[u64], root: usize, steps: usize) -> SimLayers {
    let us = |ns: u64| ns as f64 / 1e3;
    let fills: Vec<u64> = spans
        .children(root, "trace.fill_chunk")
        .map(|s| s.duration_ns())
        .collect();
    let decides: Vec<f64> = spans
        .children(root, "core.decide")
        .map(|s| us(s.duration_ns()))
        .collect();
    let observe: u64 = spans
        .children(root, "core.observe")
        .map(|s| s.duration_ns())
        .sum();
    let last_decile = &decides[decides.len() - decides.len() / 10..];
    SimLayers {
        fill_us_per_step: us(fills.iter().sum()) / steps as f64,
        fill_calls: fills.len() as f64,
        // What the engine spends outside the trace and the scheduler.
        engine_self_us_per_step: us(self_ns[root]) / steps as f64,
        decide_p50_us: quantile(&decides, 0.5),
        decide_p99_us: quantile(&decides, 0.99),
        decide_p50_us_last_decile: quantile(last_decile, 0.5),
        observe_busy_us: us(observe),
    }
}

fn push_sim_layers(layers: &[Vec<SimLayers>], metrics: &mut Metrics) {
    let m = |f: fn(&SimLayers) -> f64| across(layers, f);
    metrics.push(
        "trace.fill_chunk.us_per_step",
        m(|l| l.fill_us_per_step),
        "us",
    );
    metrics.push("trace.fill_chunk.calls", m(|l| l.fill_calls), "count");
    metrics.push(
        "sim.engine.self_us_per_step",
        m(|l| l.engine_self_us_per_step),
        "us",
    );
    metrics.push("core.decide.p50_us", m(|l| l.decide_p50_us), "us");
    metrics.push("core.decide.p99_us", m(|l| l.decide_p99_us), "us");
    metrics.push(
        "core.decide.p50_us.last_decile",
        m(|l| l.decide_p50_us_last_decile),
        "us",
    );
    metrics.push("core.observe.busy_us", m(|l| l.observe_busy_us), "us");
}

/// The layer metrics of every traced run, grouped by trace.
fn traced_layers(
    trace: &SimTrace,
    run_traces: &[usize],
    traces: usize,
    steps: usize,
) -> Vec<Vec<SimLayers>> {
    let self_ns = trace.spans.self_times_ns();
    let mut layers: Vec<Vec<SimLayers>> = (0..traces).map(|_| Vec::new()).collect();
    for (&root, &t) in trace.runs.iter().zip(run_traces) {
        layers[t].push(sim_layers(&trace.spans, &self_ns, root, steps));
    }
    layers
}

/// The run's own decisions and costs as daemon wire values.
fn sim_wire_values(trace: &SimTrace, agent: &MeghAgent) -> (Vec<Request>, Vec<Response>) {
    let hosts = agent.config().n_hosts;
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (i, &(vm, target)) in trace.decisions.iter().enumerate() {
        requests.push(Request::Decide { seed: i as u64 });
        responses.push(Response::Decision {
            action: vm * hosts + target,
            vm,
            target,
            steps: agent.steps(),
            temperature: agent.temperature(),
        });
    }
    for (i, &cost) in trace.costs.iter().enumerate() {
        requests.push(Request::Observe { action: i, cost });
        responses.push(Response::Queued { depth: i % 64 });
    }
    (requests, responses)
}

/// A start state the daemon can load: `agent`'s checkpoint on disk.
struct Start {
    dir: ScratchDir,
    n_vms: usize,
    n_hosts: usize,
    steps: usize,
}

impl Start {
    fn save(env: &Env, agent: &MeghAgent, index: usize) -> Result<Self, String> {
        let dir = ScratchDir::create(
            env.work
                .join(format!("start-{}-{index}", std::process::id())),
        )?;
        save_checkpoint(&dir.0.join("start.json"), &agent.checkpoint())
            .map_err(|e| e.to_string())?;
        let config = agent.config();
        Ok(Self {
            dir,
            n_vms: config.n_vms,
            n_hosts: config.n_hosts,
            steps: agent.steps(),
        })
    }

    fn episode(
        &self,
        env: &Env,
        script: &Script,
        load: Load,
        index: usize,
        trace: Option<&mut Spans>,
    ) -> Result<Episode, String> {
        let dir = ScratchDir::create(
            env.work
                .join(format!("daemon-{}-{index}", std::process::id())),
        )?;
        run_episode(
            &env.megh,
            dir,
            &self.dir.0.join("start.json"),
            (self.n_vms, self.n_hosts),
            self.steps,
            script,
            load,
            trace,
        )
    }
}

/// A simulated workload, traced: each trace runs untraced and then
/// traced, so `trace_overhead_frac` compares runs on the same input.
/// The core and serve layers are then probed on the last traced end
/// state.
pub fn sim_traced(env: &Env, w: SimWorkload) -> Result<Outcome, String> {
    let seeds = trace_seeds(env.seed, w.traces);
    let started = Instant::now();
    let trace = RefCell::new(SimTrace::new(started));
    let mut run_traces = Vec::new();
    let mut overheads = Vec::new();
    let mut tally = Tally::default();
    let mut agreement = Agreement::new(w.traces);
    let mut last_agent = None;
    let mut pair = 0;
    while pair < MIN_REPS || started.elapsed() < env.seconds {
        let t = pair % w.traces;
        let mut step_us_of = |traced: bool| -> Result<f64, String> {
            let (setup, mut agent, _) =
                sim::set_up(w.fleet, seeds[t]).map_err(|e| e.to_string())?;
            let run = sim::simulate(&setup, &mut agent, traced.then_some(&trace))
                .map_err(|e| e.to_string())?;
            tally.add(run.attempted, run.failed);
            agreement.check(t, run.outputs);
            if traced {
                last_agent = Some(agent);
            }
            Ok(step_us(&run))
        };
        let plain = step_us_of(false)?;
        overheads.push(step_us_of(true)? / plain - 1.0);
        run_traces.push(t);
        pair += 1;
    }
    let agent = last_agent.ok_or("no traced repetition ran")?;
    let seed = seeds[run_traces.last().copied().unwrap_or(0)];
    let mut trace = trace.into_inner();

    let mut metrics = Metrics::default();
    push_sim_layers(
        &traced_layers(&trace, &run_traces, w.traces, w.fleet.steps),
        &mut metrics,
    );
    tally.add(1, probe::core_layers(&agent, seed, &mut metrics));
    let (requests, responses) = sim_wire_values(&trace, &agent);
    tally.add(
        requests.len() as u64,
        probe::wire(&requests, &responses, &mut metrics),
    );

    let start = Start::save(env, &agent, 0)?;
    let script = Script::new(&agent, &trace.costs, PROBE_LOAD.observes, seed);
    let ep = start.episode(env, &script, PROBE_LOAD, 0, Some(&mut trace.spans))?;
    tally.add(ep.tally.attempted, ep.tally.failed);
    serve_layers(&[vec![ep]], &mut metrics);

    metrics.push("trace_overhead_frac", median(&overheads), "frac");
    Ok(Outcome {
        metrics,
        tally,
        outputs: agreement.outputs(),
        mismatches: agreement.mismatches,
        spans: Some(trace.spans),
    })
}

fn ns_quantile(samples: impl Iterator<Item = u64>, q: f64, scale: f64) -> f64 {
    let v: Vec<f64> = samples.map(|ns| ns as f64 * scale).collect();
    quantile(&v, q)
}

fn learner_us_per_observe(e: &Episode) -> f64 {
    e.learner_ns() as f64 / 1e3 / e.observes as f64
}

/// Decisions of `b` that differ from the same request's in `a`.
fn differing(a: &[Response], b: &[Response]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// A start state's episodes reduced to their fastest: the least time
/// each request took in any of them.
struct FastestEpisode {
    observes: usize,
    learner_ns: f64,
    /// Sorted.
    decide_ns: Vec<f64>,
    /// Sorted.
    sync_ns: Vec<f64>,
}

impl FastestEpisode {
    fn of(state: &[Episode]) -> Self {
        let least = |f: fn(&Episode) -> &[u64]| least_each(state.iter().map(f));
        let sorted = |mut v: Vec<u64>| -> Vec<f64> {
            v.sort_unstable();
            v.into_iter().map(|ns| ns as f64).collect()
        };
        let learner: u64 = [
            least(|e| &e.observe_ns),
            least(|e| &e.sync_ns),
            least(|e| &e.checkpoint_ns),
        ]
        .iter()
        .flatten()
        .sum();
        Self {
            observes: state[0].observes,
            learner_ns: learner as f64,
            decide_ns: sorted(least(|e| &e.decide_ns)),
            sync_ns: sorted(least(|e| &e.sync_ns)),
        }
    }
}

/// End-to-end metrics of untraced serve episodes, grouped by start
/// state.
fn serve_end_to_end(eps: &[Vec<Episode>], metrics: &mut Metrics) {
    let fastest: Vec<FastestEpisode> = eps
        .iter()
        .filter(|state| !state.is_empty())
        .map(|state| FastestEpisode::of(state))
        .collect();
    let mean = |f: &dyn Fn(&FastestEpisode) -> f64| {
        fastest.iter().map(f).sum::<f64>() / fastest.len() as f64
    };
    metrics.push("setup_s", across(eps, |e| secs(e.setup)), "s");
    // A learning step of the daemon is one applied observe, with its
    // share of the sync and checkpoint barriers.
    metrics.push(
        "step_us",
        mean(&|f| f.learner_ns / 1e3 / f.observes as f64),
        "us",
    );
    let decide = |q: f64| mean(&|f| quantile_sorted(&f.decide_ns, q) / 1e3);
    metrics.push("decide_p50_us", decide(0.5), "us");
    metrics.push("decide_p99_us", decide(0.99), "us");
    metrics.push(
        "decides_per_s",
        mean(&|f| f.decide_ns.len() as f64 * 1e9 / f.decide_ns.iter().sum::<f64>()),
        "1/s",
    );
    // Observes count as applied once a later sync acknowledged them,
    // and every episode ends with one.
    metrics.push(
        "observes_per_s",
        mean(&|f| f.observes as f64 * 1e9 / f.learner_ns),
        "1/s",
    );
    metrics.push(
        "sync_p99_ms",
        mean(&|f| quantile_sorted(&f.sync_ns, 0.99) / 1e6),
        "ms",
    );
    metrics.push("peak_rss_mb", across(eps, |e| e.rss_mb), "MB");
}

/// Per-layer daemon metrics of traced episodes, grouped by start state.
fn serve_layers(eps: &[Vec<Episode>], metrics: &mut Metrics) {
    let pooled = |f: fn(&Episode) -> &Vec<u64>, scale: f64| {
        ns_quantile(
            eps.iter().flatten().flat_map(|e| f(e).iter().copied()),
            0.5,
            scale,
        )
    };
    metrics.push("serve.sync.p50_ms", pooled(|e| &e.sync_ns, 1e-6), "ms");
    metrics.push(
        "serve.checkpoint.p50_ms",
        pooled(|e| &e.checkpoint_ns, 1e-6),
        "ms",
    );
    metrics.push(
        "serve.observe.p50_us",
        pooled(|e| &e.observe_ns, 1e-3),
        "us",
    );
    let depth = eps.iter().flatten().map(|e| e.queue_max).max().unwrap_or(0);
    metrics.push("serve.queue_depth.max", depth as f64, "count");
    metrics.push(
        "serve.published",
        across(eps, |e| e.published as f64),
        "count",
    );
    metrics.push(
        "serve.batch_mean",
        across(eps, |e| e.observes as f64 / e.published.max(1) as f64),
        "count",
    );
}

/// `serve_paper`. Set-up trains the start states (traced in the traced
/// run); then episodes cycle over them until every state served and
/// `--seconds` passed. In the traced run each untraced episode is
/// followed by a traced one on the same state, and the core layers are
/// probed on the last start state.
pub fn serve_paper(env: &Env, traced: bool) -> Result<Outcome, String> {
    let w = SERVE_PAPER;
    let seeds = trace_seeds(env.seed, w.traces);
    let sim_trace = RefCell::new(SimTrace::new(Instant::now()));
    let mut tally = Tally::default();
    let mut agreement = Agreement::new(w.traces);
    let mut states = Vec::new();
    for (t, &seed) in seeds.iter().enumerate() {
        let (setup, mut agent, _) = sim::set_up(w.fleet, seed).map_err(|e| e.to_string())?;
        let training = sim::simulate(&setup, &mut agent, traced.then_some(&sim_trace))
            .map_err(|e| e.to_string())?;
        tally.add(training.attempted, training.failed);
        agreement.check(t, training.outputs);
        let start = Start::save(env, &agent, t)?;
        let script = Script::new(&agent, &training.step_costs, SERVE_LOAD.observes, seed);
        states.push((start, script, agent));
    }
    let sim_trace = sim_trace.into_inner();
    let run_traces: Vec<usize> = (0..w.traces).collect();
    let layers = traced_layers(&sim_trace, &run_traces, w.traces, w.fleet.steps);
    let mut spans = sim_trace.spans;

    let started = Instant::now();
    let mut plain: Vec<Vec<Episode>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut with_spans: Vec<Vec<Episode>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut overheads = Vec::new();
    // Decisions that differ from the same request's in an earlier
    // episode of the state.
    let mut mismatches = 0;
    let mut round = 0;
    while round < w.traces.max(MIN_REPS) || started.elapsed() < env.seconds {
        let t = round % w.traces;
        let (start, script, _) = &states[t];
        let ep = start.episode(env, script, SERVE_LOAD, 2 * round, None)?;
        tally.add(ep.tally.attempted, ep.tally.failed);
        if let Some(first) = plain[t].first() {
            mismatches += differing(&first.decisions, &ep.decisions);
        }
        if traced {
            let ep_traced =
                start.episode(env, script, SERVE_LOAD, 2 * round + 1, Some(&mut spans))?;
            tally.add(ep_traced.tally.attempted, ep_traced.tally.failed);
            mismatches += differing(&ep.decisions, &ep_traced.decisions);
            overheads.push(learner_us_per_observe(&ep_traced) / learner_us_per_observe(&ep) - 1.0);
            with_spans[t].push(ep_traced);
        }
        plain[t].push(ep);
        round += 1;
    }

    eprintln!("megh-perf: {round} episodes over {} start states", w.traces);
    let mut metrics = Metrics::default();
    if traced {
        push_sim_layers(&layers, &mut metrics);
        let (_, _, agent) = states.last().ok_or("no start state")?;
        tally.add(1, probe::core_layers(agent, env.seed, &mut metrics));
        let sent = with_spans.iter().flatten();
        let requests: Vec<Request> = sent.clone().flat_map(|e| e.requests.clone()).collect();
        let responses: Vec<Response> = sent.flat_map(|e| e.responses.clone()).collect();
        tally.add(
            requests.len() as u64,
            probe::wire(&requests, &responses, &mut metrics),
        );
        serve_layers(&with_spans, &mut metrics);
        metrics.push("trace_overhead_frac", median(&overheads), "frac");
    } else {
        serve_end_to_end(&plain, &mut metrics);
    }
    Ok(Outcome {
        metrics,
        tally,
        outputs: agreement.outputs(),
        mismatches: agreement.mismatches + mismatches,
        spans: traced.then_some(spans),
    })
}

//! `megh-perf`: the Megh benchmark.
//!
//! ```text
//! bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (the reason for each is beside its definition in
//! `workloads.rs`):
//!
//! - `sim_paper` — `megh_sim::run_streamed` with Megh on the paper's
//!   800 × 1052 PlanetLab fleet for 7 simulated days;
//! - `serve_paper` — the `megh serve` binary, started from checkpoints
//!   trained on the paper fleet, under a closed-loop script of observes,
//!   barriers and decides on one connection.
//!
//! The inputs — traces, observe sequences, decide seeds — are generated
//! here from `--seed`; the program sees only them. With `--trace 0` the
//! run is untraced and reports the end-to-end metrics; with `--trace 1`
//! it times the calls into each layer (`trace`, `sim`, `core`, `serve`)
//! from this package, keeps the spans in memory, writes them out at the
//! end and reports the per-layer metrics.
//!
//! Every workload reports every end-to-end metric. Times are the least
//! over a run's repetitions of identical work (see `workloads.rs`):
//!
//! | metric                           | `sim_paper`                           | `serve_paper`                         |
//! |----------------------------------|---------------------------------------|---------------------------------------|
//! | `setup_s`                        | config + `MeghAgent::new` + placement | daemon spawn → first answered `stats` |
//! | `step_us`                        | wall µs per simulated step            | learner µs per applied observe        |
//! | `decide_p50_us`, `decide_p99_us` | `StepRecord::decision_micros`         | decide round trip                     |
//! | `decides_per_s`                  | 1 / mean decide time                  | 1 / mean decide round trip            |
//! | `observes_per_s`                 | simulated steps ÷ wall                | 1 / learner time per observe          |
//! | `sync_p99_ms`                    | decide p99: the next decide learns    | `sync` round trip                     |
//! | `peak_rss_mb`                    | VmHWM of this process                 | VmHWM of the daemon                   |
//!
//! Failed or wrong operations are the result's `failed` count against
//! `attempted`; no metric repeats them, since a metric must never be 0.
//!
//! Stdout carries a `machine:` record, the checked simulated
//! `outputs:`, and, last, one JSON result line.

mod probe;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{machine_record, result_line, source_fingerprint};
use sim::Outputs;
use workloads::{Env, Outcome};

/// Metrics a user of the simulator or daemon sees; `--trace 0`.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "step_us",
    "decide_p50_us",
    "decide_p99_us",
    "decides_per_s",
    "observes_per_s",
    "sync_p99_ms",
    "peak_rss_mb",
];

/// Metrics of single layers; `--trace 1`.
const PER_LAYER: [&str; 27] = [
    "trace.fill_chunk.us_per_step",
    "trace.fill_chunk.calls",
    "sim.engine.self_us_per_step",
    "core.decide.p50_us",
    "core.decide.p99_us",
    "core.decide.p50_us.last_decile",
    "core.observe.busy_us",
    "core.sample_us",
    "core.update_us",
    "core.new_ms",
    "core.clone_ms",
    "core.freeze_ms",
    "core.checkpoint.save_ms",
    "core.checkpoint.load_ms",
    "core.checkpoint.bytes",
    "core.qtable_nnz",
    "core.theta_nnz",
    "core.explored",
    "serve.sync.p50_ms",
    "serve.checkpoint.p50_ms",
    "serve.observe.p50_us",
    "serve.queue_depth.max",
    "serve.published",
    "serve.batch_mean",
    "serve.wire.encode_ns",
    "serve.wire.decode_ns",
    "trace_overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The build's target directory: this executable lives in
/// `<target>/release/`, next to the `megh` binary `run.sh` builds.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| "executable has no target directory".to_string())
}

/// Compares each trace's simulated outputs with those an earlier run of
/// the same source and seed recorded in `path` (traced or untraced),
/// and records the ones not seen yet. Returns the traces that differ.
fn check_against_earlier(path: &Path, source: &str, outputs: &[Option<Outputs>]) -> Vec<usize> {
    let earlier = fs::read_to_string(path).unwrap_or_default();
    let recorded: BTreeMap<usize, &str> = earlier
        .lines()
        .filter_map(|line| {
            let (trace, rendered) = line.strip_prefix(source)?.trim_start().split_once(' ')?;
            Some((trace.parse().ok()?, rendered))
        })
        .collect();
    let mut differ = Vec::new();
    let mut new_lines = String::new();
    for (trace, outputs) in outputs.iter().enumerate() {
        let Some(rendered) = outputs.map(|o| o.render()) else {
            continue;
        };
        match recorded.get(&trace) {
            Some(&seen) if seen != rendered => differ.push(trace),
            Some(_) => {}
            None => new_lines.push_str(&format!("{source} {trace} {rendered}\n")),
        }
    }
    let appended = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(new_lines.as_bytes()));
    if let Err(e) = appended {
        eprintln!(
            "megh-perf: cannot record outputs in {}: {e}",
            path.display()
        );
    }
    differ
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let target = target_dir()?;
    let work = target.join("perf");
    fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let megh = target.join("release").join("megh");
    if !megh.is_file() {
        return Err(format!("{} is missing; run perf/run.sh", megh.display()));
    }
    let env = Env {
        megh,
        work: work.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
    };

    let source = source_fingerprint(&root);
    println!("machine: {}", machine_record(&root, &source));
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("sim_paper", false) => workloads::sim_untraced(&env, workloads::SIM_PAPER)?,
        ("sim_paper", true) => workloads::sim_traced(&env, workloads::SIM_PAPER)?,
        ("serve_paper", traced) => workloads::serve_paper(&env, traced)?,
        (other, _) => return Err(format!("unknown workload {other}")),
    };

    let rendered: Vec<String> = outcome
        .outputs
        .iter()
        .enumerate()
        .filter_map(|(trace, o)| {
            o.map(|o| format!("{{\"trace\": {trace}, \"outputs\": {}}}", o.render()))
        })
        .collect();
    println!("outputs: [{}]", rendered.join(", "));
    let key = format!("{}-{}", args.workload, args.seed);
    let record = work.join(format!("outputs-{key}.txt"));
    let differ = check_against_earlier(&record, &source, &outcome.outputs);
    if !differ.is_empty() {
        eprintln!(
            "megh-perf: simulated outputs of traces {differ:?} differ from an earlier run's in {}",
            record.display()
        );
    }
    if outcome.mismatches > 0 {
        eprintln!(
            "megh-perf: {} repetitions or decisions disagreed with their first run",
            outcome.mismatches
        );
    }
    if let Some(spans) = &outcome.spans {
        let path = work.join(format!("spans-{key}.tsv"));
        fs::write(&path, spans.to_tsv()).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "megh-perf: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = outcome.metrics.select(wanted);
    let missing: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|name| !metrics.names().any(|n| n == *name))
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    let correct = outcome.tally.failed == 0 && outcome.mismatches == 0 && differ.is_empty();
    println!("{}", result_line(correct, outcome.tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("megh-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

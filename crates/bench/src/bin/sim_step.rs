//! `sim_step` — per-step wall-clock of the streaming simulation engine.
//!
//! Usage:
//!   cargo run --release -p megh-bench --bin sim_step \
//!       [--snapshot LABEL] [--out FILE] [--hosts N] [--vms N] \
//!       [--days N] [--reps N]
//!
//! Runs the same NoOp workload `--reps` times, records wall-clock
//! nanoseconds per simulated step for each repetition, and appends a
//! `{snapshot, results}` entry to `FILE` (default `BENCH_sim_step.json`,
//! repo root) in the series schema `bench-diff` reads; re-running with
//! an existing label replaces that snapshot.
//!
//! Every run's outcome fingerprint is asserted identical — the probe
//! doubles as a determinism check: repetitions may differ only in
//! wall-clock, never in the simulated bytes.
//!
//! Probe recorded: `sim/step_wall/1t` — ns per step.
//!
//! Like every latency probe these numbers are advisory in `bench-diff`;
//! only the snapshot shape is a gate.

use std::time::Instant;

use megh_bench::{BenchResult, BenchSnapshot};
use megh_flags::{EnvArgs, FlagSource as _};
use megh_linalg::{median, quantile};
use megh_sim::{DataCenterConfig, InitialPlacement, NoOpScheduler, Simulation};
use megh_trace::PlanetLabConfig;

fn probe(id: String, mut samples_ns: Vec<f64>) -> BenchResult {
    samples_ns.sort_by(f64::total_cmp);
    let n = samples_ns.len();
    BenchResult {
        id,
        mean_ns: samples_ns.iter().sum::<f64>() / n as f64,
        median_ns: median(&samples_ns),
        min_ns: samples_ns[0],
        max_ns: samples_ns[n - 1],
        samples: n,
        allocs: None,
        p99_ns: None,
        throughput_per_sec: None,
        p25_ns: Some(quantile(&samples_ns, 0.25)),
        p75_ns: Some(quantile(&samples_ns, 0.75)),
    }
}

fn main() {
    let args = EnvArgs::from_env();
    let out = args
        .value("out")
        .unwrap_or("BENCH_sim_step.json")
        .to_string();
    let label = args.value("snapshot").unwrap_or("PR8").to_string();
    let hosts = args.lenient_usize("hosts", 40);
    let vms = args.lenient_usize("vms", 80);
    let days = args.lenient_usize("days", 2);
    let reps = args.lenient_usize("reps", 5);

    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;
    let trace = PlanetLabConfig::new(vms, 42).generate(days);
    let steps = trace.n_steps();
    let sim = Simulation::new(config, trace).expect("valid setup");

    let mut samples_ns = Vec::with_capacity(reps);
    let mut fingerprint: Option<String> = None;
    for _ in 0..reps {
        let started = Instant::now();
        let outcome = sim.run(NoOpScheduler);
        samples_ns.push(started.elapsed().as_nanos() as f64 / steps as f64);
        let fp = outcome.fingerprint();
        match &fingerprint {
            None => fingerprint = Some(fp),
            Some(base) => assert_eq!(base, &fp, "outcome changed between repetitions"),
        }
    }
    println!(
        "sim_step [{label}]: median {:.0} ns/step \
         over {reps} rep(s) of {steps} steps ({hosts} hosts, {vms} VMs)",
        median(&samples_ns)
    );
    let results = vec![probe("sim/step_wall/1t".to_string(), samples_ns)];

    // Replace-or-append into the tracked series.
    let mut series: Vec<BenchSnapshot> = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    series.retain(|s| s.snapshot != label);
    series.push(BenchSnapshot {
        snapshot: label.clone(),
        results,
    });
    let json = serde_json::to_string_pretty(&series).expect("serialize series");
    std::fs::write(&out, json + "\n").expect("write series");
    println!("  series:    {out} ({} snapshot(s))", series.len());
}

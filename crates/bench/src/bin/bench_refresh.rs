//! `bench_refresh` — refresh a tracked bench series snapshot from
//! **fresh-process repetitions** of a Criterion-shim bench.
//!
//! Usage:
//!   cargo run --release -p megh-bench --bin bench_refresh -- \
//!       [--snapshot LABEL] [--bench decision_latency] [--group decide] \
//!       [--out BENCH_decision_latency.json] [--reps 5]
//!
//! A single bench process produces quartiles over its *own* iteration
//! samples — within-run spread, which understates how much a median
//! moves between invocations (CPU frequency state, page placement,
//! cache colouring are all fixed for the process lifetime). This tool
//! runs the bench `--reps` times, **each in a fresh process** (`cargo
//! bench` with a per-repetition `BENCH_JSON_DIR`), and aggregates
//! *between-run* statistics: each repetition contributes its per-probe
//! median, and the snapshot's `median_ns`/`p25_ns`/`p75_ns` are taken
//! over those repetition medians. `bench-diff`'s IQR-overlap rescue
//! then compares dispersion that actually includes run-to-run noise,
//! which is the regime a PR-over-PR diff operates in.
//!
//! The merged snapshot replaces any existing snapshot with the same
//! label in `--out` (or is appended), preserving the series schema
//! `bench-diff` reads.

use std::path::PathBuf;
use std::process::Command;

use megh_bench::{BenchResult, BenchSnapshot};
use megh_linalg::{median, quantile};

/// Aggregates one probe's repetition medians into a snapshot row.
/// Every latency field is a between-run statistic over the repetition
/// medians; `allocs` must be bit-reproducible, so any disagreement
/// across repetitions is reported as corrupt.
fn between_runs(id: &str, reps: &[&BenchResult]) -> Result<BenchResult, String> {
    let mut medians: Vec<f64> = reps.iter().map(|r| r.median_ns).collect();
    medians.sort_by(f64::total_cmp);
    let allocs = reps[0].allocs;
    if reps.iter().any(|r| r.allocs != allocs) {
        return Err(format!(
            "probe {id}: allocation counts differ across repetitions (must be deterministic): {:?}",
            reps.iter().map(|r| r.allocs).collect::<Vec<_>>()
        ));
    }
    Ok(BenchResult {
        id: id.to_string(),
        mean_ns: medians.iter().sum::<f64>() / medians.len() as f64,
        median_ns: median(&medians),
        min_ns: medians[0],
        max_ns: medians[medians.len() - 1],
        samples: reps.iter().map(|r| r.samples).sum(),
        allocs,
        p99_ns: None,
        throughput_per_sec: None,
        p25_ns: Some(quantile(&medians, 0.25)),
        p75_ns: Some(quantile(&medians, 0.75)),
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_refresh: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = "PR9".to_string();
    let mut bench = "decision_latency".to_string();
    let mut group = "decide".to_string();
    let mut out = "BENCH_decision_latency.json".to_string();
    let mut reps = 5usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match args[i].as_str() {
            "--snapshot" => label = value.unwrap_or(label),
            "--bench" => bench = value.unwrap_or(bench),
            "--group" => group = value.unwrap_or(group),
            "--out" => out = value.unwrap_or(out),
            "--reps" => reps = value.and_then(|v| v.parse().ok()).unwrap_or(reps),
            other => fail(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let reps = reps.max(2); // one run has no between-run spread

    let tmp = std::env::temp_dir().join(format!("megh-bench-refresh-{}", std::process::id()));
    let mut runs: Vec<Vec<BenchResult>> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let dir: PathBuf = tmp.join(format!("rep{rep}"));
        eprintln!(
            "bench_refresh: repetition {}/{reps} (fresh process)",
            rep + 1
        );
        let status = Command::new("cargo")
            .args(["bench", "-q", "-p", "megh-bench", "--bench", &bench])
            .env("BENCH_JSON_DIR", &dir)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => fail(&format!("repetition {rep}: cargo bench exited with {s}")),
            Err(e) => fail(&format!("repetition {rep}: cannot spawn cargo bench: {e}")),
        }
        let path = dir.join(format!("{group}.json"));
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            fail(&format!(
                "repetition {rep}: cannot read {}: {e}",
                path.display()
            ))
        });
        let results: Vec<BenchResult> = serde_json::from_str(&raw).unwrap_or_else(|e| {
            fail(&format!(
                "repetition {rep}: cannot parse {}: {e}",
                path.display()
            ))
        });
        runs.push(results);
    }
    std::fs::remove_dir_all(&tmp).ok();

    // Probe order of the first repetition; every repetition must cover
    // the same probe set (same binary, same bench body).
    let merged: Vec<BenchResult> = runs[0]
        .iter()
        .map(|first| {
            let reps: Vec<&BenchResult> = runs
                .iter()
                .filter_map(|run| run.iter().find(|r| r.id == first.id))
                .collect();
            if reps.len() != runs.len() {
                fail(&format!(
                    "probe {} present in {}/{} repetitions",
                    first.id,
                    reps.len(),
                    runs.len()
                ));
            }
            between_runs(&first.id, &reps).unwrap_or_else(|e| fail(&e))
        })
        .collect();

    let mut series: Vec<BenchSnapshot> = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    series.retain(|s| s.snapshot != label);
    series.push(BenchSnapshot {
        snapshot: label.clone(),
        results: merged,
    });
    let json = serde_json::to_string_pretty(&series).unwrap_or_else(|e| fail(&e.to_string()));
    if let Err(e) = std::fs::write(&out, json + "\n") {
        fail(&format!("cannot write {out}: {e}"));
    }

    let last = &series[series.len() - 1];
    println!("bench_refresh [{label}]: {reps} fresh-process repetitions -> {out}");
    for r in &last.results {
        let (p25, p75) = (r.p25_ns.unwrap_or(0.0), r.p75_ns.unwrap_or(0.0));
        println!(
            "  {:<24} median {:>10.1} ns   between-run IQR [{:.1} .. {:.1}]",
            r.id, r.median_ns, p25, p75
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(median_ns: f64, allocs: Option<u64>) -> BenchResult {
        BenchResult {
            id: "probe".into(),
            mean_ns: median_ns,
            median_ns,
            min_ns: median_ns - 1.0,
            max_ns: median_ns + 1.0,
            samples: 20,
            allocs,
            p99_ns: Some(median_ns + 0.5),
            throughput_per_sec: None,
            p25_ns: Some(median_ns - 0.5),
            p75_ns: Some(median_ns + 0.5),
        }
    }

    #[test]
    fn quartiles_come_from_repetition_medians_not_samples() {
        // Five fresh-process medians spread 100..140; the within-run
        // quartiles (±0.5 around each median) must not leak through.
        let reps: Vec<BenchResult> = [120.0, 100.0, 140.0, 110.0, 130.0]
            .iter()
            .map(|&m| rep(m, Some(3)))
            .collect();
        let refs: Vec<&BenchResult> = reps.iter().collect();
        let merged = between_runs("probe", &refs).unwrap();
        assert_eq!(merged.median_ns, 120.0);
        assert_eq!(merged.p25_ns, Some(110.0));
        assert_eq!(merged.p75_ns, Some(130.0));
        assert_eq!(merged.min_ns, 100.0);
        assert_eq!(merged.max_ns, 140.0);
        assert_eq!(merged.samples, 100, "sample count sums across runs");
        assert_eq!(merged.allocs, Some(3));
    }

    #[test]
    fn diverging_alloc_counts_are_rejected() {
        let a = rep(100.0, Some(3));
        let b = rep(101.0, Some(4));
        assert!(between_runs("probe", &[&a, &b]).is_err());
    }
}

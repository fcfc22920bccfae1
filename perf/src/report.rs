//! The benchmark's printed result, and the record of the machine and
//! source tree it was taken on.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::Command;

use megh_core::fnv1a64;

/// Named metrics with units, in the order they were taken.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Keeps only the named metrics, in the order of `names`.
    pub fn select(mut self, names: &[&str]) -> Metrics {
        let mut picked = Vec::with_capacity(names.len());
        for name in names {
            if let Some(i) = self.0.iter().position(|(n, _, _)| n == name) {
                picked.push(self.0.swap_remove(i));
            }
        }
        Metrics(picked)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }
}

/// Checks made and failed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that parses back to
        // the same f64, so no digit is lost.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every source file the measured program is built from,
/// in sorted path order: identifies the code when no git metadata is
/// present.
pub fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let skip = name.to_string_lossy().starts_with('.') || name == "target";
            if path.is_dir() && !skip {
                walk(&path, files);
            } else if !skip && path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor", "perf"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(
            file.strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.push(0);
        bytes.extend_from_slice(&fs::read(file).unwrap_or_default());
        bytes.push(0);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// `nproc`, CPU model, compiler, git commit and source fingerprint, as
/// one JSON object.
pub fn machine_record(root: &Path, source: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    // Only the checkout's own git metadata names its commit.
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_fnv\": {}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit),
        json_string(source)
    )
}

/// VmHWM (peak resident set) of process `pid` in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

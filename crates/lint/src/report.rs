//! The machine-readable lint artifact (`LINT_REPORT.json`) and the
//! `lint-diff` comparison against the committed snapshot.
//!
//! The report is committed per PR like `BENCH_decision_latency.json`:
//! per-rule violation counts, the per-function property table for every
//! hot-path (deny_alloc) function, and the allow-directive inventory
//! with liveness. Every field is a pure function of the source tree —
//! no timestamps, no wall-clock, sorted collections — so the bytes are
//! reproducible on any machine and diffable across PRs.
//!
//! `lint-diff` mirrors `bench-diff`: *fatal* when a function present in
//! both snapshots gains a property it did not have (a previously-clean
//! function regressed), *non-fatal notes* for count drift, new/removed
//! functions, and allow-inventory churn.

use serde::{Deserialize, Serialize};

/// One rule's violation count at HEAD (0 in a clean tree).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCount {
    /// Rule class name.
    pub rule: String,
    /// Violations found in the scan.
    pub violations: usize,
}

/// One hot-path function's property row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnEntry {
    /// Qualified display name (`Type::name` or `name`).
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based signature line.
    pub line: usize,
    /// Direct may-allocate fact (unallowed token in the body).
    pub direct_alloc: bool,
    /// Direct may-panic fact.
    pub direct_panic: bool,
    /// Direct nondeterminism fact.
    pub direct_nondet: bool,
    /// Transitive may-allocate (call-graph closure).
    pub transitive_alloc: bool,
    /// Transitive may-panic.
    pub transitive_panic: bool,
    /// Transitive nondeterminism taint.
    pub transitive_nondet: bool,
    /// Implicit panic sites enumerated by the interval engine (v4;
    /// `Option` so v3 snapshots still parse).
    pub implicit_panic_sites: Option<usize>,
    /// Of those, the count proven safe (v4, optional as above).
    pub implicit_panic_discharged: Option<usize>,
}

impl FnEntry {
    /// Property accessors in a fixed order, paired with their names —
    /// the diff walks these.
    fn properties(&self) -> [(&'static str, bool); 6] {
        [
            ("direct_alloc", self.direct_alloc),
            ("direct_panic", self.direct_panic),
            ("direct_nondet", self.direct_nondet),
            ("transitive_alloc", self.transitive_alloc),
            ("transitive_panic", self.transitive_panic),
            ("transitive_nondet", self.transitive_nondet),
        ]
    }
}

/// One edge of the acquisition-order digraph: while a guard on `from`
/// is held, `to` is (or may, through calls, be) acquired.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockOrderEdge {
    /// Lock held (last receiver-chain segment, e.g. `snapshot`).
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// Workspace-relative file of the inner acquisition or call.
    pub file: String,
    /// 1-based line of that site.
    pub line: usize,
    /// Function holding the outer guard.
    pub function: String,
}

/// The lock-order section: the full digraph plus detected cycles.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LockOrderSection {
    /// All order edges, (from, to) sorted.
    pub edges: Vec<LockOrderEdge>,
    /// Strongly-connected components of ≥2 locks (each sorted; empty in
    /// a deadlock-free tree).
    pub cycles: Vec<Vec<String>>,
}

/// One let-bound lock guard and how risky its live range is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardEntry {
    /// Function owning the guard.
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based acquisition line.
    pub line: usize,
    /// Full receiver chain of the lock (`self.shared.snapshot`).
    pub lock: String,
    /// 1-based line of the `}` closing the guard's block.
    pub held_to_line: usize,
    /// Blocking operations (direct or via calls) inside the live range.
    /// Non-zero entries exist only under an explicit vouch.
    pub risky_ops: usize,
}

/// One budgeted function's measured transitive call depth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthBudgetEntry {
    /// Qualified display name.
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based signature line (where `depth_budget(N)` sits inline).
    pub line: usize,
    /// The committed ceiling.
    pub budget: u64,
    /// Longest workspace call chain; `None` = reaches a recursive cycle.
    pub depth: Option<u64>,
}

/// Corpus-level implicit-panic totals over the hot-path files.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImplicitPanicSection {
    /// Sites enumerated across `HOT_PATH_FILES`.
    pub sites: usize,
    /// Sites the interval engine proved safe.
    pub discharged: usize,
    /// Undischarged sites silenced by `// lint: allow(implicit_panic)`.
    pub vouched: usize,
}

/// One `// lint: allow(...)` directive occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllowEntry {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based directive line.
    pub line: usize,
    /// Allowed rule name.
    pub name: String,
    /// Whether the directive still suppresses something real.
    pub live: bool,
}

/// Corpus-level totals.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReportStats {
    /// Files scanned.
    pub files: usize,
    /// Non-test functions parsed.
    pub functions: usize,
    /// Resolved intra-workspace call edges.
    pub call_edges: usize,
    /// Functions in deny_alloc (hot-path) files — the property table.
    pub hot_functions: usize,
}

/// The committed per-PR lint artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// Schema version for forward compatibility.
    pub schema: usize,
    /// Per-rule violation counts, fixed rule order.
    pub rules: Vec<RuleCount>,
    /// Property table for hot-path functions, (file, line) order.
    pub functions: Vec<FnEntry>,
    /// Allow-directive inventory, (file, line, name) order.
    pub allows: Vec<AllowEntry>,
    /// Acquisition-order digraph and cycles. `Option` so pre-v3
    /// snapshots (where the key is absent) still parse — the vendored
    /// serde shim maps missing keys to `None`.
    pub lock_order: Option<LockOrderSection>,
    /// Let-bound guard inventory, (file, line) order (v3, optional as
    /// above).
    pub guards: Option<Vec<GuardEntry>>,
    /// Depth-budget table, (file, line) order (v3, optional as above).
    pub depth_budgets: Option<Vec<DepthBudgetEntry>>,
    /// Hot-path implicit-panic totals (v4, optional as above).
    pub implicit_panic: Option<ImplicitPanicSection>,
    /// Corpus totals.
    pub stats: ReportStats,
}

/// Current schema version: 4, matching the analyzer generation that
/// added the interval dataflow engine (implicit-panic discharge counts
/// per hot function plus the corpus totals section); v3 added the
/// lock-order, guard, and depth-budget sections, and the original
/// call-graph property table shipped as schema 1.
pub const SCHEMA_VERSION: usize = 4;

/// File name of the committed snapshot at the workspace root.
pub const REPORT_FILE: &str = "LINT_REPORT.json";

/// A diff between the committed snapshot and the current scan.
#[derive(Debug, Clone, Default)]
pub struct ReportDiff {
    /// Regressions that must fail CI (`error:` lines).
    pub fatal: Vec<String>,
    /// Non-fatal drift (`note:` lines).
    pub notes: Vec<String>,
}

impl ReportDiff {
    /// True when nothing moved at all.
    pub fn is_clean(&self) -> bool {
        self.fatal.is_empty() && self.notes.is_empty()
    }
}

/// Compares the committed snapshot (`prev`) against the current scan
/// (`cur`).
///
/// Fatal: a function present in both whose any property flipped
/// `false -> true` (a previously-clean function gained a violating
/// property), and any increase in a rule's violation count above zero.
/// Notes: everything else that moved — recovered properties, function
/// table churn, allow-inventory churn, stats drift.
pub fn diff_reports(prev: &LintReport, cur: &LintReport) -> ReportDiff {
    let mut diff = ReportDiff::default();

    for rule in &cur.rules {
        let before = prev
            .rules
            .iter()
            .find(|r| r.rule == rule.rule)
            .map_or(0, |r| r.violations);
        if rule.violations > before {
            diff.fatal.push(format!(
                "rule `{}` went from {} to {} violation(s)",
                rule.rule, before, rule.violations
            ));
        } else if rule.violations < before {
            diff.notes.push(format!(
                "rule `{}` dropped from {} to {} violation(s)",
                rule.rule, before, rule.violations
            ));
        }
    }

    // Function rows are paired by (file, qualified name, occurrence
    // ordinal): a trait-impl wrapper and an inherent method can share a
    // qualified name within one file (`Matrix::order` from both an
    // inherent impl and a trait impl),
    // and rows are (file, line)-sorted, so the k-th occurrence on each
    // side is the same function even as line numbers drift.
    let nth_match = |list: &[FnEntry], entry: &FnEntry, n: usize| -> Option<usize> {
        list.iter()
            .enumerate()
            .filter(|(_, f)| f.function == entry.function && f.file == entry.file)
            .map(|(i, _)| i)
            .nth(n)
    };
    let mut seen: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
    for entry in &cur.functions {
        let ordinal = seen
            .entry((entry.file.as_str(), entry.function.as_str()))
            .or_insert(0);
        let before = nth_match(&prev.functions, entry, *ordinal).map(|i| &prev.functions[i]);
        *ordinal += 1;
        match before {
            None => diff
                .notes
                .push(format!("new hot-path function `{}`", entry.function)),
            Some(before) => {
                for ((name, now), (_, was)) in
                    entry.properties().iter().zip(before.properties().iter())
                {
                    if *now && !*was {
                        diff.fatal.push(format!(
                            "`{}` gained {} (was clean in the committed snapshot)",
                            entry.function, name
                        ));
                    } else if !*now && *was {
                        diff.notes
                            .push(format!("`{}` lost {}", entry.function, name));
                    }
                }
                // Interval-engine regression gates: a site leaving the
                // "proven safe" bucket (discharged → vouched) is as
                // fatal as a gained property.
                if let (Some(ps), Some(pd), Some(cs), Some(cd)) = (
                    before.implicit_panic_sites,
                    before.implicit_panic_discharged,
                    entry.implicit_panic_sites,
                    entry.implicit_panic_discharged,
                ) {
                    let was_open = ps.saturating_sub(pd);
                    let now_open = cs.saturating_sub(cd);
                    if now_open > was_open {
                        diff.fatal.push(format!(
                            "`{}` undischarged implicit-panic sites grew from {} to {}",
                            entry.function, was_open, now_open
                        ));
                    } else if now_open < was_open {
                        diff.notes.push(format!(
                            "`{}` undischarged implicit-panic sites dropped from {} to {}",
                            entry.function, was_open, now_open
                        ));
                    }
                    if cd < pd && cs >= ps {
                        diff.fatal.push(format!(
                            "`{}` implicit-panic discharges fell from {} to {} (discharged → vouched regression)",
                            entry.function, pd, cd
                        ));
                    }
                }
            }
        }
    }
    let mut seen_prev: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
    for before in &prev.functions {
        let ordinal = seen_prev
            .entry((before.file.as_str(), before.function.as_str()))
            .or_insert(0);
        if nth_match(&cur.functions, before, *ordinal).is_none() {
            diff.notes.push(format!(
                "hot-path function `{}` no longer present",
                before.function
            ));
        }
        *ordinal += 1;
    }

    let key = |a: &AllowEntry| (a.file.clone(), a.line, a.name.clone());
    for allow in &cur.allows {
        match prev.allows.iter().find(|a| key(a) == key(allow)) {
            None => diff.notes.push(format!(
                "new allow({}) at {}:{}",
                allow.name, allow.file, allow.line
            )),
            Some(before) if before.live != allow.live => diff.notes.push(format!(
                "allow({}) at {}:{} went {}",
                allow.name,
                allow.file,
                allow.line,
                if allow.live { "live" } else { "dead" }
            )),
            Some(_) => {}
        }
    }
    let removed = prev
        .allows
        .iter()
        .filter(|a| !cur.allows.iter().any(|b| key(b) == key(a)))
        .count();
    if removed > 0 {
        diff.notes
            .push(format!("{removed} allow directive(s) removed"));
    }

    // Guard section: a guard's live range getting riskier is a
    // regression of the same kind as a gained property.
    let cur_guards = cur.guards.as_deref().unwrap_or(&[]);
    let prev_guards = prev.guards.as_deref().unwrap_or(&[]);
    let gkey = |g: &GuardEntry| (g.file.clone(), g.function.clone(), g.lock.clone());
    for guard in cur_guards {
        match prev_guards.iter().find(|g| gkey(g) == gkey(guard)) {
            None => {
                if guard.risky_ops > 0 {
                    diff.notes.push(format!(
                        "new guard on `{}` in `{}` holds across {} blocking op(s) (vouched)",
                        guard.lock, guard.function, guard.risky_ops
                    ));
                }
            }
            Some(before) if guard.risky_ops > before.risky_ops => diff.fatal.push(format!(
                "guard on `{}` in `{}` now spans {} blocking op(s) (was {})",
                guard.lock, guard.function, guard.risky_ops, before.risky_ops
            )),
            Some(before) if guard.risky_ops < before.risky_ops => diff.notes.push(format!(
                "guard on `{}` in `{}` dropped to {} blocking op(s) (was {})",
                guard.lock, guard.function, guard.risky_ops, before.risky_ops
            )),
            Some(_) => {}
        }
    }

    // Lock-order section: a cycle that was not in the committed
    // snapshot is a potential deadlock — fatal. Edge churn is a note.
    let default_lo = LockOrderSection::default();
    let cur_lo = cur.lock_order.as_ref().unwrap_or(&default_lo);
    let prev_lo = prev.lock_order.as_ref().unwrap_or(&default_lo);
    for cycle in &cur_lo.cycles {
        if !prev_lo.cycles.contains(cycle) {
            diff.fatal.push(format!(
                "new lock-order cycle among {{{}}}",
                cycle.join(", ")
            ));
        }
    }
    let ekey = |e: &LockOrderEdge| (e.from.clone(), e.to.clone());
    let added_edges = cur_lo
        .edges
        .iter()
        .filter(|e| !prev_lo.edges.iter().any(|p| ekey(p) == ekey(e)))
        .count();
    let removed_edges = prev_lo
        .edges
        .iter()
        .filter(|e| !cur_lo.edges.iter().any(|p| ekey(p) == ekey(e)))
        .count();
    if added_edges > 0 || removed_edges > 0 {
        diff.notes.push(format!(
            "lock-order edges: {added_edges} added, {removed_edges} removed"
        ));
    }

    // Depth budgets: growth eats committed headroom silently — fatal
    // until the snapshot is regenerated deliberately.
    let cur_depths = cur.depth_budgets.as_deref().unwrap_or(&[]);
    let prev_depths = prev.depth_budgets.as_deref().unwrap_or(&[]);
    let dkey = |d: &DepthBudgetEntry| (d.file.clone(), d.function.clone());
    for entry in cur_depths {
        match prev_depths.iter().find(|d| dkey(d) == dkey(entry)) {
            None => diff.notes.push(format!(
                "new depth budget on `{}` ({} with depth {})",
                entry.function,
                entry.budget,
                match entry.depth {
                    Some(d) => d.to_string(),
                    None => "unbounded".to_string(),
                }
            )),
            Some(before) => match (before.depth, entry.depth) {
                (Some(_), None) => diff.fatal.push(format!(
                    "`{}` call depth became unbounded (reaches a recursive cycle)",
                    entry.function
                )),
                (Some(was), Some(now)) if now > was => diff.fatal.push(format!(
                    "`{}` call depth grew from {} to {} (budget {})",
                    entry.function, was, now, entry.budget
                )),
                (Some(was), Some(now)) if now < was => diff.notes.push(format!(
                    "`{}` call depth dropped from {} to {}",
                    entry.function, was, now
                )),
                _ => {
                    if before.budget != entry.budget {
                        diff.notes.push(format!(
                            "`{}` budget changed from {} to {}",
                            entry.function, before.budget, entry.budget
                        ));
                    }
                }
            },
        }
    }
    for before in prev_depths {
        if !cur_depths.iter().any(|d| dkey(d) == dkey(before)) {
            diff.notes
                .push(format!("depth budget on `{}` removed", before.function));
        }
    }

    // Corpus implicit-panic totals: losing proofs or leaning harder on
    // vouches is a regression of the v4 contract.
    if let (Some(p), Some(c)) = (&prev.implicit_panic, &cur.implicit_panic) {
        if c.discharged < p.discharged && c.sites >= p.sites {
            diff.fatal.push(format!(
                "hot-path implicit-panic discharges fell from {} to {}",
                p.discharged, c.discharged
            ));
        }
        if c.vouched > p.vouched {
            diff.fatal.push(format!(
                "hot-path implicit-panic vouches grew from {} to {} (prove, don't vouch)",
                p.vouched, c.vouched
            ));
        }
        if p != c && diff.fatal.is_empty() {
            diff.notes.push(format!(
                "implicit-panic totals: sites {} -> {}, discharged {} -> {}, vouched {} -> {}",
                p.sites, c.sites, p.discharged, c.discharged, p.vouched, c.vouched
            ));
        }
    }

    if prev.stats != cur.stats {
        diff.notes.push(format!(
            "stats: files {} -> {}, functions {} -> {}, call edges {} -> {}, hot functions {} -> {}",
            prev.stats.files,
            cur.stats.files,
            prev.stats.functions,
            cur.stats.functions,
            prev.stats.call_edges,
            cur.stats.call_edges,
            prev.stats.hot_functions,
            cur.stats.hot_functions
        ));
    }

    diff
}

/// Renders a diff in the `bench-diff` style: one `error:` line per
/// fatal regression (the greppable part), `note:` lines for drift.
pub fn render_diff(diff: &ReportDiff) -> String {
    let mut out = String::new();
    if diff.is_clean() {
        out.push_str("lint-diff: no movement against the committed snapshot\n");
        return out;
    }
    for line in &diff.fatal {
        out.push_str(&format!("error: {line}\n"));
    }
    for line in &diff.notes {
        out.push_str(&format!("note: {line}\n"));
    }
    out.push_str(&format!(
        "lint-diff: {} fatal, {} note(s)\n",
        diff.fatal.len(),
        diff.notes.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, transitive_alloc: bool) -> FnEntry {
        FnEntry {
            function: name.to_string(),
            file: "crates/core/src/agent.rs".to_string(),
            line: 10,
            direct_alloc: false,
            direct_panic: false,
            direct_nondet: false,
            transitive_alloc,
            transitive_panic: false,
            transitive_nondet: false,
            implicit_panic_sites: None,
            implicit_panic_discharged: None,
        }
    }

    fn report(functions: Vec<FnEntry>) -> LintReport {
        LintReport {
            schema: SCHEMA_VERSION,
            rules: vec![RuleCount {
                rule: "alloc".to_string(),
                violations: 0,
            }],
            functions,
            allows: Vec::new(),
            lock_order: Some(LockOrderSection::default()),
            guards: Some(Vec::new()),
            depth_budgets: Some(Vec::new()),
            implicit_panic: Some(ImplicitPanicSection::default()),
            stats: ReportStats::default(),
        }
    }

    #[test]
    fn gained_property_is_fatal() {
        let prev = report(vec![entry("MeghAgent::decide", false)]);
        let cur = report(vec![entry("MeghAgent::decide", true)]);
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.fatal.len(), 1, "{diff:?}");
        assert!(diff.fatal[0].contains("transitive_alloc"), "{diff:?}");
        assert!(render_diff(&diff).contains("error:"));
    }

    #[test]
    fn lost_property_and_churn_are_notes() {
        let prev = report(vec![entry("a", true), entry("gone", false)]);
        let cur = report(vec![entry("a", false), entry("fresh", false)]);
        let diff = diff_reports(&prev, &cur);
        assert!(diff.fatal.is_empty(), "{diff:?}");
        assert_eq!(diff.notes.len(), 3, "{diff:?}");
    }

    #[test]
    fn count_increase_is_fatal_decrease_is_note() {
        let mut prev = report(Vec::new());
        let mut cur = report(Vec::new());
        prev.rules[0].violations = 1;
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.notes.len(), 1);
        prev.rules[0].violations = 0;
        cur.rules[0].violations = 2;
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.fatal.len(), 1);
    }

    #[test]
    fn discharged_to_vouched_regression_is_fatal() {
        let mut prev = report(Vec::new());
        let mut cur = report(Vec::new());
        prev.implicit_panic = Some(ImplicitPanicSection {
            sites: 10,
            discharged: 8,
            vouched: 2,
        });
        cur.implicit_panic = Some(ImplicitPanicSection {
            sites: 10,
            discharged: 7,
            vouched: 3,
        });
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.fatal.len(), 2, "{diff:?}");

        let mut p = entry("f", false);
        p.implicit_panic_sites = Some(4);
        p.implicit_panic_discharged = Some(4);
        let mut c = p.clone();
        c.implicit_panic_discharged = Some(3);
        let diff = diff_reports(&report(vec![p]), &report(vec![c]));
        assert_eq!(diff.fatal.len(), 2, "{diff:?}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![entry("x", true)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report(vec![entry("x", false)]);
        let diff = diff_reports(&r, &r.clone());
        assert!(diff.is_clean());
        assert!(render_diff(&diff).contains("no movement"));
    }
}

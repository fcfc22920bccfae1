//! Self-tests: every rule class must fire on a seeded violation and stay
//! quiet on annotated/exempt code, and the workspace at HEAD must be clean.

use lint::{analyze_sources, scan_source, scan_workspace, Violation};

fn rules(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn alloc_rule_fires_in_deny_alloc_modules() {
    let src = "\
// lint: deny_alloc
fn hot() {
    let v = Vec::new();
    let w = vec![0.0; 4];
    let s = format!(\"x\");
}
";
    let found = scan_source("crates/core/src/seeded.rs", src);
    let alloc: Vec<_> = found.iter().filter(|v| v.rule == "alloc").collect();
    assert_eq!(alloc.len(), 3, "expected 3 alloc hits, got {found:?}");
    assert_eq!(alloc[0].line, 3);
}

#[test]
fn alloc_rule_silent_without_marker_and_with_escape() {
    let unmarked = "fn cold() { let v = Vec::new(); }\n";
    assert!(scan_source("crates/core/src/seeded.rs", unmarked)
        .iter()
        .all(|v| v.rule != "alloc"));

    let escaped = "\
// lint: deny_alloc
fn ctor() {
    // one-time construction, not on the decide path
    // lint: allow(alloc)
    let v = Vec::new();
    let w = vec![0.0; 4]; // lint: allow(alloc)
}
";
    assert!(
        scan_source("crates/core/src/seeded.rs", escaped)
            .iter()
            .all(|v| v.rule != "alloc"),
        "escape hatches must silence the rule"
    );
}

#[test]
fn nondet_rule_fires_in_decision_path_crates_only() {
    let src = "\
use std::collections::HashSet;
fn decide() {
    let t = std::time::Instant::now();
}
";
    let in_scope = scan_source("crates/baselines/src/seeded.rs", src);
    assert!(rules(&in_scope).contains(&"nondet"), "{in_scope:?}");
    assert_eq!(
        in_scope.iter().filter(|v| v.rule == "nondet").count(),
        2,
        "HashSet import + Instant::now"
    );

    // trace ingestion is outside the decision path.
    let out_of_scope = scan_source("crates/trace/src/seeded.rs", src);
    assert!(rules(&out_of_scope).iter().all(|r| *r != "nondet"));
}

#[test]
fn panic_rule_fires_on_each_token_class() {
    let src = "\
fn lib_code(x: Option<f64>, ys: &mut [f64]) -> f64 {
    ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let v = x.expect(\"present\");
    if v < 0.0 {
        panic!(\"negative\");
    }
    v
}
";
    let found = scan_source("crates/sim/src/seeded.rs", src);
    let panics = found.iter().filter(|v| v.rule == "panic").count();
    // line 2 carries both partial_cmp and unwrap.
    assert_eq!(panics, 4, "{found:?}");
}

#[test]
fn panic_rule_skips_test_modules_and_annotated_lines() {
    let src = "\
fn lib_code() {
    // measured fallback is unreachable: the caller checks emptiness
    // lint: allow(panic)
    let v = Some(1).unwrap();
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_helper() {
        let v: Option<u32> = None;
        assert!(v.is_none());
        Some(5).unwrap();
        [0.1f64, 0.2].sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}
";
    let found = scan_source("crates/sim/src/seeded.rs", src);
    assert!(
        found.iter().all(|v| v.rule != "panic"),
        "test modules and annotated lines are exempt: {found:?}"
    );
}

#[test]
fn doc_rule_requires_doc_comments_on_pub_fns() {
    let src = "\
pub fn bare() {}

/// Documented.
pub fn documented() {}

/// Attributes between the doc and the fn are fine.
#[inline]
pub fn attributed() {}

fn private_needs_no_doc() {}
";
    let found = scan_source("crates/linalg/src/seeded.rs", src);
    let docs: Vec<_> = found.iter().filter(|v| v.rule == "missing_docs").collect();
    assert_eq!(docs.len(), 1, "{found:?}");
    assert_eq!(docs[0].line, 1);

    // Out of scope: baselines pub fns are not held to the doc rule.
    let other = scan_source("crates/baselines/src/seeded.rs", src);
    assert!(rules(&other).iter().all(|r| *r != "missing_docs"));
}

#[test]
fn unsafe_rule_fires_everywhere_unless_allowlisted() {
    let src = "\
pub fn raw(p: *const u8) -> u8 {
    unsafe { *p }
}
";
    let found = scan_source("crates/trace/src/seeded.rs", src);
    assert!(rules(&found).contains(&"unsafe_code"), "{found:?}");

    let allow = "\
// SAFETY: delegates to the system allocator.
// lint: allow(unsafe_code)
unsafe impl Sync for Wrapper {}
";
    let found = scan_source("crates/trace/src/seeded.rs", allow);
    assert!(rules(&found).iter().all(|r| *r != "unsafe_code"));
}

#[test]
fn tokens_inside_strings_and_comments_do_not_fire() {
    let src = "\
fn lib_code() {
    let msg = \"call .unwrap() on HashSet via Instant::now\";
    // .unwrap() and HashSet discussed in a comment only
    let raw = r#\"panic! vec! format!\"#;
    let _ = (msg, raw);
}
";
    let found = scan_source("crates/sim/src/seeded.rs", src);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn hot_path_marker_rule_requires_deny_alloc_on_listed_files() {
    let unmarked = "fn kernel() {}\n";
    for file in lint::HOT_PATH_FILES {
        let found = scan_source(file, unmarked);
        assert!(
            rules(&found).contains(&"hot_path_marker"),
            "{file} without a marker must be flagged: {found:?}"
        );
    }

    // The marker satisfies the rule (and arms the alloc rule).
    let marked = "// lint: deny_alloc\nfn kernel() {}\n";
    let found = scan_source("crates/linalg/src/dok.rs", marked);
    assert!(rules(&found).iter().all(|r| *r != "hot_path_marker"));

    // Unlisted files may skip the marker freely.
    let found = scan_source("crates/linalg/src/stats.rs", unmarked);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn nondet_rule_flags_free_thread_spawn_but_not_scoped_spawn() {
    let free = "\
fn fan_out() {
    let h = std::thread::spawn(|| 1);
}
";
    let found = scan_source("crates/sim/src/seeded.rs", free);
    assert!(rules(&found).contains(&"nondet"), "{found:?}");

    // Scoped spawns merged in seed order are the sanctioned pattern.
    let scoped = "\
fn fan_out() {
    std::thread::scope(|scope| {
        scope.spawn(|| 1);
    });
}
";
    let found = scan_source("crates/sim/src/seeded.rs", scoped);
    assert!(
        rules(&found).iter().all(|r| *r != "nondet"),
        "scope.spawn must stay legal: {found:?}"
    );
}

#[test]
fn transitive_alloc_crosses_file_boundaries() {
    // The marked hot fn allocates nothing directly; the helper it calls
    // lives in an *unmarked* file where the token rule never fires.
    let hot = "\
// lint: deny_alloc
pub struct Agent;
impl Agent {
    /// Hot entry point.
    pub fn decide(&self, n: usize) -> f64 {
        megh_sim::helper::expand(n)
    }
}
";
    let helper = "\
/// Builds a scratch buffer (fine here: this file is not deny_alloc).
pub fn expand(n: usize) -> f64 {
    let buf = vec![0.0f64; n];
    buf.iter().sum()
}
";
    let analysis = analyze_sources(&[
        ("crates/core/src/hot.rs".to_string(), hot.to_string()),
        ("crates/sim/src/helper.rs".to_string(), helper.to_string()),
    ]);
    let transitive: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "transitive_alloc")
        .collect();
    assert_eq!(transitive.len(), 1, "{:?}", analysis.violations);
    assert_eq!(transitive[0].file, "crates/core/src/hot.rs");
    assert!(
        transitive[0].message.contains("expand")
            && transitive[0].message.contains("crates/sim/src/helper.rs"),
        "witness must name the cross-file culprit: {}",
        transitive[0].message
    );

    // An explicit vouch on the signature line silences it and is live.
    let vouched = hot.replace(
        "    pub fn decide(&self, n: usize) -> f64 {",
        "    // lint: allow(transitive_alloc)\n    pub fn decide(&self, n: usize) -> f64 {",
    );
    let analysis = analyze_sources(&[
        ("crates/core/src/hot.rs".to_string(), vouched),
        ("crates/sim/src/helper.rs".to_string(), helper.to_string()),
    ]);
    assert!(
        analysis.violations.is_empty(),
        "vouched subtree must be clean and the allow live: {:?}",
        analysis.violations
    );
}

#[test]
fn dead_allow_is_reported_and_removal_is_clean() {
    let stale = "\
fn fine() {
    let x = 1 + 1; // lint: allow(alloc)
    let _ = x;
}
";
    let analysis = analyze_sources(&[("crates/sim/src/seeded.rs".to_string(), stale.to_string())]);
    let dead: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "dead_allow")
        .collect();
    assert_eq!(dead.len(), 1, "{:?}", analysis.violations);
    assert_eq!(dead[0].line, 2);

    // A directive that suppresses a real token is live, not dead.
    let live = "\
// lint: deny_alloc
fn ctor() {
    let v = Vec::new(); // lint: allow(alloc)
    let _ = v;
}
";
    let analysis = analyze_sources(&[("crates/core/src/seeded.rs".to_string(), live.to_string())]);
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    assert_eq!(analysis.report.allows.len(), 1);
    assert!(analysis.report.allows[0].live);
}

#[test]
fn report_tabulates_hot_functions_and_is_deterministic() {
    let hot = "\
// lint: deny_alloc
/// Doc.
pub fn kernel(n: usize) -> usize {
    scratch(n)
}

/// Doc.
pub fn scratch(n: usize) -> usize {
    let v = vec![0u8; n]; // lint: allow(alloc)
    v.len()
}
";
    let sources = vec![("crates/linalg/src/dok.rs".to_string(), hot.to_string())];
    let a = analyze_sources(&sources);
    let b = analyze_sources(&sources);
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "report bytes must be reproducible"
    );
    assert_eq!(a.report.stats.hot_functions, 2);
    let kernel = a
        .report
        .functions
        .iter()
        .find(|f| f.function == "kernel")
        .expect("kernel row");
    // The allowed vec! is vetted: no fact, so no transitive taint either.
    assert!(!kernel.direct_alloc && !kernel.transitive_alloc);
}

#[test]
fn guard_across_blocking_fires_and_vouch_silences() {
    let src = "\
fn guarded_wait(relay: &Relay, rx: &Receiver) -> u64 {
    let guard = relay.inner.lock();
    let extra = rx.recv();
    combine(&guard, extra)
}

fn combine(_guard: &Guard, extra: u64) -> u64 {
    extra
}
";
    let analysis = analyze_sources(&[("crates/sim/src/relay.rs".to_string(), src.to_string())]);
    let hits: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "guard_across_blocking")
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", analysis.violations);
    assert_eq!(hits[0].line, 2, "anchored at the acquisition site");
    assert!(
        hits[0].message.contains("recv"),
        "witness must name the blocking op: {}",
        hits[0].message
    );

    // A vouch at the acquisition site silences the rule and stays live.
    let vouched = src.replace(
        "    let guard = relay.inner.lock();",
        "    // bounded: peer acks within one poll tick. lint: allow(guard_across_blocking)\n    \
         let guard = relay.inner.lock();",
    );
    let analysis = analyze_sources(&[("crates/sim/src/relay.rs".to_string(), vouched)]);
    assert!(
        analysis.violations.is_empty(),
        "vouched guard must be clean and the allow live: {:?}",
        analysis.violations
    );
}

#[test]
fn guard_rule_ignores_momentary_guards() {
    // Derived values and match scrutinees drop the guard immediately;
    // holding nothing across the recv is the sanctioned serve pattern.
    let src = "\
fn poll(relay: &Relay, rx: &Receiver) -> u64 {
    let len = relay.inner.lock().len();
    let extra = rx.recv();
    len as u64 + extra
}
";
    let analysis = analyze_sources(&[("crates/sim/src/relay.rs".to_string(), src.to_string())]);
    assert!(
        analysis
            .violations
            .iter()
            .all(|v| v.rule != "guard_across_blocking"),
        "{:?}",
        analysis.violations
    );
}

#[test]
fn lock_order_cycle_detected_across_files() {
    let fwd = "\
fn forward(s: &Shared) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    inspect(&a, &b);
}
";
    let rev = "\
fn reverse(s: &Shared) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
    touch(&a, &b);
}
";
    let analysis = analyze_sources(&[
        ("crates/sim/src/fwd.rs".to_string(), fwd.to_string()),
        ("crates/core/src/rev.rs".to_string(), rev.to_string()),
    ]);
    let cycles: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "lock_order")
        .collect();
    assert_eq!(cycles.len(), 1, "{:?}", analysis.violations);
    assert!(
        cycles[0].message.contains("alpha") && cycles[0].message.contains("beta"),
        "cycle finding must name both locks: {}",
        cycles[0].message
    );
    // The report section carries the full acquisition-order graph.
    let lo = analysis
        .report
        .lock_order
        .as_ref()
        .expect("lock-order section");
    assert_eq!(lo.cycles.len(), 1);
    assert!(
        lo.edges.len() >= 2,
        "both orderings recorded: {:?}",
        lo.edges
    );

    // Consistent ordering in both files: edges recorded, no cycle.
    let consistent = analyze_sources(&[
        ("crates/sim/src/fwd.rs".to_string(), fwd.to_string()),
        (
            "crates/core/src/rev.rs".to_string(),
            fwd.replace("forward", "also_forward"),
        ),
    ]);
    assert!(
        consistent.violations.iter().all(|v| v.rule != "lock_order"),
        "{:?}",
        consistent.violations
    );
}

#[test]
fn unbounded_queue_fires_and_bounded_drain_is_clean() {
    let unbounded = "\
fn drain_all(rx: &Receiver) -> u64 {
    let mut acc = 0;
    while let Ok(v) = rx.try_recv() {
        acc += v;
    }
    acc
}
";
    let analysis = analyze_sources(&[(
        "crates/sim/src/drainq.rs".to_string(),
        unbounded.to_string(),
    )]);
    let hits: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "unbounded_queue")
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", analysis.violations);
    assert_eq!(hits[0].line, 3);

    // serve's writer shape: the drain loop is capped by a batch bound.
    let bounded = "\
fn drain_batch(rx: &Receiver) -> u64 {
    let mut acc = 0;
    let mut n = 0;
    while n < 256 {
        match rx.try_recv() {
            Ok(v) => acc += v,
            Err(_) => break,
        }
        n += 1;
    }
    acc
}
";
    let analysis =
        analyze_sources(&[("crates/sim/src/drainq.rs".to_string(), bounded.to_string())]);
    assert!(
        analysis
            .violations
            .iter()
            .all(|v| v.rule != "unbounded_queue"),
        "bounded drains are the sanctioned pattern: {:?}",
        analysis.violations
    );
}

#[test]
fn call_depth_budget_enforced_from_inline_directive() {
    let src = "\
fn entry(x: u64) -> u64 { // lint: depth_budget(1)
    mid(x)
}

fn mid(x: u64) -> u64 {
    leaf(x)
}

fn leaf(x: u64) -> u64 {
    x + 1
}
";
    let analysis = analyze_sources(&[("crates/sim/src/steps.rs".to_string(), src.to_string())]);
    let hits: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "call_depth_budget")
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", analysis.violations);
    assert_eq!(hits[0].line, 1, "anchored at the budgeted signature");

    // A budget that covers the measured depth is clean, and the report
    // row records the measurement either way.
    let roomy = src.replace("depth_budget(1)", "depth_budget(2)");
    let analysis = analyze_sources(&[("crates/sim/src/steps.rs".to_string(), roomy)]);
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    let rows = analysis.report.depth_budgets.as_deref().unwrap_or(&[]);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].budget, 2);
    assert_eq!(rows[0].depth, Some(2));
}

#[test]
fn call_depth_budget_flags_unbounded_recursion() {
    // A cycle under a budgeted fn has no finite longest path: the
    // measurement comes back None and the budget can never hold.
    let src = "\
fn entry(x: u64) -> u64 { // lint: depth_budget(8)
    spin(x)
}

fn spin(x: u64) -> u64 {
    if x == 0 { 0 } else { spin(x - 1) }
}
";
    let analysis = analyze_sources(&[("crates/sim/src/steps.rs".to_string(), src.to_string())]);
    let hits: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "call_depth_budget")
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", analysis.violations);
    let rows = analysis.report.depth_budgets.as_deref().unwrap_or(&[]);
    assert_eq!(rows[0].depth, None, "recursion must poison the measurement");
}

#[test]
fn fix_deletes_dead_allows_and_is_idempotent() {
    let stale = "\
fn fine() {
    let x = 1 + 1; // lint: allow(alloc)
    let _ = x;
}

// lint: allow(panic) — stale vouch from a removed helper
fn also_fine() {}

// lint: deny_alloc
fn ctor() {
    let v = Vec::new(); // lint:allow( alloc ,panic )
    let _ = v;
}
";
    let sources = vec![("crates/sim/src/seeded.rs".to_string(), stale.to_string())];
    let fixed = lint::fix_sources(&sources);
    assert_eq!(fixed.len(), 1, "one file rewritten");
    let text = &fixed[0].1;
    // Dead inline allow gone, dead standalone line gone with its reason,
    // live directive canonicalized with its dead name dropped.
    assert!(text.contains("let x = 1 + 1;\n"), "{text}");
    assert!(!text.contains("stale vouch"), "{text}");
    assert!(
        text.contains("let v = Vec::new(); // lint: allow(alloc)\n"),
        "{text}"
    );

    // Idempotence: fixing the fixed text changes nothing.
    let again = lint::fix_sources(&[(fixed[0].0.clone(), text.clone())]);
    assert!(again.is_empty(), "second --fix must be a no-op: {again:?}");

    // And the fixed tree is clean under the analyzer.
    let analysis = analyze_sources(&[(fixed[0].0.clone(), text.clone())]);
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
}

#[test]
fn fix_root_is_idempotent_on_a_fixture_tree() {
    // Copy the dead_allow fixture into a scratch tree, fix it on disk
    // twice, and require the second pass to change zero bytes.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_allow");
    let scratch = std::env::temp_dir().join(format!("lint_fix_idem_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut stack = vec![fixture.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("fixture readable") {
            let entry = entry.expect("entry");
            let path = entry.path();
            let rel = path.strip_prefix(&fixture).expect("under fixture");
            if path.is_dir() {
                stack.push(path.clone());
            } else {
                let dst = scratch.join(rel);
                std::fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
                std::fs::copy(&path, &dst).expect("copy");
            }
        }
    }
    let first = lint::fix_root(&scratch, false).expect("fix must succeed");
    assert!(
        !first.is_empty(),
        "the fixture seeds a dead allow to delete"
    );
    let snapshot: Vec<(String, String)> = first
        .iter()
        .map(|rel| {
            (
                rel.clone(),
                std::fs::read_to_string(scratch.join(rel)).expect("fixed file"),
            )
        })
        .collect();
    let second = lint::fix_root(&scratch, false).expect("fix must succeed");
    assert!(
        second.is_empty(),
        "second on-disk --fix must be a no-op: {second:?}"
    );
    for (rel, before) in &snapshot {
        let after = std::fs::read_to_string(scratch.join(rel)).expect("fixed file");
        assert_eq!(&after, before, "{rel} changed bytes on the second pass");
    }
    // --check mode reports nothing left to do and touches nothing.
    let check = lint::fix_root(&scratch, true).expect("check must succeed");
    assert!(check.is_empty(), "{check:?}");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn workspace_at_head_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let started = std::time::Instant::now();
    let violations = scan_workspace(&root).expect("workspace must be readable");
    let elapsed = started.elapsed();
    assert!(
        violations.is_empty(),
        "lint must pass on the committed tree:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // ISSUE acceptance: the full workspace scan (lex + parse + graph +
    // fixpoint) stays interactive even on a 1-CPU container.
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "workspace scan took {elapsed:?}, budget is 5s"
    );
}

#[test]
fn committed_lint_report_matches_head() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = lint::analyze_root(&root).expect("workspace must be readable");
    let committed = std::fs::read_to_string(root.join(lint::REPORT_FILE))
        .expect("LINT_REPORT.json must be committed (run `cargo run -p lint -- --report`)");
    let committed: lint::LintReport =
        serde_json::from_str(&committed).expect("committed report must parse");
    let diff = lint::diff_reports(&committed, &analysis.report);
    assert!(
        diff.fatal.is_empty(),
        "HEAD regressed against the committed lint snapshot:\n{}",
        lint::render_diff(&diff)
    );
}

//! Fixture-based tests for every rule: bad snippets flag with the
//! right rule and line, clean snippets pass, allow directives
//! round-trip (including the bare-allow violation), and the
//! lock-order analysis detects both direct and interprocedural
//! cycles.

use vdisk_lint::{analyze, Analysis, Config, Rule, SourceFile};

/// Runs the analyzer over in-memory fixtures.
fn run(files: &[(&str, &str)], cfg: &Config) -> Analysis {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile {
            path: (*path).to_string(),
            text: (*text).to_string(),
        })
        .collect();
    analyze(&sources, cfg)
}

/// A registry with one secret type and one hot path, used by most
/// fixtures.
fn fixture_config() -> Config {
    Config {
        hot_paths: vec!["fix/src/hot.rs".into()],
        secret_types: vec!["MasterKey".into()],
        expose_methods: vec!["expose".into()],
    }
}

fn rules_and_lines(a: &Analysis) -> Vec<(Rule, usize)> {
    a.findings.iter().map(|f| (f.rule, f.line)).collect()
}

// ---------------------------------------------------------------- secrets

#[test]
fn secret_debug_derive_flagged_at_attr_line() {
    let src = "\
pub struct Harmless {
    pub n: u64,
}
#[derive(Debug)]
pub struct MasterKey {
    key: [u8; 32],
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        rules_and_lines(&a).contains(&(Rule::SecretDerive, 4)),
        "expected secret-derive at the #[derive] line, got {:?}",
        a.findings
    );
}

#[test]
fn secret_embedding_struct_clone_flagged() {
    let src = "\
#[derive(Clone)]
pub struct Slot {
    pub wrapped: MasterKey,
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        rules_and_lines(&a).contains(&(Rule::SecretDerive, 1)),
        "a struct embedding a secret type inherits the derive ban: {:?}",
        a.findings
    );
}

#[test]
fn secret_format_interpolation_flagged() {
    let src = "\
fn leak(key: &MasterKey) {
    println!(\"the key is {:?}\", key);
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        rules_and_lines(&a).contains(&(Rule::SecretFormat, 2)),
        "secret-typed param in a format macro must flag: {:?}",
        a.findings
    );
}

#[test]
fn secret_format_inline_capture_and_expose_flagged() {
    let src = "\
fn leak_capture() {
    let key = MasterKey::generate();
    println!(\"got {key}\");
}
fn leak_expose(k: &MasterKey) {
    let shown = format!(\"{:x?}\", k.expose());
    drop(shown);
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    let got = rules_and_lines(&a);
    assert!(
        got.contains(&(Rule::SecretFormat, 3)),
        "inline capture: {got:?}"
    );
    assert!(
        got.contains(&(Rule::SecretFormat, 6)),
        ".expose() in args: {got:?}"
    );
}

#[test]
fn secret_zeroize_gap_flagged_and_coverage_clears_it() {
    let gap = "\
pub struct MasterKey {
    material: [u8; 32],
}
";
    let a = run(&[("crates/fix/src/cold.rs", gap)], &fixture_config());
    assert!(
        rules_and_lines(&a).contains(&(Rule::SecretZeroize, 2)),
        "raw byte field with no zeroize call anywhere: {:?}",
        a.findings
    );

    // The same struct plus a shred path naming the field, in another
    // file of the same crate: coverage is crate-wide.
    let shred = "\
pub fn shred(key: &mut MasterKey) {
    zeroize(&mut key.material);
}
";
    let a = run(
        &[
            ("crates/fix/src/cold.rs", gap),
            ("crates/fix/src/shred.rs", shred),
        ],
        &fixture_config(),
    );
    assert!(
        a.findings.is_empty(),
        "a crate-wide zeroize naming the field covers it: {:?}",
        a.findings
    );
}

#[test]
fn self_zeroizing_drop_impl_covers_tuple_fields() {
    let src = "\
pub struct MasterKey(Vec<u8>);
impl Drop for MasterKey {
    fn drop(&mut self) {
        zeroize(&mut self.0);
    }
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        a.findings.is_empty(),
        "zeroize(&mut self.0) in the type's own method is coverage: {:?}",
        a.findings
    );
}

// ------------------------------------------------------------- panic audit

#[test]
fn hot_path_panics_flagged_only_in_hot_modules() {
    let src = "\
pub fn risky(v: &[u8]) -> u8 {
    let head = v.first().unwrap();
    if *head > 250 {
        panic!(\"too big\");
    }
    *head
}
";
    let hot = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    let got = rules_and_lines(&hot);
    assert!(got.contains(&(Rule::HotPathPanic, 2)), "unwrap: {got:?}");
    assert!(got.contains(&(Rule::HotPathPanic, 4)), "panic!: {got:?}");

    let cold = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        cold.findings.is_empty(),
        "the same code outside a hot path is fine: {:?}",
        cold.findings
    );
}

#[test]
fn hot_path_release_asserts_flagged_but_not_debug_asserts() {
    let src = "\
pub fn check(a: u8, b: u8) {
    assert!(a > 0, \"a\");
    assert_eq!(a, b);
    assert_ne!(a, 7);
    debug_assert!(b > 0);
    debug_assert_eq!(a, b);
    debug_assert_ne!(b, 7);
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert_eq!(
        rules_and_lines(&a),
        vec![
            (Rule::HotPathPanic, 2),
            (Rule::HotPathPanic, 3),
            (Rule::HotPathPanic, 4),
        ],
        "release asserts flag, debug asserts do not"
    );
}

#[test]
fn hot_path_indexing_flagged() {
    let src = "\
pub fn head(v: &[u8]) -> u8 {
    v[0]
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert_eq!(
        rules_and_lines(&a),
        vec![(Rule::HotPathIndex, 2)],
        "{:?}",
        a.findings
    );
}

#[test]
fn poison_recovery_idiom_is_not_a_panic_site() {
    let src = "\
pub fn locked(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert!(
        a.findings.is_empty(),
        "PoisonError::into_inner recovery never panics: {:?}",
        a.findings
    );
}

#[test]
fn test_code_in_hot_modules_is_exempt() {
    let src = "\
pub fn safe() -> u8 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn check() {
        let v = vec![1u8];
        assert_eq!(v[0], v.first().copied().unwrap());
    }
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn sim_paths_flagged_only_in_hot_non_test_code() {
    let src = "\
use vdisk_sim::Plan;

pub fn cost() -> vdisk_sim::SimDuration {
    vdisk_sim::SimDuration::ZERO
}

#[cfg(test)]
mod tests {
    use vdisk_sim::Plan;
}
";
    let hot = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert_eq!(
        rules_and_lines(&hot),
        vec![
            (Rule::HotPathSim, 1),
            (Rule::HotPathSim, 3),
            (Rule::HotPathSim, 4)
        ],
        "{:?}",
        hot.findings
    );
    let cold = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        cold.findings.is_empty(),
        "the pricing module may name the simulator: {:?}",
        cold.findings
    );
}

#[test]
fn sim_path_allow_suppresses() {
    let src = "\
// vdisk-lint: allow(hot-path-sim) reason=\"fixture: a deliberate exception\"
use vdisk_sim::Plan;
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.allows_used(), 1);
}

// --------------------------------------------------------- allow directives

#[test]
fn trailing_and_comment_above_allows_suppress() {
    let src = "\
pub fn justified(v: &[u8]) -> u8 {
    let head = v[0]; // vdisk-lint: allow(hot-path-index) reason=\"caller checks non-empty\"
    // vdisk-lint: allow(hot-path-panic) reason=\"len checked above\"
    let tail = v.last().unwrap();
    head + tail
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.allows_used(), 2);
    // The suppression count is reported per rule, in both outputs.
    let json = vdisk_lint::report::findings_json(&a);
    assert!(
        json.contains("\"allows_by_rule\": {\"hot-path-panic\": 1, \"hot-path-index\": 1}"),
        "{json}"
    );
    let summary = vdisk_lint::report::summary(&a);
    assert!(summary.contains("allow(hot-path-index): 1"), "{summary}");
    assert!(summary.contains("allow(hot-path-panic): 1"), "{summary}");
}

#[test]
fn bare_allow_without_reason_is_itself_a_violation() {
    let src = "\
pub fn unjustified(v: &[u8]) -> u8 {
    // vdisk-lint: allow(hot-path-index)
    v[0]
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    let got = rules_and_lines(&a);
    assert!(
        got.contains(&(Rule::LintAllow, 2)),
        "reasonless allow must flag lint-allow: {got:?}"
    );
    assert!(
        got.contains(&(Rule::HotPathIndex, 3)),
        "and the site it failed to justify still flags: {got:?}"
    );
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = "\
pub fn mismatched(v: &[u8]) -> u8 {
    // vdisk-lint: allow(hot-path-panic) reason=\"not the rule that fires here\"
    v[0]
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    assert!(
        rules_and_lines(&a).contains(&(Rule::HotPathIndex, 3)),
        "{:?}",
        a.findings
    );
}

// ---------------------------------------------------------------- lock order

/// Two lock classes acquired in opposite orders by two functions.
const LOCK_CYCLE: &str = "\
use std::sync::Mutex;

pub struct Left {
    pub a_lock: Mutex<u64>,
}
pub struct Right {
    pub b_lock: Mutex<u64>,
}

pub fn forward(l: &Left, r: &Right) -> u64 {
    let g = l.a_lock.lock().unwrap();
    let h = r.b_lock.lock().unwrap();
    *g + *h
}

pub fn backward(l: &Left, r: &Right) -> u64 {
    let h = r.b_lock.lock().unwrap();
    let g = l.a_lock.lock().unwrap();
    *g + *h
}
";

#[test]
fn opposite_acquisition_orders_form_a_cycle() {
    let a = run(&[("crates/fix/src/cold.rs", LOCK_CYCLE)], &fixture_config());
    assert_eq!(a.lock_graph.classes.len(), 2, "{:?}", a.lock_graph.classes);
    assert_eq!(a.lock_graph.cycles.len(), 1, "{:?}", a.lock_graph.cycles);
    let cycle = &a.lock_graph.cycles[0];
    assert!(cycle.iter().any(|c| c.starts_with("Left::a_lock")));
    assert!(cycle.iter().any(|c| c.starts_with("Right::b_lock")));
    assert!(
        a.findings.iter().any(|f| f.rule == Rule::LockOrder),
        "a cycle must surface as a lock-order finding: {:?}",
        a.findings
    );
}

#[test]
fn cycle_renders_red_in_dot_and_named_in_report() {
    let a = run(&[("crates/fix/src/cold.rs", LOCK_CYCLE)], &fixture_config());
    let dot = a.lock_graph.to_dot();
    assert!(dot.starts_with("digraph lock_order {"), "{dot}");
    assert!(dot.contains("color=red"), "cyclic nodes render red: {dot}");
    assert!(
        dot.contains("\"Left::a_lock (fix/src/cold.rs)\" -> \"Right::b_lock (fix/src/cold.rs)\"")
    );
    let report = a.lock_graph.report();
    assert!(report.contains("CYCLE:"), "{report}");
}

#[test]
fn consistent_order_has_edges_but_no_cycle() {
    let src = "\
use std::sync::Mutex;

pub struct Left {
    pub a_lock: Mutex<u64>,
}
pub struct Right {
    pub b_lock: Mutex<u64>,
}

pub fn forward(l: &Left, r: &Right) -> u64 {
    let g = l.a_lock.lock().unwrap();
    let h = r.b_lock.lock().unwrap();
    *g + *h
}

pub fn forward_again(l: &Left, r: &Right) -> u64 {
    let g = l.a_lock.lock().unwrap();
    let h = r.b_lock.lock().unwrap();
    *g * *h
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(!a.lock_graph.edges.is_empty());
    assert!(a.lock_graph.cycles.is_empty(), "{:?}", a.lock_graph.cycles);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn interprocedural_cycle_found_through_the_call_graph() {
    // `outer_then_inner` holds Outer::outer_lock across a call to
    // `bump`, which acquires Inner::inner_lock; `inner_then_outer`
    // does the reverse directly. The edge through the call graph
    // closes the cycle.
    let src = "\
use std::sync::Mutex;

pub struct Outer {
    pub outer_lock: Mutex<u64>,
}
pub struct Inner {
    pub inner_lock: Mutex<u64>,
}

impl Inner {
    pub fn bump(&self) {
        let mut g = self.inner_lock.lock().unwrap();
        *g += 1;
    }

    pub fn inner_then_outer(&self, other: &Outer) -> u64 {
        let g = self.inner_lock.lock().unwrap();
        let h = other.outer_lock.lock().unwrap();
        *g + *h
    }
}

impl Outer {
    pub fn outer_then_inner(&self, other: &Inner) {
        let g = self.outer_lock.lock().unwrap();
        other.bump();
        drop(g);
    }
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert_eq!(a.lock_graph.cycles.len(), 1, "{:?}", a.lock_graph.cycles);
    assert!(
        a.lock_graph
            .edges
            .iter()
            .any(|e| e.from.starts_with("Outer::outer_lock") && e.via.contains("bump")),
        "the Outer->Inner edge must come via the bump call: {:?}",
        a.lock_graph.edges
    );
}

#[test]
fn drop_releases_the_guard_before_the_next_acquisition() {
    let src = "\
use std::sync::Mutex;

pub struct Left {
    pub a_lock: Mutex<u64>,
}
pub struct Right {
    pub b_lock: Mutex<u64>,
}

pub fn sequential(l: &Left, r: &Right) -> u64 {
    let g = l.a_lock.lock().unwrap();
    let first = *g;
    drop(g);
    let h = r.b_lock.lock().unwrap();
    first + *h
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        a.lock_graph.edges.is_empty(),
        "dropped guard is not held across the second lock: {:?}",
        a.lock_graph.edges
    );
}

#[test]
fn lock_order_allow_suppresses_the_edge_before_cycle_detection() {
    let src = "\
use std::sync::Mutex;

pub struct Left {
    pub a_lock: Mutex<u64>,
}
pub struct Right {
    pub b_lock: Mutex<u64>,
}

pub fn forward(l: &Left, r: &Right) -> u64 {
    let g = l.a_lock.lock().unwrap();
    let h = r.b_lock.lock().unwrap();
    *g + *h
}

pub fn backward(l: &Left, r: &Right) -> u64 {
    let h = r.b_lock.lock().unwrap();
    // vdisk-lint: allow(lock-order) reason=\"backward runs single-threaded at startup, before forward can race it\"
    let g = l.a_lock.lock().unwrap();
    *g + *h
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(
        a.lock_graph.cycles.is_empty(),
        "the allowed edge is removed before cycle detection: {:?}",
        a.lock_graph.cycles
    );
    assert_eq!(a.lock_graph.suppressed_edges.len(), 1);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let dot = a.lock_graph.to_dot();
    assert!(
        dot.contains("style=dashed"),
        "suppressed edges render dashed: {dot}"
    );
}

// --------------------------------------------------------------- aggregate

#[test]
fn clean_fixture_set_reports_zero_everything() {
    let src = "\
pub struct Plain {
    pub n: u64,
}

pub fn double(p: &Plain) -> u64 {
    p.n * 2
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(a.findings.is_empty());
    assert_eq!(a.files_scanned, 1);
    assert_eq!(a.allows_used(), 0);
    assert!(a.lock_graph.classes.is_empty());
}

#[test]
fn findings_json_is_machine_readable() {
    let src = "\
pub fn bad(v: &[u8]) -> u8 {
    v[0]
}
";
    let a = run(&[("crates/fix/src/hot.rs", src)], &fixture_config());
    let json = vdisk_lint::report::findings_json(&a);
    assert!(json.contains("\"violations\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"hot-path-index\""), "{json}");
    assert!(json.contains("\"line\": 2"), "{json}");
}

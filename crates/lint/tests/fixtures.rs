//! Fixture-based tests for every rule: bad snippets flag with the
//! right rule and line, clean snippets pass, allow directives
//! round-trip (including the bare-allow violation), and only a module
//! that denies `clippy::indexing_slicing` at its top is hot.

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

/// A registry with one secret type, used by most fixtures.
fn fixture_config() -> Config {
    Config {
        secret_types: vec!["MasterKey".into()],
        expose_methods: vec!["expose".into()],
    }
}

/// Prefixed to a fixture, makes it a hot-path module (its code starts
/// on line 3).
const HOT: &str = "#![deny(clippy::unwrap_used, clippy::indexing_slicing)]\n\n";

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

// ------------------------------------------------------------- hot paths

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
    let hot = run(
        &[("crates/fix/src/hot.rs", &format!("{HOT}{src}"))],
        &fixture_config(),
    );
    assert_eq!(
        rules_and_lines(&hot),
        vec![
            (Rule::HotPathSim, 3),
            (Rule::HotPathSim, 5),
            (Rule::HotPathSim, 6)
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
    // Denying other lints does not make a module hot.
    let other = format!("#![deny(clippy::unwrap_used)]\n{src}");
    let other = run(&[("crates/fix/src/other.rs", &other)], &fixture_config());
    assert!(other.findings.is_empty(), "{:?}", other.findings);
}

#[test]
fn test_code_in_hot_modules_is_exempt() {
    let hot = "\
pub fn safe() -> u8 {
    0
}

#[cfg(test)]
mod tests;
";
    let tests =
        "use vdisk_sim::Plan;\n\n#[test]\nfn t() { let _ = vdisk_sim::SimDuration::ZERO; }\n";
    let a = run(
        &[
            ("crates/fix/src/hot.rs", &format!("{HOT}{hot}")),
            ("crates/fix/src/hot/tests.rs", &format!("{HOT}{tests}")),
        ],
        &fixture_config(),
    );
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn sim_path_allow_suppresses() {
    let src = format!(
        "{HOT}// vdisk-lint: allow(hot-path-sim) reason=\"fixture: a deliberate exception\"\nuse vdisk_sim::Plan;\n"
    );
    let a = run(&[("crates/fix/src/hot.rs", &src)], &fixture_config());
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.allows_used(), 1);
}

// --------------------------------------------------------- allow directives

#[test]
fn trailing_and_comment_above_allows_suppress() {
    let src = "\
#[derive(Clone)] // vdisk-lint: allow(secret-derive) reason=\"the copy zeroizes on drop too\"
pub struct MasterKey(u64);
// vdisk-lint: allow(secret-derive) reason=\"a clone is wrapped key material only\"
#[derive(Clone)]
pub struct Slot {
    pub wrapped: MasterKey,
}
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.allows_used(), 2);
    // The suppression count is reported per rule, in both outputs.
    let json = vdisk_lint::report::findings_json(&a);
    assert!(
        json.contains("\"allows_by_rule\": {\"secret-derive\": 2}"),
        "{json}"
    );
    let summary = vdisk_lint::report::summary(&a);
    assert!(summary.contains("allow(secret-derive): 2"), "{summary}");
}

#[test]
fn bare_allow_without_reason_is_itself_a_violation() {
    let src = "\
// vdisk-lint: allow(secret-derive)
#[derive(Debug)]
pub struct MasterKey(u64);
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    let got = rules_and_lines(&a);
    assert!(
        got.contains(&(Rule::LintAllow, 1)),
        "reasonless allow must flag lint-allow: {got:?}"
    );
    assert!(
        got.contains(&(Rule::SecretDerive, 2)),
        "and the site it failed to justify still flags: {got:?}"
    );
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = "\
// vdisk-lint: allow(secret-format) reason=\"not the rule that fires here\"
#[derive(Debug)]
pub struct MasterKey(u64);
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    assert_eq!(
        rules_and_lines(&a),
        vec![(Rule::SecretDerive, 2)],
        "{:?}",
        a.findings
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
}

#[test]
fn findings_json_is_machine_readable() {
    let src = "\
#[derive(Debug)]
pub struct MasterKey(u64);
";
    let a = run(&[("crates/fix/src/cold.rs", src)], &fixture_config());
    let json = vdisk_lint::report::findings_json(&a);
    assert!(json.contains("\"violations\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"secret-derive\""), "{json}");
    assert!(json.contains("\"line\": 1"), "{json}");
}

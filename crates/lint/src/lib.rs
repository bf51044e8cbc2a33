//! `vdisk-lint`: in-tree static analysis for the vdisk workspace.
//!
//! Three analyses run over the workspace source, fed by a small
//! hand-rolled lexer (no `syn`, no registry dependencies — the same
//! offline discipline as the proptest shim):
//!
//! 1. **Secret hygiene** ([`secrets`]): a registry of secret-bearing
//!    types for which `#[derive(Debug)]`/`#[derive(Clone)]`,
//!    format-macro interpolation, and missing `zeroize` coverage on
//!    raw key-byte fields are violations.
//! 2. **Hot-path rules** ([`panics`]): `.unwrap()`, `.expect(...)`,
//!    `panic!`, `unreachable!`, `todo!`, `unimplemented!` and direct
//!    slice indexing are denied inside the designated hot-path
//!    modules (shard workers, queues, the rekey driver, the tenant
//!    runtime), and so is any `vdisk_sim` path: the simulated clock
//!    prices receipts after the fact and never rides the IO path.
//!    `#[cfg(test)]` code is exempt; the
//!    `unwrap_or_else(PoisonError::into_inner)` poison-recovery idiom
//!    is recognized as safe (it is not an `unwrap`).
//! 3. **Lock order** ([`locks`]): guard-acquisition sites per
//!    function, an approximate intra-workspace call graph by name
//!    resolution over the token stream, and cycle detection over the
//!    resulting lock-order graph, reported with a DOT artifact.
//!
//! Violations are suppressed inline with
//! `// vdisk-lint: allow(<rule>) reason="..."` — a bare allow without
//! a reason is itself a violation ([`Rule::LintAllow`]).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod locks;
pub mod panics;
pub mod parse;
pub mod report;
pub mod secrets;

use lexer::Lexed;
use parse::FileShape;

/// One source file handed to the analyses. Paths are workspace-relative
/// with forward slashes; the hot-path registry matches on suffixes.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/rados/src/queue.rs`).
    pub path: String,
    /// Full source text.
    pub text: String,
}

/// The analysis configuration: registries the rules consult.
/// [`Config::default`] is the product registry this repo is linted
/// with; fixtures construct their own.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path fragments designating panic-free hot-path modules. A file
    /// is hot when its path contains any of these.
    pub hot_paths: Vec<String>,
    /// Type names whose values carry key material. Deriving
    /// `Debug`/`Clone` on them (or on structs embedding them) and
    /// interpolating them into format macros are violations.
    pub secret_types: Vec<String>,
    /// Method names that expose raw secret bytes (flagged inside
    /// format macros regardless of binding knowledge).
    pub expose_methods: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            hot_paths: vec![
                "rados/src/queue.rs".into(),
                "rados/src/shard.rs".into(),
                "rados/src/cluster.rs".into(),
                "rados/src/builder.rs".into(),
                "rados/src/maintenance.rs".into(),
                "rbd/src/queue.rs".into(),
                "core/src/queue.rs".into(),
                "core/src/rekey.rs".into(),
                "core/src/runtime/".into(),
            ],
            secret_types: vec![
                "SecretBytes".into(),
                "Keyslot".into(),
                "EpochRecord".into(),
                "RetiredKey".into(),
                "LuksHeader".into(),
                "KeyChain".into(),
                "SectorCodec".into(),
                "Aes".into(),
                "NiSchedule".into(),
                "XtsCipher".into(),
                "AesGcm".into(),
                "Eme2".into(),
            ],
            expose_methods: vec!["expose".into(), "expose_mut".into()],
        }
    }
}

/// The rules findings are attributed to (and allow comments name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `#[derive(Debug)]`/`#[derive(Clone)]` on a secret-bearing type.
    SecretDerive,
    /// A secret interpolated into a format-like macro.
    SecretFormat,
    /// A raw key-byte field with no `zeroize` coverage on any
    /// drop/shred path.
    SecretZeroize,
    /// `.unwrap()`/`.expect()`/`panic!`-family in a hot-path module.
    HotPathPanic,
    /// Direct slice/array indexing in a hot-path module.
    HotPathIndex,
    /// A `vdisk_sim` path in a hot-path module.
    HotPathSim,
    /// A lock-order cycle (or a malformed lock annotation).
    LockOrder,
    /// A malformed allow directive (no reason, or an unknown rule).
    LintAllow,
}

impl Rule {
    /// The rule's stable name, as written in allow directives.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::SecretDerive => "secret-derive",
            Rule::SecretFormat => "secret-format",
            Rule::SecretZeroize => "secret-zeroize",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathIndex => "hot-path-index",
            Rule::HotPathSim => "hot-path-sim",
            Rule::LockOrder => "lock-order",
            Rule::LintAllow => "lint-allow",
        }
    }

    /// Parses a rule name from an allow directive.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "secret-derive" => Some(Rule::SecretDerive),
            "secret-format" => Some(Rule::SecretFormat),
            "secret-zeroize" => Some(Rule::SecretZeroize),
            "hot-path-panic" => Some(Rule::HotPathPanic),
            "hot-path-index" => Some(Rule::HotPathIndex),
            "hot-path-sim" => Some(Rule::HotPathSim),
            "lock-order" => Some(Rule::LockOrder),
            "lint-allow" => Some(Rule::LintAllow),
            _ => None,
        }
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule violated.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// One parsed `vdisk-lint: allow(...)` directive.
#[derive(Debug, Clone)]
struct AllowDirective {
    rules: Vec<Rule>,
    has_reason: bool,
    /// Lines this directive covers: its own line (trailing-comment
    /// form) or the first following line that carries code
    /// (comment-above form).
    covered: Vec<usize>,
}

/// The result of analyzing a set of sources.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving findings (allow-suppressed ones removed), sorted by
    /// file then line.
    pub findings: Vec<Finding>,
    /// The lock-order graph (for DOT/report rendering even when
    /// acyclic).
    pub lock_graph: locks::LockGraph,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by a reasoned allow directive, per rule —
    /// the standing debt the clean exit status does not show.
    pub allows_by_rule: std::collections::BTreeMap<Rule, usize>,
    /// Code lines per crate: lines carrying at least one token
    /// (neither blank nor comment) outside `#[cfg(test)]` ranges —
    /// the size simplification rounds are judged on.
    pub code_lines_by_crate: std::collections::BTreeMap<String, usize>,
}

impl Analysis {
    /// Total findings suppressed by allow directives.
    pub fn allows_used(&self) -> usize {
        self.allows_by_rule.values().sum()
    }
}

/// One lexed+parsed file, shared by the analyses.
pub struct PreparedFile {
    pub path: String,
    pub lexed: Lexed,
    pub shape: FileShape,
    pub is_hot: bool,
}

/// Runs every analysis over `files` and applies allow directives.
pub fn analyze(files: &[SourceFile], cfg: &Config) -> Analysis {
    let mut prepared: Vec<PreparedFile> = files
        .iter()
        .map(|f| {
            let lexed = lexer::lex(&f.text);
            let shape = parse::parse(&lexed.tokens);
            let is_hot = cfg.hot_paths.iter().any(|h| f.path.contains(h.as_str()));
            PreparedFile {
                path: f.path.clone(),
                lexed,
                shape,
                is_hot,
            }
        })
        .collect();
    // A file declared by `#[cfg(test)] mod name;` is test code as a
    // whole, though nothing inside it says so.
    let test_only: std::collections::HashSet<String> = prepared
        .iter()
        .flat_map(|pf| {
            pf.shape
                .test_mod_decls
                .iter()
                .map(|name| child_module_path(&pf.path, name))
        })
        .collect();
    for pf in prepared
        .iter_mut()
        .filter(|pf| test_only.contains(&pf.path))
    {
        pf.shape = parse::parse_as(&pf.lexed.tokens, true);
    }

    // Directives are parsed first: `allow(lock-order)` sites must
    // remove their edges from the lock graph *before* cycle
    // detection, not merely hide a cycle finding after the fact.
    let mut directive_findings: Vec<Finding> = Vec::new();
    let mut per_file: std::collections::HashMap<&str, Vec<AllowDirective>> =
        std::collections::HashMap::new();
    let mut lock_allowed: locks::AllowedSites = Default::default();
    for pf in &prepared {
        let dirs = parse_directives(pf, &mut directive_findings);
        for d in &dirs {
            if d.has_reason && d.rules.contains(&Rule::LockOrder) {
                for &line in &d.covered {
                    lock_allowed.insert((pf.path.clone(), line));
                }
            }
        }
        per_file.insert(pf.path.as_str(), dirs);
    }

    let mut findings: Vec<Finding> = Vec::new();
    for pf in &prepared {
        findings.extend(secrets::check(pf, &prepared, cfg));
        findings.extend(panics::check(pf));
    }
    let lock_graph = locks::analyze(&prepared, &lock_allowed);
    findings.extend(lock_graph.findings.clone());

    // Apply line-level suppression to the remaining findings.
    let mut allows_by_rule = std::collections::BTreeMap::new();
    let mut kept: Vec<Finding> = Vec::new();
    for finding in findings {
        let suppressed = per_file.get(finding.file.as_str()).is_some_and(|dirs| {
            dirs.iter().any(|d| {
                d.has_reason && d.rules.contains(&finding.rule) && d.covered.contains(&finding.line)
            })
        });
        if suppressed {
            *allows_by_rule.entry(finding.rule).or_insert(0) += 1;
        } else {
            kept.push(finding);
        }
    }
    kept.extend(directive_findings);
    kept.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    let mut code_lines_by_crate = std::collections::BTreeMap::new();
    for pf in &prepared {
        *code_lines_by_crate
            .entry(crate_of(&pf.path).to_string())
            .or_insert(0) += code_lines(pf);
    }
    Analysis {
        findings: kept,
        lock_graph,
        files_scanned: prepared.len(),
        allows_by_rule,
        code_lines_by_crate,
    }
}

/// The file `mod name;` declared in the file at `parent` names: beside
/// a `mod.rs`/`lib.rs`/`main.rs`, else in the directory named after the
/// declaring file (the workspace has no `name/mod.rs` test modules).
fn child_module_path(parent: &str, name: &str) -> String {
    let (dir, file) = parent.rsplit_once('/').unwrap_or(("", parent));
    match file.strip_suffix(".rs").unwrap_or(file) {
        "mod" | "lib" | "main" => format!("{dir}/{name}.rs"),
        stem => format!("{dir}/{stem}/{name}.rs"),
    }
}

/// The crate a workspace-relative path belongs to: `rados` for
/// `crates/rados/src/queue.rs`, `(root)` for the top-level `src/`.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("(root)")
}

/// Lines of `pf` that carry a token and lie outside every
/// `#[cfg(test)]` range.
fn code_lines(pf: &PreparedFile) -> usize {
    let mut lines: Vec<usize> = pf
        .lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .filter(|&line| !pf.shape.line_in_test(line))
        .collect();
    lines.dedup();
    lines.len()
}

/// Parses every `vdisk-lint:` comment in a file. Malformed directives
/// (bare allow without a reason, unknown rule names) are reported as
/// [`Rule::LintAllow`] findings — and those are never suppressible by
/// the directive that carries them.
fn parse_directives(pf: &PreparedFile, findings: &mut Vec<Finding>) -> Vec<AllowDirective> {
    let mut dirs = Vec::new();
    for comment in &pf.lexed.comments {
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix("vdisk-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args_start) = rest.strip_prefix("allow") else {
            findings.push(Finding {
                rule: Rule::LintAllow,
                file: pf.path.clone(),
                line: comment.line,
                message: format!("unrecognized vdisk-lint directive: `{text}`"),
            });
            continue;
        };
        let args_start = args_start.trim_start();
        let Some(close) = args_start.find(')') else {
            findings.push(Finding {
                rule: Rule::LintAllow,
                file: pf.path.clone(),
                line: comment.line,
                message: "allow directive is missing its rule list: `allow(<rule>)`".into(),
            });
            continue;
        };
        let inner = args_start
            .strip_prefix('(')
            .map(|s| &s[..close.saturating_sub(1)])
            .unwrap_or("");
        let mut rules = Vec::new();
        let mut bad_rule = false;
        for name in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::parse(name) {
                Some(r) => rules.push(r),
                None => {
                    bad_rule = true;
                    findings.push(Finding {
                        rule: Rule::LintAllow,
                        file: pf.path.clone(),
                        line: comment.line,
                        message: format!("allow names unknown rule `{name}`"),
                    });
                }
            }
        }
        let tail = &args_start[close + 1..];
        let has_reason = match tail.trim_start().strip_prefix("reason=") {
            Some(r) => {
                let r = r.trim();
                r.starts_with('"') && r.trim_end().len() > 2
            }
            None => false,
        };
        if !has_reason {
            findings.push(Finding {
                rule: Rule::LintAllow,
                file: pf.path.clone(),
                line: comment.line,
                message: "bare allow without a written reason (use `allow(<rule>) reason=\"...\"`)"
                    .into(),
            });
        }
        if rules.is_empty() && !bad_rule {
            findings.push(Finding {
                rule: Rule::LintAllow,
                file: pf.path.clone(),
                line: comment.line,
                message: "allow directive names no rules".into(),
            });
        }
        // Trailing form (`code(); // vdisk-lint: allow(...)`) covers
        // its own line; comment-above form covers the next line that
        // carries a code token.
        let trailing = pf.lexed.tokens.iter().any(|t| t.line == comment.line);
        let covered = if trailing {
            vec![comment.line]
        } else {
            pf.lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > comment.line)
                .map(|l| vec![l])
                .unwrap_or_default()
        };
        dirs.push(AllowDirective {
            rules,
            has_reason,
            covered,
        });
    }
    dirs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in [
            Rule::SecretDerive,
            Rule::SecretFormat,
            Rule::SecretZeroize,
            Rule::HotPathPanic,
            Rule::HotPathIndex,
            Rule::HotPathSim,
            Rule::LockOrder,
            Rule::LintAllow,
        ] {
            assert_eq!(Rule::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(Rule::parse("nonsense"), None);
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_test_modules() {
        let text = "\
//! Docs.

/// More docs.
pub fn f() -> u32 { // trailing comment
    /* block */
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        let files = [
            SourceFile {
                path: "crates/a/src/lib.rs".into(),
                text: text.into(),
            },
            SourceFile {
                path: "crates/a/src/deep/m.rs".into(),
                text: "fn g() {}\n#[cfg(test)]\nmod tests;\n".into(),
            },
            SourceFile {
                path: "crates/a/src/deep/m/tests.rs".into(),
                text: "use super::*;\n\n#[test]\nfn t() { g().unwrap(); }\n".into(),
            },
            SourceFile {
                path: "src/lib.rs".into(),
                text: "fn h() {}\n\nfn i() {}\n".into(),
            },
        ];
        let analysis = analyze(&files, &Config::default());
        // fn line, `1`, `}` and the `#[cfg(test)]` attribute line
        // (ranges start at the item), plus the second file's fn and
        // attribute lines; the file its `mod tests;` names adds none.
        assert_eq!(analysis.code_lines_by_crate["a"], 4 + 2);
        assert_eq!(analysis.code_lines_by_crate["(root)"], 2);
    }
}

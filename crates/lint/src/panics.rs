//! Hot-path rules. Panic freedom: a panicking shard worker, reactor,
//! or arbiter poisons a shard FIFO and strands every tenant, so the
//! modules on the IO submit/apply/reap path must not contain latent
//! panic sites. And no simulated clock: the IO path returns unpriced
//! receipts, and a `vdisk_sim` type there would put cost-model work
//! back on every wall-clock IO.
//!
//! Denied inside hot-path modules (outside `#[cfg(test)]`):
//! `.unwrap()`, `.expect(...)`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and the release asserts `assert!`, `assert_eq!`
//! and `assert_ne!` ([`Rule::HotPathPanic`]), direct slice/array
//! indexing ([`Rule::HotPathIndex`]), and any path through the
//! `vdisk_sim` crate ([`Rule::HotPathSim`]). A release assert is a
//! panic site like any other: one that guards a real invariant keeps
//! its allow, with the invariant as the reason.
//!
//! Explicitly **not** flagged: the workspace's poison-recovery idiom
//! `lock().unwrap_or_else(PoisonError::into_inner)` (it is
//! `unwrap_or_else`, a non-panicking total method), `unwrap_or`,
//! `unwrap_or_default`, and `debug_assert!` / `debug_assert_eq!` /
//! `debug_assert_ne!` (compiled out of release builds, which are what
//! production runs).

use crate::lexer::{Token, TokenKind};
use crate::{Finding, PreparedFile, Rule};

/// Macro names that panic when reached (the asserts, when their
/// condition fails). The `debug_*` asserts are other identifiers.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Runs the hot-path rules over one file (no-op unless the file is in
/// the hot-path registry).
pub fn check(pf: &PreparedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !pf.is_hot {
        return findings;
    }
    let toks = &pf.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if pf.shape.line_in_test(tok.line) {
            continue;
        }
        match &tok.kind {
            TokenKind::Ident(id) if id == "unwrap" || id == "expect" => {
                // Method-call position only: `.unwrap()` / `.expect(`.
                let is_method = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                if is_method {
                    findings.push(Finding {
                        rule: Rule::HotPathPanic,
                        file: pf.path.clone(),
                        line: tok.line,
                        message: format!(
                            "`.{id}()` in a hot-path module — convert to a typed error \
                             or allow with the invariant as the reason"
                        ),
                    });
                }
            }
            TokenKind::Ident(id) if PANIC_MACROS.contains(&id.as_str()) => {
                let is_macro = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
                if is_macro {
                    findings.push(Finding {
                        rule: Rule::HotPathPanic,
                        file: pf.path.clone(),
                        line: tok.line,
                        message: format!("`{id}!` in a hot-path module"),
                    });
                }
            }
            TokenKind::Ident(id) if id == "vdisk_sim" => findings.push(Finding {
                rule: Rule::HotPathSim,
                file: pf.path.clone(),
                line: tok.line,
                message: "`vdisk_sim` in a hot-path module — return a receipt and let \
                          `vdisk_rados::Testbed` price it off the IO path"
                    .into(),
            }),
            TokenKind::Punct('[') if is_index_site(toks, i) => {
                findings.push(Finding {
                    rule: Rule::HotPathIndex,
                    file: pf.path.clone(),
                    line: tok.line,
                    message: "direct slice indexing in a hot-path module — out-of-range \
                              panics here poison queue state (use `.get()`, or allow \
                              with the structural invariant as the reason)"
                        .into(),
                });
            }
            _ => {}
        }
    }
    findings
}

/// Whether the `[` at `i` is an index expression: the previous token
/// ends an expression (identifier, `]`, or `)`). Array types
/// (`[u8; 4]`), attributes (`#[...]`), and `vec![` macro brackets all
/// fail this test.
fn is_index_site(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    match &toks[i - 1].kind {
        TokenKind::Ident(id) => {
            // `vec![`, `matches!(...)[`? — macro bang between ident and
            // bracket means the bracket is macro input, not indexing;
            // that case has `!` at i-1, not an ident, so any ident here
            // is a value expression... except keywords.
            !matches!(
                id.as_str(),
                "mut" | "ref" | "return" | "break" | "in" | "as" | "dyn" | "impl" | "where"
            )
        }
        TokenKind::Punct(']') | TokenKind::Punct(')') => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn index_site_classification() {
        let toks =
            lex("let t: [u8; 4] = x; #[derive(Debug)] let v = vec![1]; a[i]; f()[0]; m.y[1];")
                .tokens;
        let sites: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| t.is_punct('[') && is_index_site(&toks, *i))
            .map(|(i, _)| i)
            .collect();
        // `a[`, `f()[`, and `m.y[` index; the attribute, the macro
        // bracket, and the array type do not.
        assert_eq!(sites.len(), 3);
    }
}

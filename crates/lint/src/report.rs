//! Rendering: the machine-readable findings JSON (hand-rolled, same
//! style as `bench_gate`'s encoder — no serde) and the human summary.

use crate::{Analysis, Finding};

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The findings file consumed by CI tooling: a stable, sorted, flat
/// JSON document (scripts can `grep '"rule"'` it without a parser).
pub fn findings_json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n");
    let by_rule: Vec<String> = analysis
        .allows_by_rule
        .iter()
        .map(|(rule, n)| format!("\"{}\": {n}", rule.as_str()))
        .collect();
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"allows_used\": {},\n  \"allows_by_rule\": {{{}}},\n  \"violations\": {},\n",
        analysis.files_scanned,
        analysis.allows_used(),
        by_rule.join(", "),
        analysis.findings.len()
    ));
    out.push_str("  \"findings\": [\n");
    for (i, f) in analysis.findings.iter().enumerate() {
        let sep = if i + 1 == analysis.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{sep}\n",
            f.rule.as_str(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"lock_classes\": {},\n  \"lock_edges\": {},\n  \"lock_cycles\": {}\n",
        analysis.lock_graph.classes.len(),
        analysis.lock_graph.edges.len(),
        analysis.lock_graph.cycles.len()
    ));
    out.push_str("}\n");
    out
}

/// Code lines per crate (see [`Analysis::code_lines_by_crate`]) as a
/// flat JSON object with a `total`, for the CI artifact.
pub fn loc_json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n");
    for (name, lines) in &analysis.code_lines_by_crate {
        out.push_str(&format!("  \"{}\": {lines},\n", json_escape(name)));
    }
    let total: usize = analysis.code_lines_by_crate.values().sum();
    out.push_str(&format!("  \"total\": {total}\n}}\n"));
    out
}

/// One finding, `file:line: [rule] message` (the compiler-ish form
/// terminals and CI logs expect).
pub fn render_finding(f: &Finding) -> String {
    format!("{}:{}: [{}] {}", f.file, f.line, f.rule.as_str(), f.message)
}

/// The human report printed to stdout.
pub fn summary(analysis: &Analysis) -> String {
    let mut out = String::new();
    for f in &analysis.findings {
        out.push_str(&render_finding(f));
        out.push('\n');
    }
    if !analysis.findings.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "vdisk-lint: {} files scanned, {} violations, {} allows in effect\n",
        analysis.files_scanned,
        analysis.findings.len(),
        analysis.allows_used()
    ));
    for (rule, n) in &analysis.allows_by_rule {
        out.push_str(&format!("  allow({}): {n}\n", rule.as_str()));
    }
    out.push_str(&format!(
        "lock-order: {} classes, {} edges, {} cycles ({} edges suppressed)\n",
        analysis.lock_graph.classes.len(),
        analysis.lock_graph.edges.len(),
        analysis.lock_graph.cycles.len(),
        analysis.lock_graph.suppressed_edges.len()
    ));
    out.push_str("code lines (non-blank, non-comment, outside cfg(test)):\n");
    for (name, lines) in &analysis.code_lines_by_crate {
        out.push_str(&format!("  {name:<8} {lines:>6}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

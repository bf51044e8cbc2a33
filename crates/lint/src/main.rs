//! The `vdisk-lint` binary: walks the workspace source, runs the
//! analyses, writes the artifacts, and exits with a script-friendly
//! status:
//!
//! - `0` — clean (no violations)
//! - `1` — violations found
//! - `2` — internal error (unreadable root, artifact write failure)
//!
//! ```text
//! vdisk-lint [--root <dir>] [--out <dir>] [--quiet]
//! ```
//!
//! Artifacts land in `<out>/` (default `target/vdisk-lint/`):
//! `findings.json` (machine-readable) and `loc.json` (code lines per
//! crate).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vdisk_lint::{analyze, report, Config, SourceFile};

struct Args {
    root: PathBuf,
    out: PathBuf,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                return Err("usage: vdisk-lint [--root <dir>] [--out <dir>] [--quiet]".into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let out = out.unwrap_or_else(|| root.join("target/vdisk-lint"));
    Ok(Args { root, out, quiet })
}

/// Collects every workspace `.rs` source under `crates/*/src` and
/// `src/`, skipping `target/` and integration-test trees (which are
/// exercised by the fixture suite, not production rules).
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut roots: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let top_src = root.join("src");
    if top_src.is_dir() {
        roots.push(top_src);
    }
    if roots.is_empty() {
        return Err(format!(
            "no source roots under {} (expected crates/*/src)",
            root.display()
        ));
    }
    roots.sort();
    for src_root in roots {
        walk(root, &src_root, &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" {
                continue;
            }
            walk(root, &path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let files = collect_sources(&args.root)?;
    let analysis = analyze(&files, &Config::default());

    fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let artifacts = [
        ("findings.json", report::findings_json(&analysis)),
        ("loc.json", report::loc_json(&analysis)),
    ];
    for (name, content) in artifacts {
        let path = args.out.join(name);
        fs::write(&path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    if !args.quiet {
        print!("{}", report::summary(&analysis));
        println!("artifacts: {}", args.out.display());
    }
    Ok(analysis.findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("vdisk-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

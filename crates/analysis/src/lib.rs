//! `rfbist-analysis` — the workspace invariant linter.
//!
//! A BIST is a self-checking instrument: the checker is baked into
//! the design, not bolted on. This crate applies the same premise to
//! the codebase itself — the contracts that make the verdict pipeline
//! fail-safe (every panicking entry point is a thin wrapper over its
//! `try_*` twin, every `unsafe` block carries its safety argument,
//! every `#[target_feature]` kernel hides behind runtime dispatch,
//! every raw unit-suffixed `f64` documents its unit) are machine
//! checked on every CI run instead of enforced by reviewer memory.
//!
//! The pass is a dependency-free, hand-rolled line/token scanner
//! (see [`scanner`]) — deliberately not a Rust parser. Findings emit
//! human text plus schema'd JSON (`rfbist-analysis-findings/v1`) and
//! are diffed against the committed `ANALYSIS_BASELINE.json`: only
//! **new** findings fail, so the rules ratchet instead of blocking
//! adoption.
//!
//! ```sh
//! cargo run -p rfbist-analysis -- --workspace
//! cargo run -p rfbist-analysis -- --workspace --update-baseline
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod findings;
pub mod json;
pub mod lints;
pub mod registry;
pub mod scanner;

use baseline::Baseline;
use findings::Finding;
use registry::Lint;
use scanner::SourceFile;
use std::path::{Path, PathBuf};

/// Directories never scanned (third-party code, build output, and
/// the linter's own violation fixtures).
const EXCLUDED: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Outcome of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, baselined or not, in path/line order.
    pub findings: Vec<Finding>,
    /// Fingerprints not covered by the baseline — the failures.
    pub new_fingerprints: Vec<String>,
    /// Baseline fingerprints no current finding matches.
    pub stale_fingerprints: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// True when the run should exit 0.
    pub fn passed(&self) -> bool {
        self.new_fingerprints.is_empty()
    }

    /// The findings JSON document (`rfbist-analysis-findings/v1`).
    pub fn to_json(&self) -> String {
        findings::findings_document(&self.findings, &self.new_fingerprints, self.files_scanned)
    }
}

/// Collects the `.rs` files under `root` that the workspace scan
/// audits, workspace-relative and sorted for determinism.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read dir `{}`: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir `{}`: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Scans and lints one file already loaded as `text`.
pub fn analyze_source(lints: &[Box<dyn Lint>], rel_path: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile::scan(rel_path, text);
    let mut out = Vec::new();
    registry::run_lints(lints, &file, &mut out);
    out
}

/// Runs the full pass: scan `files` (workspace-relative under
/// `root`), apply every registered lint, and diff against `baseline`.
pub fn run_analysis(
    root: &Path,
    files: &[PathBuf],
    baseline: &Baseline,
) -> Result<Analysis, String> {
    let lints = registry::default_lints();
    let mut findings = Vec::new();
    for rel in files {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read `{}`: {e}", path.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(analyze_source(&lints, &rel_str, &text));
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    let new_fingerprints = baseline.new_fingerprints(&findings);
    let stale_fingerprints = baseline.stale_fingerprints(&findings);
    Ok(Analysis {
        findings,
        new_fingerprints,
        stale_fingerprints,
        files_scanned: files.len(),
    })
}

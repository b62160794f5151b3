//! **detlint** — the workspace determinism & trace-schema static-analysis
//! pass.
//!
//! Three analyzer families (see `docs/static-analysis.md`):
//!
//! * [`lints`] — determinism lints over the simulation crates: deny
//!   hash-ordered containers, wall-clock reads, ambient randomness, rogue
//!   OS threads and unordered float reductions, with a
//!   `// detlint::allow(<lint>, reason = "...")` escape hatch that
//!   requires a written justification.
//! * [`coverage`] — trace-schema coverage: every `TraceKind` variant must
//!   be handled by both exporters and dispositioned by the trace audit,
//!   and emitted by at least one engine crate.
//! * [`conservation`] — counter-conservation dataflow: every counter
//!   field has exactly one increment site per scope, is consumed by an
//!   audit (or waived with a reason) and is folded by the fleet driver's
//!   epilogue; plus the `#![forbid(unsafe_code)]` meta-check on sim
//!   crate roots.
//!
//! Run it with `cargo run -p detlint -- check` (wired into
//! `scripts/smoke.sh`); `--json <path>` writes a machine-readable report.
//! The pass is token-level by design: the offline build environment has no
//! `syn`, so a small truthful lexer ([`lexer`]) stands in for an AST.

use std::path::{Path, PathBuf};

pub mod conservation;
pub mod coverage;
pub mod diag;
pub mod lexer;
pub mod lints;

pub use conservation::{ConservationConfig, CounterSpec, CONSERVATION_LINTS};
pub use coverage::{CoverageConfig, CoverageSummary, Surface, SurfaceItem};
pub use diag::Diagnostic;
pub use lints::{LintOptions, LINTS};

use serde::Value;

/// The simulation crates under `crates/`: the determinism lints scan
/// each one's `src`, and each one's `src/lib.rs` must forbid unsafe code.
pub(crate) const SIM_CRATES: [&str; 13] = [
    "simcore", "core", "tcp", "cpu", "servers", "workload", "fault", "metrics", "obs", "bench",
    "fleet", "uring", "dag",
];

/// Which files the determinism lints scan and how.
#[derive(Debug, Clone)]
pub struct WorkspaceConfig {
    /// Directories (relative to the root) scanned for `.rs` files.
    /// `vendor/` and `target/` are always skipped, wherever they appear.
    pub lint_dirs: Vec<PathBuf>,
    /// Files (relative to the root) where `thread-spawn` is sanctioned.
    pub spawn_sanctioned: Vec<PathBuf>,
    /// The schema-coverage configurations to run (empty disables the
    /// analyzer). The repo default checks two schemas: the `TraceKind`
    /// event schema and the span layer's `Phase` schema.
    pub coverage: Vec<CoverageConfig>,
    /// The counter-conservation family (counter specs, forbid-unsafe
    /// roots). Empty configs disable each sub-check.
    pub conservation: ConservationConfig,
}

impl WorkspaceConfig {
    /// The real repository layout: every simulation crate plus the bench
    /// harnesses and the root package's `src`/`tests`/`examples`.
    ///
    /// Deliberately out of scope:
    /// * `vendor/` — third-party stand-ins, not simulation code (always
    ///   skipped by the walker, even if configured).
    /// * `crates/rt/` — the real-socket runtime; wall clocks and OS
    ///   threads are its entire point.
    /// * `crates/detlint/` — this crate's fixtures contain violations on
    ///   purpose.
    pub fn repo_default() -> Self {
        let mut lint_dirs: Vec<PathBuf> = SIM_CRATES
            .iter()
            .map(|c| PathBuf::from(format!("crates/{c}/src")))
            .collect();
        lint_dirs.extend(["src".into(), "tests".into(), "examples".into()]);
        WorkspaceConfig {
            lint_dirs,
            spawn_sanctioned: vec!["crates/core/src/runner.rs".into()],
            coverage: vec![CoverageConfig::repo_default(), CoverageConfig::span_schema()],
            conservation: ConservationConfig::repo_default(),
        }
    }
}

/// The outcome of a full `check` run.
#[derive(Debug)]
pub struct Report {
    /// Every diagnostic, including allowlisted ones, sorted and deduped.
    pub diagnostics: Vec<Diagnostic>,
    /// Schema-coverage details, one summary per configured schema.
    pub coverage: Vec<CoverageSummary>,
    /// Number of `.rs` files the determinism lints scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Diagnostics that actually fail the build (not allowlisted).
    pub fn violations(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_none())
    }

    /// Allowlisted findings (kept for the report artifact).
    pub fn allowed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_some())
    }

    /// `true` when the workspace passes.
    pub fn clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Human-readable rendering, one line per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in self.violations() {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                d.file, d.line, d.lint, d.message
            ));
        }
        for d in self.allowed() {
            out.push_str(&format!(
                "{}:{}: [{}] allowed: {}\n",
                d.file,
                d.line,
                d.lint,
                d.allowed.as_deref().unwrap_or_default()
            ));
        }
        let nviol = self.violations().count();
        let nallow = self.allowed().count();
        out.push_str(&format!(
            "detlint: {} file(s) scanned, {nviol} violation(s), {nallow} allowlisted\n",
            self.files_scanned
        ));
        out
    }

    /// Machine-readable JSON (`detlint --json`).
    pub fn to_json(&self) -> String {
        let diag_value = |d: &Diagnostic| {
            let mut m = vec![
                ("file".to_string(), Value::Str(d.file.clone())),
                ("line".to_string(), Value::UInt(u64::from(d.line))),
                ("lint".to_string(), Value::Str(d.lint.clone())),
                ("message".to_string(), Value::Str(d.message.clone())),
            ];
            if let Some(r) = &d.allowed {
                m.push(("allowed_reason".to_string(), Value::Str(r.clone())));
            }
            Value::Map(m)
        };
        let strs = |v: &[String]| Value::Seq(v.iter().map(|s| Value::Str(s.clone())).collect());
        let mut root = vec![
            ("version".to_string(), Value::UInt(1)),
            (
                "violations".to_string(),
                Value::Seq(self.violations().map(diag_value).collect()),
            ),
            (
                "allowed".to_string(),
                Value::Seq(self.allowed().map(diag_value).collect()),
            ),
            (
                "files_scanned".to_string(),
                Value::UInt(self.files_scanned as u64),
            ),
            ("clean".to_string(), Value::Bool(self.clean())),
        ];
        if !self.coverage.is_empty() {
            let schemas = self
                .coverage
                .iter()
                .map(|cov| {
                    let surfaces = cov
                        .surfaces
                        .iter()
                        .map(|s| {
                            Value::Map(vec![
                                ("label".to_string(), Value::Str(s.label.clone())),
                                ("file".to_string(), Value::Str(s.file.clone())),
                                ("missing".to_string(), strs(&s.missing)),
                                ("stale".to_string(), strs(&s.stale)),
                                (
                                    "wildcards".to_string(),
                                    Value::Seq(
                                        s.wildcards
                                            .iter()
                                            .map(|&l| Value::UInt(u64::from(l)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect();
                    Value::Map(vec![
                        ("enum".to_string(), Value::Str(cov.enum_name.clone())),
                        ("variants".to_string(), strs(&cov.variants)),
                        ("surfaces".to_string(), Value::Seq(surfaces)),
                        ("dead".to_string(), strs(&cov.dead)),
                    ])
                })
                .collect();
            root.push(("coverage".to_string(), Value::Seq(schemas)));
        }
        serde_json::to_string_pretty(&Value::Map(root)).expect("report serializes")
    }
}

/// Recursively collects `.rs` files under `dir`, skipping any directory
/// named `vendor`, `target` or starting with `.`. The listing is sorted,
/// so diagnostics are emitted in a stable order across runs.
pub fn walk_rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            out.extend(walk_rs_files(&path));
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out
}

/// Runs the full pass (determinism lints + counter conservation +
/// trace-schema coverage) over the workspace at `root`.
///
/// Per-file raw findings from the determinism lints and the
/// conservation family are merged first, then each file's allow
/// annotations are applied exactly once over the combined set — so one
/// `detlint::allow` comment line can waive any lint, and unused-allow
/// detection sees the whole picture. Coverage diagnostics bypass
/// allows by design (a missing match arm is fixed, not waived).
pub fn run_check(root: &Path, cfg: &WorkspaceConfig) -> Report {
    let mut known = lints::lint_names();
    known.extend(conservation::lint_names());
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0usize;

    // Raw (pre-allow) findings per file. Every walked file gets an
    // entry even when clean, so unused-allow/bad-allow detection runs
    // everywhere; lexes are kept for the allow pass.
    let mut raw: std::collections::BTreeMap<String, Vec<Diagnostic>> =
        std::collections::BTreeMap::new();
    let mut lexes: std::collections::BTreeMap<String, lexer::Lexed> =
        std::collections::BTreeMap::new();

    for dir in &cfg.lint_dirs {
        for file in walk_rs_files(&root.join(dir)) {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let Ok(source) = std::fs::read_to_string(&file) else {
                continue;
            };
            files_scanned += 1;
            let opts = LintOptions {
                spawn_sanctioned: cfg
                    .spawn_sanctioned
                    .iter()
                    .any(|s| s.as_os_str() == std::ffi::OsStr::new(&rel)),
            };
            let (found, lexed) = lints::lint_source(&rel, &source, &opts);
            raw.entry(rel.clone()).or_default().extend(found);
            lexes.insert(rel, lexed);
        }
    }

    for d in conservation::analyze(root, &cfg.conservation) {
        raw.entry(d.file.clone()).or_default().push(d);
    }

    for (rel, found) in raw {
        // Conservation targets outside the walked lint dirs still get
        // their allow annotations honored: lex on demand.
        let lexed = lexes.remove(&rel).or_else(|| {
            std::fs::read_to_string(root.join(&rel))
                .ok()
                .map(|src| lexer::lex(&src))
        });
        match lexed {
            Some(lx) => diagnostics.extend(diag::apply_allows(
                &rel,
                &lx.comments,
                &lx.tokens,
                &known,
                found,
            )),
            None => diagnostics.extend(found),
        }
    }

    let coverage = cfg
        .coverage
        .iter()
        .map(|cov_cfg| {
            let (cov_diags, summary) = coverage::analyze(root, cov_cfg);
            diagnostics.extend(cov_diags);
            summary
        })
        .collect();

    // Deduplicate (identical findings can only arise from overlapping
    // scope configuration, but the report must be stable regardless) and
    // order deterministically.
    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
    });
    diagnostics.dedup_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).eq(&(&b.file, b.line, &b.lint, &b.message))
    });

    Report {
        diagnostics,
        coverage,
        files_scanned,
    }
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_vendor_and_sorts() {
        let tmp = std::env::temp_dir().join(format!("detlint-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(tmp.join("a/vendor/deep")).unwrap();
        std::fs::create_dir_all(tmp.join("a/target")).unwrap();
        std::fs::create_dir_all(tmp.join("b")).unwrap();
        std::fs::write(tmp.join("a/z.rs"), "").unwrap();
        std::fs::write(tmp.join("a/vendor/deep/x.rs"), "").unwrap();
        std::fs::write(tmp.join("a/target/y.rs"), "").unwrap();
        std::fs::write(tmp.join("b/a.rs"), "").unwrap();
        std::fs::write(tmp.join("b/readme.md"), "").unwrap();
        let files: Vec<String> = walk_rs_files(&tmp)
            .into_iter()
            .map(|p| p.strip_prefix(&tmp).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, ["a/z.rs", "b/a.rs"]);
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn report_json_is_valid_and_flags_clean() {
        let report = Report {
            diagnostics: vec![
                Diagnostic::new("a.rs", 3, "wall-clock", "boom"),
                Diagnostic {
                    allowed: Some("why".into()),
                    ..Diagnostic::new("a.rs", 9, "hash-iter", "ok")
                },
            ],
            coverage: Vec::new(),
            files_scanned: 1,
        };
        assert!(!report.clean());
        let v: Value = serde_json::from_str(&report.to_json()).expect("valid json");
        assert_eq!(v.get("clean"), Some(&Value::Bool(false)));
        let viols = v.get("violations").unwrap().as_seq().unwrap();
        assert_eq!(viols.len(), 1);
    }
}

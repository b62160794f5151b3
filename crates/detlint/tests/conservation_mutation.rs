//! Mutation tests for the counter-conservation family: duplicating an
//! increment site, deleting the sole increment site of a ring counter,
//! deleting an audit disposition arm, stripping a written waiver,
//! un-summing a per-shard counter, and removing a crate root's
//! `#![forbid(unsafe_code)]` must each fail the pass. The real workspace
//! files are copied into a scratch tree and mutated there.

use std::fs;
use std::path::{Path, PathBuf};

use detlint::conservation::{self, ConservationConfig};
use detlint::{diag, lexer, Diagnostic};

/// Every file the repo-default conservation contract touches: counter
/// definitions, increment scopes, audit surfaces, and the crate roots
/// under the forbid-unsafe meta-check.
const FILES: &[&str] = &[
    "crates/metrics/src/summary.rs",
    "crates/fleet/src/cluster.rs",
    "crates/obs/src/audit.rs",
    "crates/uring/src/lib.rs",
    "crates/simcore/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/tcp/src/lib.rs",
    "crates/cpu/src/lib.rs",
    "crates/servers/src/lib.rs",
    "crates/workload/src/lib.rs",
    "crates/fault/src/lib.rs",
    "crates/metrics/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/fleet/src/lib.rs",
    "crates/dag/src/lib.rs",
    "crates/dag/src/summary.rs",
    "crates/dag/src/driver.rs",
    "src/lib.rs",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    let root = workspace_root();
    for f in FILES {
        let dst = dir.join(f);
        fs::create_dir_all(dst.parent().unwrap()).unwrap();
        fs::copy(root.join(f), dst).unwrap();
    }
    dir
}

/// Runs the conservation family over the scratch tree and applies each
/// file's `detlint::allow` annotations exactly like `detlint::run_check`
/// does, returning only the unallowed findings — the ones that fail the
/// build.
fn violations(dir: &Path) -> Vec<Diagnostic> {
    let known = conservation::lint_names();
    let raw = conservation::analyze(dir, &ConservationConfig::repo_default());
    let mut by_file: std::collections::BTreeMap<String, Vec<Diagnostic>> = Default::default();
    for d in raw {
        by_file.entry(d.file.clone()).or_default().push(d);
    }
    let mut out = Vec::new();
    for (rel, found) in by_file {
        match fs::read_to_string(dir.join(&rel)).ok().map(|s| lexer::lex(&s)) {
            Some(lx) => out.extend(diag::apply_allows(&rel, &lx.comments, &lx.tokens, &known, found)),
            None => out.extend(found),
        }
    }
    out.retain(|d| d.allowed.is_none());
    out
}

fn mutate(dir: &Path, file: &str, f: impl FnOnce(&str) -> String) {
    let path = dir.join(file);
    let orig = fs::read_to_string(&path).unwrap();
    let mutated = f(&orig);
    assert_ne!(orig, mutated, "{file}: mutation must change the file");
    fs::write(&path, mutated).unwrap();
}

/// Removes every match arm / block referencing `path`, tracking brace
/// depth so multi-line arms are removed whole (shared with the coverage
/// mutation tests' approach).
fn delete_kind(src: &str, path: &str) -> String {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut skipping = false;
    for line in src.lines() {
        let net = line.matches('{').count() as i32 - line.matches('}').count() as i32;
        if skipping {
            depth += net;
            if depth <= 0 {
                skipping = false;
            }
            continue;
        }
        if line.contains(path) {
            if net > 0 {
                skipping = true;
                depth = net;
            }
            continue;
        }
        out.push(line);
    }
    out.join("\n") + "\n"
}

#[test]
fn baseline_scratch_tree_passes() {
    let dir = scratch("consmut-baseline");
    let v = violations(&dir);
    assert!(v.is_empty(), "{v:?}");
}

/// A second textual increment site for a counter that already has one —
/// the classic double-count refactoring accident — is flagged.
#[test]
fn duplicating_an_increment_site_fails() {
    let dir = scratch("consmut-dup");
    mutate(&dir, "crates/fleet/src/cluster.rs", |src| {
        format!("{src}\nfn consmut_extra() {{ let mut retries = 0u64; retries += 1; let _ = retries; }}\n")
    });
    let v = violations(&dir);
    assert!(
        v.iter()
            .any(|d| d.lint == "counter-dup-increment" && d.message.contains("retries")),
        "{v:?}"
    );
}

/// Deleting the sole increment site of a ring counter leaves a defined
/// field that reports a constant lie — `counter-dead`.
#[test]
fn deleting_the_sole_increment_site_fails() {
    let dir = scratch("consmut-dead");
    mutate(&dir, "crates/uring/src/lib.rs", |src| {
        src.replace("self.counters.sq_full += 1;", "")
    });
    let v = violations(&dir);
    assert!(
        v.iter().any(|d| d.lint == "counter-dead" && d.message.contains("sq_full")),
        "{v:?}"
    );
}

/// Deleting the audit disposition arm that reads a counter (here
/// `TraceKind::Retry`, which reconciles `s.retries`) makes the field
/// unaudited.
#[test]
fn deleting_an_audit_arm_fails() {
    let dir = scratch("consmut-unaudited");
    mutate(&dir, "crates/obs/src/audit.rs", |src| {
        delete_kind(src, "TraceKind::Retry =>")
    });
    let v = violations(&dir);
    assert!(
        v.iter()
            .any(|d| d.lint == "counter-unaudited" && d.message.contains("retries")),
        "{v:?}"
    );
}

/// A waiver is load-bearing: stripping the written
/// `detlint::allow(counter-dead, ...)` from a deliberately-dead field
/// resurfaces the violation (and the conservation contract with it).
#[test]
fn stripping_a_waiver_fails() {
    let dir = scratch("consmut-waiver");
    mutate(&dir, "crates/metrics/src/summary.rs", |src| {
        src.lines()
            .filter(|l| {
                !(l.contains("detlint::allow(counter-dead")
                    && l.contains("abandoned snapshot deltas"))
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    });
    let v = violations(&dir);
    assert!(
        v.iter().any(|d| d.lint == "counter-dead" && d.message.contains("abandoned")),
        "{v:?}"
    );
}

/// The DAG per-tier counters are under the same contract: deleting the
/// sole increment site of `orphans` (a counter with no trace-event
/// mirror — it is only closed by the reply-conservation identity) leaves
/// a dead field.
#[test]
fn deleting_a_dag_increment_site_fails() {
    let dir = scratch("consmut-dag-dead");
    mutate(&dir, "crates/dag/src/driver.rs", |src| {
        src.replace("self.counters[cnode].orphans += 1;", "")
    });
    let v = violations(&dir);
    assert!(
        v.iter().any(|d| d.lint == "counter-dead" && d.message.contains("orphans")),
        "{v:?}"
    );
}

/// A second dispatch-count site in the DAG driver — the double-count a
/// refactor of `dispatch_child` could introduce — is flagged.
#[test]
fn duplicating_a_dag_increment_site_fails() {
    let dir = scratch("consmut-dag-dup");
    mutate(&dir, "crates/dag/src/driver.rs", |src| {
        format!(
            "{src}\nfn consmut_extra(t: &mut crate::summary::TierCounters) {{ t.dispatches += 1; }}\n"
        )
    });
    let v = violations(&dir);
    assert!(
        v.iter()
            .any(|d| d.lint == "counter-dup-increment" && d.message.contains("dispatches")),
        "{v:?}"
    );
}

/// Deleting `dag_audit`'s read of a per-tier counter makes the field
/// unaudited: every `TierCounters` field must be reconciled against the
/// trace or a conservation identity.
#[test]
fn deleting_a_dag_audit_read_fails() {
    let dir = scratch("consmut-dag-unaudited");
    mutate(&dir, "crates/dag/src/summary.rs", |src| {
        src.replace("sums.served += t.served;", "")
    });
    let v = violations(&dir);
    assert!(
        v.iter().any(|d| d.lint == "counter-unaudited" && d.message.contains("served")),
        "{v:?}"
    );
}

/// A per-shard counter the fleet driver's epilogue silently zeroes is
/// flagged by the `counter-unsummed` check.
#[test]
fn unsumming_a_per_shard_counter_fails() {
    let dir = scratch("consmut-unsummed");
    mutate(&dir, "crates/fleet/src/cluster.rs", |src| {
        src.replace("shed_dropped: d.shed_dropped,", "shed_dropped: 0,")
    });
    let v = violations(&dir);
    assert!(
        v.iter()
            .any(|d| d.lint == "counter-unsummed" && d.message.contains("shed_dropped")),
        "{v:?}"
    );
}

/// Removing `#![forbid(unsafe_code)]` from any sim crate root fails the
/// meta-check.
#[test]
fn removing_forbid_unsafe_fails() {
    let dir = scratch("consmut-unsafe");
    mutate(&dir, "crates/fleet/src/lib.rs", |src| {
        src.replace("#![forbid(unsafe_code)]\n", "")
    });
    let v = violations(&dir);
    assert!(
        v.iter().any(|d| d.lint == "forbid-unsafe" && d.file.ends_with("fleet/src/lib.rs")),
        "{v:?}"
    );
}

//! Determinism lints over the simulation crates.
//!
//! Everything this repository reports rests on seeded runs being bitwise
//! deterministic (the trace audit, the empty-fault-plan identity test and
//! the cross-thread property tests all assert exact equality). These lints
//! deny the constructs that silently break that property:
//!
//! | lint | denies | deterministic alternative |
//! |------|--------|---------------------------|
//! | `hash-iter` | `HashMap` / `HashSet` (iteration order varies per process) | `BTreeMap` / `BTreeSet` / index-keyed `Vec` |
//! | `wall-clock` | `Instant::now`, `SystemTime::now` | `SimTime` / the simulation clock |
//! | `ambient-rng` | `thread_rng`, `from_entropy`, `OsRng`, `rand::random` | seeded `asyncinv_simcore::Rng` |
//! | `thread-spawn` | `thread::spawn` / `scope` / `Builder` outside the sanctioned runner | `asyncinv::runner::parallel_map` |
//! | `unordered-float-reduce` | float `sum`/`product`/`fold` in a statement touching a hash container | reduce over a sorted/ordered sequence |
//!
//! Each site can be waived with
//! `// detlint::allow(<lint>, reason = "...")` (see [`crate::diag`]).

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token};

/// The determinism lints: `(name, what it denies)`. These are the names
/// valid inside `detlint::allow(...)`.
pub const LINTS: &[(&str, &str)] = &[
    (
        "hash-iter",
        "HashMap/HashSet: iteration order is nondeterministic across processes",
    ),
    (
        "wall-clock",
        "Instant::now/SystemTime::now: wall-clock reads differ between runs",
    ),
    (
        "ambient-rng",
        "thread_rng/from_entropy/OsRng: platform entropy breaks seeded replay",
    ),
    (
        "thread-spawn",
        "thread::spawn/scope/Builder outside the sanctioned runner module",
    ),
    (
        "unordered-float-reduce",
        "float reduction over an unordered container: FP addition is not associative",
    ),
];

/// The names from [`LINTS`].
pub fn lint_names() -> Vec<&'static str> {
    LINTS.iter().map(|(n, _)| *n).collect()
}

/// Per-file lint options.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// `true` for the sanctioned thread-runner module: `thread-spawn` is
    /// waived there (it is the one place OS threads may be created, and
    /// its output-ordering contract is property-tested).
    pub spawn_sanctioned: bool,
}

/// `true` if `tokens[i..]` is `:: ident` for one of `names`.
fn path_seg(tokens: &[Token], i: usize, names: &[&str]) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens
            .get(i + 2)
            .and_then(Token::ident)
            .is_some_and(|id| names.contains(&id))
}

/// Runs the determinism lints over one file's source. Allow annotations
/// are *not* applied here — callers feed the result through
/// [`crate::diag::apply_allows`].
pub fn lint_source(
    file: &str,
    source: &str,
    opts: &LintOptions,
) -> (Vec<Diagnostic>, crate::lexer::Lexed) {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    // Statement-local state for unordered-float-reduce: did the current
    // statement mention a hash container?
    let mut stmt_hash = false;

    for (i, t) in toks.iter().enumerate() {
        match &t.text {
            crate::lexer::TokenText::Punct(';' | '{' | '}') => {
                stmt_hash = false;
            }
            crate::lexer::TokenText::Ident(id) => match id.as_str() {
                "HashMap" | "HashSet" => {
                    stmt_hash = true;
                    out.push(Diagnostic::new(
                        file,
                        t.line,
                        "hash-iter",
                        format!(
                            "{id} iterates in nondeterministic order; use BTree{} or an index-keyed Vec",
                            if id == "HashMap" { "Map" } else { "Set" }
                        ),
                    ));
                }
                "Instant" | "SystemTime" if path_seg(toks, i + 1, &["now"]) => {
                    out.push(Diagnostic::new(
                        file,
                        t.line,
                        "wall-clock",
                        format!("{id}::now() reads the wall clock; simulations must use SimTime"),
                    ));
                }
                "thread_rng" | "from_entropy" | "OsRng" => {
                    out.push(Diagnostic::new(
                        file,
                        t.line,
                        "ambient-rng",
                        format!("{id} draws platform entropy; use a seeded asyncinv_simcore::Rng"),
                    ));
                }
                "rand" if path_seg(toks, i + 1, &["random"]) => {
                    out.push(Diagnostic::new(
                        file,
                        t.line,
                        "ambient-rng",
                        "rand::random draws platform entropy; use a seeded asyncinv_simcore::Rng",
                    ));
                }
                "thread"
                    if !opts.spawn_sanctioned
                        && path_seg(toks, i + 1, &["spawn", "scope", "Builder"]) =>
                {
                    out.push(Diagnostic::new(
                        file,
                        t.line,
                        "thread-spawn",
                        "OS threads outside the sanctioned runner module; \
                         use asyncinv::runner::parallel_map",
                    ));
                }
                "sum" | "product" | "fold"
                    if stmt_hash
                        && toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.')) =>
                {
                    out.push(Diagnostic::new(
                        file,
                        t.line,
                        "unordered-float-reduce",
                        format!(
                            ".{id}() in a statement using a hash container: float reduction \
                             order would be nondeterministic; sort or use an ordered container"
                        ),
                    ));
                }
                _ => {}
            },
            _ => {}
        }
    }
    (out, lexed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<(String, u32)> {
        let (diags, _) = lint_source("t.rs", src, &LintOptions::default());
        diags.into_iter().map(|d| (d.lint, d.line)).collect()
    }

    #[test]
    fn each_lint_fires_on_its_pattern() {
        assert_eq!(
            lints_of("use std::collections::HashMap;"),
            [("hash-iter".to_string(), 1)]
        );
        assert_eq!(
            lints_of("let t = std::time::Instant::now();"),
            [("wall-clock".to_string(), 1)]
        );
        assert_eq!(
            lints_of("let t = SystemTime::now();"),
            [("wall-clock".to_string(), 1)]
        );
        assert_eq!(
            lints_of("let r = rand::thread_rng();"),
            [("ambient-rng".to_string(), 1)]
        );
        assert_eq!(
            lints_of("let h = std::thread::spawn(f);"),
            [("thread-spawn".to_string(), 1)]
        );
        assert_eq!(
            lints_of("std::thread::scope(|s| {});"),
            [("thread-spawn".to_string(), 1)]
        );
    }

    #[test]
    fn float_reduce_needs_a_hash_container_in_the_statement() {
        let src = "let s: f64 = m.values().sum();";
        assert!(lints_of(src).is_empty(), "no hash container in sight");
        let src = "let s: f64 = HashMap::from(p).values().sum();";
        let got = lints_of(src);
        assert!(got.contains(&("hash-iter".to_string(), 1)));
        assert!(got.contains(&("unordered-float-reduce".to_string(), 1)));
    }

    #[test]
    fn comments_strings_and_unrelated_idents_do_not_fire() {
        assert!(lints_of("// HashMap::new() and Instant::now()").is_empty());
        assert!(lints_of("let s = \"HashMap thread_rng\";").is_empty());
        assert!(lints_of("let spawned = spawn_thread(\"t\");").is_empty());
        assert!(lints_of("let x = instant.now;").is_empty());
        assert!(lints_of("thread::sleep(d);").is_empty());
    }

    #[test]
    fn sanctioned_module_waives_thread_spawn_only() {
        let opts = LintOptions {
            spawn_sanctioned: true,
        };
        let (d, _) = lint_source("runner.rs", "std::thread::scope(|s| {});", &opts);
        assert!(d.is_empty());
        let (d, _) = lint_source("runner.rs", "let t = Instant::now();", &opts);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn statement_boundaries_reset_the_hash_context() {
        let src = "let m = HashMap::new();\nlet s: f64 = v.iter().sum();";
        let got = lints_of(src);
        assert_eq!(got, [("hash-iter".to_string(), 1)]);
    }
}

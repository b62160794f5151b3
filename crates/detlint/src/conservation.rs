//! Counter-conservation dataflow: every counter field is incremented in
//! exactly one place, consumed by an audit, and folded by the fleet
//! driver's epilogue.
//!
//! The repo's headline guarantee is bitwise reproducibility of the
//! Table I–IV counters. That only means something if the counters
//! themselves obey conservation: a field incremented from two sites can
//! double-count under refactoring, a field no audit reads can rot
//! silently, and a per-shard counter the epilogue drops reports zero
//! forever. This pass mechanizes those conventions at the token level:
//!
//! | lint | violation |
//! |------|-----------|
//! | `counter-dup-increment` | a counter field has more than one increment site per file |
//! | `counter-dead` | a counter field is defined but never incremented anywhere in scope |
//! | `counter-unaudited` | no audit surface ever reads the field |
//! | `counter-unsummed` | a per-shard counter is not folded by the fleet-driver epilogue |
//! | `forbid-unsafe` | a sim crate root without `#![forbid(unsafe_code)]` |
//!
//! Site classification is heuristic but truthful for the patterns the
//! workspace actually uses:
//!
//! * `f += rhs` is an **increment site** unless `rhs` mentions `f`
//!   itself (`sq_submits += ud.sq_submits` is aggregation — the real
//!   increment lives behind `ud`).
//! * `f = <expr>` is a **high-water increment site** when `<expr>`
//!   mentions `f` exactly once and calls `max` (`hw = hw.max(x)`);
//!   two mentions (`self.hw = self.hw.max(other.hw)`) is aggregation.
//! * struct-literal fields (`f: expr`, shorthand `f,`) never match.
//! * a site counts in any form: through a struct (`cnt.f += 1`) or as
//!   a bare local (`f += 1`). Each counter may have one site per scope
//!   file, so a running local that shadows a struct counter is a second
//!   owner of the same quantity and fails.
//!
//! Every finding can be waived with
//! `// detlint::allow(<lint>, reason = "...")` at the reported line —
//! the escape hatch doubles as the "explicit reasoned waiver" the
//! conservation contract demands for deliberately-unaudited
//! diagnostics counters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::coverage::{item_body, SurfaceItem};
use crate::diag::Diagnostic;
use crate::lexer::{lex, Lexed, Token};

/// The conservation lints: `(name, what it denies)`. These names are
/// valid inside `detlint::allow(...)`.
pub const CONSERVATION_LINTS: &[(&str, &str)] = &[
    (
        "counter-dup-increment",
        "a counter field with more than one increment site can double-count",
    ),
    (
        "counter-dead",
        "a counter field that is never incremented reports a constant lie",
    ),
    (
        "counter-unaudited",
        "a counter no audit disposition reads can rot unnoticed",
    ),
    (
        "counter-unsummed",
        "a per-shard counter the fleet-driver epilogue drops always reports zero",
    ),
    (
        "forbid-unsafe",
        "sim crate roots must carry #![forbid(unsafe_code)]",
    ),
];

/// The names from [`CONSERVATION_LINTS`].
pub fn lint_names() -> Vec<&'static str> {
    CONSERVATION_LINTS.iter().map(|(n, _)| *n).collect()
}

/// One function whose body *consumes* counter fields by reading them as
/// `<recv>.<field>` — an audit disposition or a driver epilogue.
#[derive(Debug, Clone)]
pub struct AuditSurface {
    /// File the function lives in, relative to the workspace root.
    pub file: PathBuf,
    /// The function's name.
    pub func: String,
    /// Receiver identifiers whose field reads count as consumption
    /// (closure parameters like `|s| s.retries` use `s`).
    pub recv: Vec<String>,
    /// Human-readable label for diagnostics.
    pub label: String,
}

impl AuditSurface {
    pub fn new(file: &str, func: &str, recv: &[&str], label: &str) -> Self {
        AuditSurface {
            file: file.into(),
            func: func.into(),
            recv: recv.iter().map(|r| r.to_string()).collect(),
            label: label.into(),
        }
    }
}

/// Conservation contract for one counter struct.
#[derive(Debug, Clone)]
pub struct CounterSpec {
    /// The struct's name (`RunSummary`, `UringCounters`, ...).
    pub strukt: String,
    /// File defining the struct, relative to the workspace root.
    pub def_file: PathBuf,
    /// `u64` fields excluded from the contract (derived quantities such
    /// as percentile latencies that happen to share the type).
    pub exclude: Vec<String>,
    /// `(field, site_name)` pairs: the field's increment sites use a
    /// different name (`shard_routes` is counted per shard as `routes`).
    pub aliases: Vec<(String, String)>,
    /// Files scanned for increment sites.
    pub scopes: Vec<PathBuf>,
    /// Run the one-increment-site / dead-counter checks. Off for pure
    /// fold targets (`ShardSummary` is only ever built whole from
    /// deltas).
    pub check_increments: bool,
    /// Audit surfaces; a field read by none of them is
    /// `counter-unaudited`. Empty disables the check.
    pub audits: Vec<AuditSurface>,
    /// Epilogue surfaces that must **each** fold every field
    /// (`counter-unsummed` otherwise). Empty disables the check.
    pub summed: Vec<AuditSurface>,
}

/// Configuration for the whole conservation family.
#[derive(Debug, Clone)]
pub struct ConservationConfig {
    /// Counter structs under contract.
    pub specs: Vec<CounterSpec>,
    /// Crate roots that must carry `#![forbid(unsafe_code)]`.
    pub forbid_unsafe_roots: Vec<PathBuf>,
}

impl ConservationConfig {
    /// The real workspace contract: `RunSummary` (Table I–IV counters),
    /// the fleet driver's `Counters`/`ShardSummary`, the DAG driver's
    /// `TierCounters`, `UringCounters`, and unsafe-free sim crates.
    pub fn repo_default() -> Self {
        let disposition = AuditSurface::new(
            "crates/obs/src/audit.rs",
            "disposition",
            &["s"],
            "trace-audit disposition (audit::disposition)",
        );
        let trace_audit = AuditSurface::new(
            "crates/obs/src/audit.rs",
            "audit",
            &["summary"],
            "trace-audit reconciliation (audit::audit)",
        );
        let fleet_audit = AuditSurface::new(
            "crates/fleet/src/cluster.rs",
            "fleet_audit",
            &["s", "fleet"],
            "fleet-audit per-shard sums (cluster::fleet_audit)",
        );
        let crate_roots = [
            "simcore", "core", "tcp", "cpu", "servers", "workload", "fault", "metrics", "obs",
            "bench", "fleet", "uring", "dag",
        ];
        let mut forbid_unsafe_roots: Vec<PathBuf> = crate_roots
            .iter()
            .map(|c| PathBuf::from(format!("crates/{c}/src/lib.rs")))
            .collect();
        forbid_unsafe_roots.push("src/lib.rs".into());
        ConservationConfig {
            specs: vec![
                CounterSpec {
                    strukt: "RunSummary".into(),
                    def_file: "crates/metrics/src/summary.rs".into(),
                    // Derived latency stats share the u64 type but are
                    // computed from the histogram, not counted.
                    exclude: [
                        "added_latency_us",
                        "mean_rt_us",
                        "p50_rt_us",
                        "p95_rt_us",
                        "p99_rt_us",
                    ]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                    aliases: vec![("shard_routes".into(), "routes".into())],
                    scopes: vec!["crates/fleet/src/cluster.rs".into()],
                    check_increments: true,
                    audits: vec![disposition.clone(), trace_audit],
                    summed: Vec::new(),
                },
                CounterSpec {
                    strukt: "Counters".into(),
                    def_file: "crates/fleet/src/cluster.rs".into(),
                    exclude: Vec::new(),
                    aliases: Vec::new(),
                    scopes: vec!["crates/fleet/src/cluster.rs".into()],
                    check_increments: true,
                    audits: vec![fleet_audit.clone()],
                    summed: vec![AuditSurface::new(
                        "crates/fleet/src/cluster.rs",
                        "drive",
                        &["d"],
                        "fleet driver epilogue (cluster::drive)",
                    )],
                },
                CounterSpec {
                    strukt: "ShardSummary".into(),
                    def_file: "crates/fleet/src/cluster.rs".into(),
                    exclude: Vec::new(),
                    aliases: Vec::new(),
                    scopes: Vec::new(),
                    // ShardSummary is built whole from counter deltas;
                    // its contract is consumption by the fleet audit.
                    check_increments: false,
                    audits: vec![fleet_audit],
                    summed: Vec::new(),
                },
                CounterSpec {
                    strukt: "TierCounters".into(),
                    def_file: "crates/dag/src/summary.rs".into(),
                    exclude: Vec::new(),
                    aliases: Vec::new(),
                    // The DAG driver is the only increment scope; the
                    // summary's fold (`sums.x += t.x`) and the bench
                    // studies only read the finished counters.
                    scopes: vec!["crates/dag/src/driver.rs".into()],
                    check_increments: true,
                    audits: vec![AuditSurface::new(
                        "crates/dag/src/summary.rs",
                        "dag_audit",
                        &["t", "root"],
                        "dag-audit per-tier reconciliation (summary::dag_audit)",
                    )],
                    summed: Vec::new(),
                },
                CounterSpec {
                    strukt: "UringCounters".into(),
                    def_file: "crates/uring/src/lib.rs".into(),
                    exclude: Vec::new(),
                    aliases: Vec::new(),
                    scopes: vec!["crates/uring/src/lib.rs".into()],
                    check_increments: true,
                    // Ring traffic flows into the same-named RunSummary
                    // fields the trace audit reconciles; purely
                    // diagnostic ring fields carry waivers at their
                    // definitions.
                    audits: vec![disposition],
                    summed: Vec::new(),
                },
            ],
            forbid_unsafe_roots,
        }
    }
}

/// `tokens[j..)` up to (exclusive) the end of the current expression:
/// the first `;` or `,` at delimiter depth zero, or an unmatched
/// closing delimiter.
fn expr_end(tokens: &[Token], mut j: usize) -> usize {
    let mut depth = 0i32;
    while j < tokens.len() {
        if let crate::lexer::TokenText::Punct(c) = &tokens[j].text {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ';' | ',' if depth == 0 => break,
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// Extracts `(field_name, line)` for every `u64` field of
/// `struct <name> { ... }`.
fn struct_u64_fields(tokens: &[Token], name: &str) -> Option<Vec<(String, u32)>> {
    let mut i = 0;
    while i + 2 < tokens.len() {
        if tokens[i].is_ident("struct")
            && tokens[i + 1].is_ident(name)
            && tokens[i + 2].is_punct('{')
        {
            let mut fields = Vec::new();
            let mut depth = 1usize;
            let mut j = i + 3;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].text {
                    crate::lexer::TokenText::Punct('{')
                    | crate::lexer::TokenText::Punct('(')
                    | crate::lexer::TokenText::Punct('[') => depth += 1,
                    crate::lexer::TokenText::Punct('}')
                    | crate::lexer::TokenText::Punct(')')
                    | crate::lexer::TokenText::Punct(']') => depth -= 1,
                    crate::lexer::TokenText::Ident(id)
                        if depth == 1
                            && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                            && tokens.get(j + 2).is_some_and(|t| t.is_ident("u64")) =>
                    {
                        fields.push((id.clone(), tokens[j].line));
                    }
                    _ => {}
                }
                j += 1;
            }
            return Some(fields);
        }
        i += 1;
    }
    None
}

/// Finds the line of every increment site for counter `name` in a
/// token stream, per the classification rules in the module docs.
fn increment_sites(tokens: &[Token], name: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident(name) {
            continue;
        }
        // `name += rhs`
        if tokens.get(i + 1).is_some_and(|t| t.is_punct('+'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let end = expr_end(tokens, i + 3);
            let aggregates = tokens[i + 3..end].iter().any(|t| t.is_ident(name));
            if !aggregates {
                out.push(tokens[i].line);
            }
            continue;
        }
        // `name = name.max(x)` — high-water update. Skip `==` and `=>`.
        if tokens.get(i + 1).is_some_and(|t| t.is_punct('='))
            && !tokens.get(i + 2).is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
        {
            let end = expr_end(tokens, i + 2);
            let rhs = &tokens[i + 2..end];
            let mentions = rhs.iter().filter(|t| t.is_ident(name)).count();
            let has_max = rhs.iter().any(|t| t.is_ident("max"));
            if mentions == 1 && has_max {
                out.push(tokens[i].line);
            }
        }
    }
    out
}

/// `true` when `tokens` contain a `<recv>.<field>` read for any of the
/// given receivers.
fn consumes_field(tokens: &[Token], recv: &[String], field: &str) -> bool {
    tokens.iter().enumerate().any(|(i, t)| {
        t.ident().is_some_and(|id| recv.iter().any(|r| r == id))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident(field))
    })
}

/// Lazily read + lex files relative to a root, each at most once.
struct FileCache<'a> {
    root: &'a Path,
    map: BTreeMap<PathBuf, Option<(String, Lexed)>>,
}

impl<'a> FileCache<'a> {
    fn new(root: &'a Path) -> Self {
        FileCache {
            root,
            map: BTreeMap::new(),
        }
    }

    fn get(&mut self, file: &Path) -> Option<&(String, Lexed)> {
        if !self.map.contains_key(file) {
            let loaded = std::fs::read_to_string(self.root.join(file))
                .ok()
                .map(|src| {
                    let lexed = lex(&src);
                    (src, lexed)
                });
            self.map.insert(file.to_path_buf(), loaded);
        }
        self.map.get(file).and_then(|o| o.as_ref())
    }
}

fn rel(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// Runs the conservation family rooted at `root`. Allow annotations are
/// *not* applied here — [`crate::run_check`] feeds the result through
/// [`crate::diag::apply_allows`] per file. I/O failures (a missing
/// scope file, an unparsable struct) are diagnostics, not errors: a
/// contract the analyzer cannot see is a failed check.
pub fn analyze(root: &Path, cfg: &ConservationConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut cache = FileCache::new(root);

    for spec in &cfg.specs {
        analyze_spec(spec, &mut cache, &mut diags);
    }
    for file in &cfg.forbid_unsafe_roots {
        analyze_forbid_unsafe(file, &mut cache, &mut diags);
    }
    diags
}

fn analyze_spec(spec: &CounterSpec, cache: &mut FileCache<'_>, diags: &mut Vec<Diagnostic>) {
    let def_rel = rel(&spec.def_file);
    let Some((_, lexed)) = cache.get(&spec.def_file) else {
        diags.push(Diagnostic::new(
            &def_rel,
            0,
            "counter-dead",
            format!("cannot read {} definition file", spec.strukt),
        ));
        return;
    };
    let Some(fields) = struct_u64_fields(&lexed.tokens, &spec.strukt) else {
        diags.push(Diagnostic::new(
            &def_rel,
            0,
            "counter-dead",
            format!("struct {} not found in {}", spec.strukt, def_rel),
        ));
        return;
    };
    let fields: Vec<(String, u32)> = fields
        .into_iter()
        .filter(|(f, _)| !spec.exclude.contains(f))
        .collect();

    if spec.check_increments {
        for (field, def_line) in &fields {
            let site_name = spec
                .aliases
                .iter()
                .find(|(f, _)| f == field)
                .map(|(_, s)| s.as_str())
                .unwrap_or(field.as_str());
            let mut total = 0usize;
            for scope in &spec.scopes {
                let scope_rel = rel(scope);
                let Some((_, lexed)) = cache.get(scope) else {
                    diags.push(Diagnostic::new(
                        &scope_rel,
                        0,
                        "counter-dup-increment",
                        format!("cannot read increment scope for {}", spec.strukt),
                    ));
                    continue;
                };
                let sites = increment_sites(&lexed.tokens, site_name);
                total += sites.len();
                for extra in sites.iter().skip(1) {
                    diags.push(Diagnostic::new(
                        &scope_rel,
                        *extra,
                        "counter-dup-increment",
                        format!(
                            "{}.{field} has a second increment site here \
                             (first at {scope_rel}:{}); a counter must be \
                             incremented from exactly one place per scope",
                            spec.strukt, sites[0],
                        ),
                    ));
                }
            }
            if total == 0 {
                diags.push(Diagnostic::new(
                    &def_rel,
                    *def_line,
                    "counter-dead",
                    format!(
                        "{}.{field} is defined but never incremented in any \
                         configured scope — dead counter, or its increment \
                         site moved out of the conservation contract",
                        spec.strukt,
                    ),
                ));
            }
        }
    }

    if !spec.audits.is_empty() {
        for (field, def_line) in &fields {
            let mut consumed = false;
            for surface in &spec.audits {
                if surface_consumes(surface, field, cache, diags) {
                    consumed = true;
                    break;
                }
            }
            if !consumed {
                let labels: Vec<&str> = spec.audits.iter().map(|s| s.label.as_str()).collect();
                diags.push(Diagnostic::new(
                    &def_rel,
                    *def_line,
                    "counter-unaudited",
                    format!(
                        "{}.{field} is consumed by no audit surface ({}); \
                         audit it or waive it with a written reason",
                        spec.strukt,
                        labels.join(", "),
                    ),
                ));
            }
        }
    }

    for surface in &spec.summed {
        for (field, def_line) in &fields {
            if !surface_consumes(surface, field, cache, diags) {
                diags.push(Diagnostic::new(
                    &def_rel,
                    *def_line,
                    "counter-unsummed",
                    format!(
                        "{}.{field} is not folded by {}; every per-shard \
                         counter must reach the summary",
                        spec.strukt, surface.label,
                    ),
                ));
            }
        }
    }
}

/// `true` when `surface`'s function body reads `<recv>.<field>`.
/// Unreadable files / missing functions surface as diagnostics once via
/// the `false` path of the callers.
fn surface_consumes(
    surface: &AuditSurface,
    field: &str,
    cache: &mut FileCache<'_>,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let file_rel = rel(&surface.file);
    let Some((_, lexed)) = cache.get(&surface.file) else {
        push_once(
            diags,
            Diagnostic::new(
                &file_rel,
                0,
                "counter-unaudited",
                format!("cannot read audit surface file for {}", surface.label),
            ),
        );
        return false;
    };
    let Some((start, end, _)) = item_body(&lexed.tokens, SurfaceItem::Fn, &surface.func) else {
        push_once(
            diags,
            Diagnostic::new(
                &file_rel,
                0,
                "counter-unaudited",
                format!("fn `{}` not found ({})", surface.func, surface.label),
            ),
        );
        return false;
    };
    consumes_field(&lexed.tokens[start..end], &surface.recv, field)
}

/// Pushes `d` unless an identical diagnostic is already present
/// (missing-surface errors would otherwise repeat per field).
fn push_once(diags: &mut Vec<Diagnostic>, d: Diagnostic) {
    if !diags
        .iter()
        .any(|e| e.file == d.file && e.line == d.line && e.lint == d.lint && e.message == d.message)
    {
        diags.push(d);
    }
}

fn analyze_forbid_unsafe(file: &Path, cache: &mut FileCache<'_>, diags: &mut Vec<Diagnostic>) {
    let file_rel = rel(file);
    let Some((_, lexed)) = cache.get(file) else {
        diags.push(Diagnostic::new(
            &file_rel,
            0,
            "forbid-unsafe",
            "cannot read crate root for the forbid-unsafe check",
        ));
        return;
    };
    let tokens = &lexed.tokens;
    let has_attr = tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !has_attr {
        diags.push(Diagnostic::new(
            &file_rel,
            1,
            "forbid-unsafe",
            "sim crate root lacks #![forbid(unsafe_code)]; add it, or waive \
             with a written reason where unsafe is load-bearing",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str, name: &str) -> Vec<u32> {
        increment_sites(&lex(src).tokens, name)
    }

    #[test]
    fn plain_increments_count_in_any_form() {
        assert_eq!(sites("fn f() { retries += 1; }", "retries"), [1]);
        assert_eq!(sites("fn f() { ctls[s].cnt.retries += 1; }", "retries"), [1]);
        // A local beside a struct counter is two sites of one counter.
        assert_eq!(
            sites("fn f() {\n retries += 1;\n cnt.retries += 1; }", "retries"),
            [2, 3]
        );
    }

    #[test]
    fn aggregation_is_not_an_increment_site() {
        // Folding a delta whose RHS mentions the field is aggregation.
        assert!(sites("sq_submits += ud.sq_submits;", "sq_submits").is_empty());
        assert!(sites("self.hw = self.hw.max(other.hw);", "hw").is_empty());
        // Struct literals (shorthand or keyed) never match.
        assert!(sites("S { retries, timeouts: t }", "retries").is_empty());
        assert!(sites("S { retries: d.retries }", "retries").is_empty());
        // Derivation through a same-named method is not an increment.
        assert!(sites("let completions = window.completions();", "completions").is_empty());
    }

    #[test]
    fn high_water_updates_are_single_sites() {
        assert_eq!(sites("self.c.hw = self.c.hw.max(self.used as u64);", "hw"), [1]);
    }

    #[test]
    fn comparisons_and_match_arms_do_not_match() {
        assert!(sites("if retries == 3 {}", "retries").is_empty());
        assert!(sites("match x { retries => 1, _ => 0 }", "retries").is_empty());
    }

    #[test]
    fn u64_fields_parse_with_attributes_and_visibility() {
        let src = "
pub struct RunSummary {
    /// doc
    pub server: String,
    #[serde(default)]
    pub retries: u64,
    pub(crate) hedges: u64,
    pub throughput: f64,
    pub concurrency: usize,
}
";
        let fields = struct_u64_fields(&lex(src).tokens, "RunSummary").unwrap();
        let names: Vec<&str> = fields.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(names, ["retries", "hedges"]);
    }

    #[test]
    fn consumption_requires_the_configured_receiver() {
        let toks = lex("fn disposition() { let f = |s: &R| s.retries; }").tokens;
        assert!(consumes_field(&toks, &["s".into()], "retries"));
        assert!(!consumes_field(&toks, &["x".into()], "retries"));
        assert!(!consumes_field(&toks, &["s".into()], "timeouts"));
    }

    #[test]
    fn forbid_unsafe_fires() {
        let root = std::env::temp_dir().join(format!("detlint-cons-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("lib.rs"), "pub mod p;\n").unwrap();
        std::fs::write(root.join("safe.rs"), "#![forbid(unsafe_code)]\npub mod p;\n").unwrap();
        let cfg = ConservationConfig {
            specs: Vec::new(),
            forbid_unsafe_roots: vec!["lib.rs".into(), "safe.rs".into()],
        };
        let diags = analyze(&root, &cfg);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].lint == "forbid-unsafe" && diags[0].file == "lib.rs");
        let _ = std::fs::remove_dir_all(&root);
    }
}

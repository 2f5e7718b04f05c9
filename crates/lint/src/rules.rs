//! The token-stream rule engine: file classification, `c4u-lint` comment
//! directives (suppressions and hot-path markers), `#[cfg(test)]` region
//! tracking, and the six invariant rules.
//!
//! Every rule is grounded in a contract the workspace enforces dynamically
//! elsewhere (see ARCHITECTURE.md, "Static invariants"):
//!
//! | rule | contract it protects |
//! |---|---|
//! | `no-ambient-rng` | determinism: all randomness flows through seeded SplitMix64 stream splits |
//! | `no-wallclock` | determinism: results never depend on the wall clock; timing lives in `crates/bench` |
//! | `hashmap-iter-order` | determinism: unordered-map iteration order must not reach results |
//! | `scalar-libm-in-hot-path` | math modes: marked hot regions stay on the vectorised `vmath` layer |
//! | `no-unwrap-in-lib` | error discipline: numerical library code returns typed errors, never panics |
//! | `crate-hygiene` | every crate root carries `#![forbid(unsafe_code)]` and a `//!` overview naming its seam |

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// Rule: ambient OS-entropy randomness outside vendor/test code.
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
/// Rule: wall-clock reads (`Instant`/`SystemTime`) outside `crates/bench`.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Rule: `HashMap`/`HashSet` iteration in determinism-contract code.
pub const HASHMAP_ITER_ORDER: &str = "hashmap-iter-order";
/// Rule: scalar libm calls inside marked hot-path regions.
pub const SCALAR_LIBM_IN_HOT_PATH: &str = "scalar-libm-in-hot-path";
/// Rule: `unwrap()`/`expect()` in numerical library code.
pub const NO_UNWRAP_IN_LIB: &str = "no-unwrap-in-lib";
/// Rule: crate roots carry `#![forbid(unsafe_code)]` and a `//!` doc comment.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// Meta-rule for malformed or unmatched `c4u-lint` directives themselves;
/// not suppressible.
pub const LINT_DIRECTIVE: &str = "lint-directive";

/// Every suppressible rule, in diagnostic-table order.
pub const ALL_RULES: [&str; 6] = [
    NO_AMBIENT_RNG,
    NO_WALLCLOCK,
    HASHMAP_ITER_ORDER,
    SCALAR_LIBM_IN_HOT_PATH,
    NO_UNWRAP_IN_LIB,
    CRATE_HYGIENE,
];

/// Identifiers that pull randomness from the OS instead of the seed seam.
const AMBIENT_RNG_IDENTS: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "ThreadRng",
    "getrandom",
];
/// Wall-clock types; `Duration` is deliberately absent (a span of time is
/// data, reading the clock is the side effect).
const WALLCLOCK_IDENTS: [&str; 2] = ["Instant", "SystemTime"];
/// Methods whose call on an unordered map observes iteration order.
const MAP_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];
/// Scalar libm calls banned inside hot-path regions.
const HOT_LIBM_METHODS: [&str; 3] = ["exp", "ln", "powf"];
/// Crates whose *library* code must not `unwrap()`/`expect()`.
const NO_UNWRAP_CRATES: [&str; 3] = ["linalg", "stats", "selection"];

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/<dir>/…` directory name, `None` for the root facade package.
    pub crate_dir: Option<String>,
    /// Under a `tests/`, `benches/`, or `examples/` directory.
    pub test_like: bool,
    /// A crate root (`src/lib.rs`).
    pub crate_root: bool,
}

/// Classifies a workspace-relative path (with `/` separators).
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_dir = if parts.len() > 2 && parts[0] == "crates" {
        Some(parts[1].to_string())
    } else {
        None
    };
    let test_like = parts[..parts.len().saturating_sub(1)]
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"));
    let crate_root = rel_path == "src/lib.rs"
        || (parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs");
    FileClass {
        crate_dir,
        test_like,
        crate_root,
    }
}

/// Parsed comment directives for one file.
struct Directives {
    /// `(rule, line)` pairs on which findings of `rule` are suppressed.
    allowed: BTreeSet<(String, u32)>,
    /// Inclusive line ranges marked `hot-path` … `end-hot-path`.
    hot_regions: Vec<(u32, u32)>,
}

impl Directives {
    fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allowed.contains(&(rule.to_string(), line))
    }
}

/// Strips the comment opener so directive text starts at column zero of
/// the comment body. Doc comments (`///`, `//!`, `/**`, `/*!`) are prose,
/// never directives, and return `None` — which also keeps documentation
/// that *mentions* the directive syntax inert.
fn comment_body(kind: TokenKind, text: &str) -> Option<String> {
    let body = match kind {
        TokenKind::LineComment => {
            let t = text.strip_prefix("//")?;
            if matches!(t.as_bytes().first(), Some(b'/') | Some(b'!')) {
                return None;
            }
            t.to_string()
        }
        TokenKind::BlockComment => {
            let t = text.strip_prefix("/*")?;
            if matches!(t.as_bytes().first(), Some(b'*') | Some(b'!')) && text != "/**/" {
                return None;
            }
            t.strip_suffix("*/").unwrap_or(t).to_string()
        }
        _ => return None,
    };
    Some(body.trim().to_string())
}

/// Parses `c4u-lint` directives out of the comment tokens, recording
/// suppressions and hot-path regions; malformed directives become
/// (unsuppressible) diagnostics.
fn parse_directives(lexed: &Lexed<'_>, path: &str, diags: &mut Vec<Diagnostic>) -> Directives {
    let mut allowed = BTreeSet::new();
    let mut hot_regions = Vec::new();
    let mut open_hot: Option<u32> = None;

    let mut directive_error = |tok: &Token, msg: String| {
        diags.push(Diagnostic {
            rule: LINT_DIRECTIVE,
            severity: Severity::Deny,
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            len: (tok.end - tok.start).min(200) as u32,
            message: msg,
            help: "directive forms: `// c4u-lint: allow(<rule>, reason = \"…\")`, \
                   `// c4u-lint: hot-path`, `// c4u-lint: end-hot-path`"
                .to_string(),
        });
    };

    for tok in &lexed.tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(body) = comment_body(tok.kind, lexed.text(tok)) else {
            continue;
        };
        let Some(rest) = body.strip_prefix("c4u-lint") else {
            continue;
        };
        let Some(rest) = rest.trim_start().strip_prefix(':') else {
            directive_error(tok, "`c4u-lint` directive is missing the `:`".to_string());
            continue;
        };
        let rest = rest.trim();
        let end_line = lexed.end_line(tok);
        if rest == "hot-path" {
            if open_hot.is_some() {
                directive_error(
                    tok,
                    "nested `hot-path` marker (previous region unclosed)".into(),
                );
            } else {
                open_hot = Some(tok.line);
            }
        } else if rest == "end-hot-path" {
            match open_hot.take() {
                Some(start) => hot_regions.push((start, end_line)),
                None => directive_error(tok, "`end-hot-path` without an open `hot-path`".into()),
            }
        } else if let Some(args) = rest.strip_prefix("allow") {
            let args = args.trim_start();
            let inner = args
                .strip_prefix('(')
                .and_then(|a| a.rfind(')').map(|p| &a[..p]));
            let Some(inner) = inner else {
                directive_error(
                    tok,
                    "`allow` directive is missing its `(…)` argument".into(),
                );
                continue;
            };
            let Some((rule, reason)) = inner.split_once(',') else {
                directive_error(
                    tok,
                    "`allow` needs a reason: `allow(<rule>, reason = \"…\")`".into(),
                );
                continue;
            };
            let rule = rule.trim();
            if !ALL_RULES.contains(&rule) {
                directive_error(tok, format!("`allow` names unknown rule `{rule}`"));
                continue;
            }
            let reason_ok = reason
                .trim()
                .strip_prefix("reason")
                .map(|r| r.trim_start())
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim)
                .is_some_and(|r| r.len() > 2 && r.starts_with('"') && r.ends_with('"'));
            if !reason_ok {
                directive_error(
                    tok,
                    format!("`allow({rule})` is missing a non-empty `reason = \"…\"`"),
                );
                continue;
            }
            // Suppress on the directive's own line(s) and the next line, so
            // both trailing and line-above placements work.
            allowed.insert((rule.to_string(), tok.line));
            allowed.insert((rule.to_string(), end_line));
            allowed.insert((rule.to_string(), end_line + 1));
        } else {
            directive_error(tok, format!("unrecognised `c4u-lint` directive `{rest}`"));
        }
    }
    if let Some(start) = open_hot {
        diags.push(Diagnostic {
            rule: LINT_DIRECTIVE,
            severity: Severity::Deny,
            path: path.to_string(),
            line: start,
            col: 1,
            len: 1,
            message: "`hot-path` region is never closed (`end-hot-path` missing)".into(),
            help: "close the region with `// c4u-lint: end-hot-path`".into(),
        });
    }
    Directives {
        allowed,
        hot_regions,
    }
}

/// Runs every rule over one file and returns its findings, sorted by
/// position. `rel_path` must be workspace-relative with `/` separators —
/// rules are scoped by crate and directory.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let class = classify(rel_path);
    let lexed = lex(source);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let directives = parse_directives(&lexed, rel_path, &mut diags);

    let code: Vec<&Token> = lexed
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let test_regions = cfg_test_regions(&lexed, &code);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| (a..=b).contains(&line));
    let in_hot = |line: u32| {
        directives
            .hot_regions
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    };

    let text = |t: &Token| lexed.text(t);
    let finding = |rule: &'static str, t: &Token, message: String, help: &str| Diagnostic {
        rule,
        severity: Severity::Deny,
        path: rel_path.to_string(),
        line: t.line,
        col: t.col,
        len: (t.end - t.start) as u32,
        message,
        help: help.to_string(),
    };

    // --- no-ambient-rng -----------------------------------------------------
    if !class.test_like {
        for t in &code {
            if t.kind == TokenKind::Ident
                && AMBIENT_RNG_IDENTS.contains(&text(t))
                && !in_test(t.line)
            {
                diags.push(finding(
                    NO_AMBIENT_RNG,
                    t,
                    format!(
                        "`{}` draws ambient OS entropy; all randomness must flow through \
                         the seeded SplitMix64 stream-split seam",
                        text(t)
                    ),
                    "derive a stream from the platform/dataset seed \
                     (`StdRng::seed_from_u64` + per-(round, worker) splits); \
                     or `// c4u-lint: allow(no-ambient-rng, reason = \"…\")`",
                ));
            }
        }
    }

    // --- no-wallclock -------------------------------------------------------
    if class.crate_dir.as_deref() != Some("bench") {
        for t in &code {
            if t.kind == TokenKind::Ident && WALLCLOCK_IDENTS.contains(&text(t)) {
                diags.push(finding(
                    NO_WALLCLOCK,
                    t,
                    format!(
                        "`{}` reads the wall clock outside `crates/bench`; results must \
                         not depend on time",
                        text(t)
                    ),
                    "move timing into the bench harness; \
                     or `// c4u-lint: allow(no-wallclock, reason = \"…\")`",
                ));
            }
        }
    }

    // --- hashmap-iter-order -------------------------------------------------
    if !class.test_like {
        let maps = collect_map_idents(&lexed, &code);
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokenKind::Ident || in_test(t.line) {
                continue;
            }
            // `recv.method(` where recv is a known unordered map.
            if MAP_ITER_METHODS.contains(&text(t))
                && i >= 2
                && text(code[i - 1]) == "."
                && code[i - 2].kind == TokenKind::Ident
                && maps.contains(text(code[i - 2]))
                && code.get(i + 1).is_some_and(|n| text(n) == "(")
            {
                diags.push(finding(
                    HASHMAP_ITER_ORDER,
                    t,
                    format!(
                        "`.{}()` on the unordered map `{}`: iteration order is \
                         unspecified and can leak into results",
                        text(t),
                        text(code[i - 2])
                    ),
                    "iterate in sorted key/WorkerId order or switch to `BTreeMap`; \
                     lookups (`get`/`entry`/`insert`) are fine; \
                     or `// c4u-lint: allow(hashmap-iter-order, reason = \"…\")`",
                ));
            }
            // `for pat in &map {` / `for pat in map {`.
            if text(t) == "in" {
                let mut j = i + 1;
                while code
                    .get(j)
                    .is_some_and(|n| text(n) == "&" || text(n) == "mut")
                {
                    j += 1;
                }
                if let (Some(name), Some(open)) = (code.get(j), code.get(j + 1)) {
                    if name.kind == TokenKind::Ident
                        && maps.contains(text(name))
                        && text(open) == "{"
                    {
                        diags.push(finding(
                            HASHMAP_ITER_ORDER,
                            name,
                            format!(
                                "`for … in` over the unordered map `{}`: iteration order \
                                 is unspecified and can leak into results",
                                text(name)
                            ),
                            "iterate in sorted key/WorkerId order or switch to `BTreeMap`; \
                             or `// c4u-lint: allow(hashmap-iter-order, reason = \"…\")`",
                        ));
                    }
                }
            }
        }
    }

    // --- scalar-libm-in-hot-path --------------------------------------------
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && HOT_LIBM_METHODS.contains(&text(t))
            && in_hot(t.line)
            && i >= 1
            && text(code[i - 1]) == "."
            && code.get(i + 1).is_some_and(|n| text(n) == "(")
        {
            diags.push(finding(
                SCALAR_LIBM_IN_HOT_PATH,
                t,
                format!(
                    "scalar libm call `.{}()` inside a `c4u-lint: hot-path` region; \
                     hot sweeps must stay on the vectorised `c4u_stats::vmath` layer",
                    text(t)
                ),
                "use `vexp`/`vexp_scalar` (or hoist the call out of the region); \
                 or `// c4u-lint: allow(scalar-libm-in-hot-path, reason = \"…\")`",
            ));
        }
    }

    // --- no-unwrap-in-lib ---------------------------------------------------
    if class
        .crate_dir
        .as_deref()
        .is_some_and(|c| NO_UNWRAP_CRATES.contains(&c))
        && !class.test_like
    {
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokenKind::Ident
                && (text(t) == "unwrap" || text(t) == "expect")
                && !in_test(t.line)
                && i >= 1
                && text(code[i - 1]) == "."
                && code.get(i + 1).is_some_and(|n| text(n) == "(")
            {
                diags.push(finding(
                    NO_UNWRAP_IN_LIB,
                    t,
                    format!(
                        "`.{}()` in numerical library code; a panic mid-sweep poisons \
                         the whole evaluation",
                        text(t)
                    ),
                    "return the crate's typed error instead; for infallible-by-construction \
                     invariants, `// c4u-lint: allow(no-unwrap-in-lib, reason = \"…\")`",
                ));
            }
        }
    }

    // --- crate-hygiene ------------------------------------------------------
    if class.crate_root {
        let has_forbid = code.windows(8).any(|w| {
            text(w[0]) == "#"
                && text(w[1]) == "!"
                && text(w[2]) == "["
                && text(w[3]) == "forbid"
                && text(w[4]) == "("
                && text(w[5]) == "unsafe_code"
                && text(w[6]) == ")"
                && text(w[7]) == "]"
        });
        let has_crate_doc = lexed.tokens.iter().any(|t| {
            let s = lexed.text(t);
            (t.kind == TokenKind::LineComment && s.starts_with("//!"))
                || (t.kind == TokenKind::BlockComment && s.starts_with("/*!"))
        });
        let anchor = Diagnostic {
            rule: CRATE_HYGIENE,
            severity: Severity::Deny,
            path: rel_path.to_string(),
            line: 1,
            col: 1,
            len: 1,
            message: String::new(),
            help: "see ARCHITECTURE.md \"Static invariants\": every crate root names \
                   its seam in a `//!` overview and forbids unsafe code"
                .to_string(),
        };
        if !has_forbid {
            let mut d = anchor.clone();
            d.message = "crate root is missing `#![forbid(unsafe_code)]`".into();
            diags.push(d);
        }
        if !has_crate_doc {
            let mut d = anchor;
            d.message =
                "crate root is missing a crate-level `//!` doc comment naming its seam".into();
            diags.push(d);
        }
    }

    // Apply suppressions (directive errors are never suppressible).
    diags.retain(|d| d.rule == LINT_DIRECTIVE || !directives.is_allowed(d.rule, d.line));
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

/// Inclusive line ranges gated by `#[cfg(test)]` (the conventional
/// `mod tests { … }` blocks plus any other attached item with a body).
fn cfg_test_regions(lexed: &Lexed<'_>, code: &[&Token]) -> Vec<(u32, u32)> {
    let text = |t: &Token| lexed.text(t);
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 6 < code.len() {
        let matches_attr = text(code[i]) == "#"
            && text(code[i + 1]) == "["
            && text(code[i + 2]) == "cfg"
            && text(code[i + 3]) == "("
            && text(code[i + 4]) == "test"
            && text(code[i + 5]) == ")"
            && text(code[i + 6]) == "]";
        if !matches_attr {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        // Scan forward to the item's body `{` (or `;` for bodiless items),
        // then across the balanced braces.
        let mut j = i + 7;
        let mut region_end = None;
        while let Some(t) = code.get(j) {
            match text(t) {
                ";" => {
                    region_end = Some(t.line);
                    break;
                }
                "{" => {
                    let mut depth = 1usize;
                    let mut k = j + 1;
                    while let Some(u) = code.get(k) {
                        match text(u) {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    region_end = Some(u.line);
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if region_end.is_none() {
                        region_end = code.last().map(|t| t.line);
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        let end = region_end.unwrap_or(attr_line);
        regions.push((attr_line, end));
        i = j.max(i + 7);
    }
    regions
}

/// First pass of `hashmap-iter-order`: the set of identifiers this file
/// declares with an unordered-map type — `name: HashMap<…>` annotations
/// (fields, params, lets; an optional `&`/`mut` between `:` and the type is
/// skipped, but `[`/`<` stops the walk so *containers of* maps are not
/// tracked) and `name = HashMap::new()`-style initialisations. The walk-back
/// also hops over `path::` qualifiers, so fully-qualified spellings
/// (`name = std::collections::HashMap::new()`, `name: collections::HashMap<…>`)
/// are tracked exactly like the imported ones — the event-handling modules
/// motivated closing that gap.
fn collect_map_idents(lexed: &Lexed<'_>, code: &[&Token]) -> BTreeSet<String> {
    let text = |t: &Token| lexed.text(t);
    let mut maps = BTreeSet::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !matches!(text(t), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over `path::` segments, `&`, `'lifetime`, and `mut` to
        // the `:` or `=`. (`::` lexes as two `:` tokens, so a qualifier hop
        // is ident + `:` + `:` = three tokens.)
        let mut j = i;
        loop {
            if j >= 3
                && text(code[j - 1]) == ":"
                && text(code[j - 2]) == ":"
                && code[j - 3].kind == TokenKind::Ident
            {
                j -= 3;
                continue;
            }
            if j > 0 {
                let prev = code[j - 1];
                let pt = text(prev);
                if pt == "&" || pt == "mut" || prev.kind == TokenKind::Lifetime {
                    j -= 1;
                    continue;
                }
            }
            break;
        }
        if j < 2 {
            continue;
        }
        let sep = code[j - 1];
        let name = code[j - 2];
        let sep_is_colon = text(sep) == ":" && text(code[j - 2]) != ":";
        let sep_is_eq = text(sep) == "=";
        if (sep_is_colon || sep_is_eq) && name.kind == TokenKind::Ident {
            maps.insert(text(name).to_string());
        }
    }
    maps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let c = classify("crates/stats/src/batch.rs");
        assert_eq!(c.crate_dir.as_deref(), Some("stats"));
        assert!(!c.test_like && !c.crate_root);
        let c = classify("crates/stats/src/lib.rs");
        assert!(c.crate_root);
        let c = classify("src/lib.rs");
        assert!(c.crate_root);
        assert_eq!(c.crate_dir, None);
        for p in [
            "crates/selection/tests/quad_math.rs",
            "crates/bench/benches/quadrature.rs",
            "examples/quickstart.rs",
            "tests/end_to_end.rs",
        ] {
            assert!(classify(p).test_like, "{p} should be test-like");
        }
        // A file *named* tests.rs is not test-like; only directories count.
        assert!(!classify("crates/stats/src/tests.rs").test_like);
    }

    #[test]
    fn map_ident_collection_skips_containers_of_maps() {
        let src = "struct S<'a> { m: HashMap<u32, f64>, v: Vec<HashMap<u32, f64>>, \
                   r: &'a [HashMap<u32, f64>] }\n\
                   fn f(d: &HashMap<u32, f64>) { let mut s = HashSet::new(); let _ = (d, s); }";
        let lexed = lex(src);
        let code: Vec<&crate::lexer::Token> = lexed.tokens.iter().collect();
        let maps = collect_map_idents(&lexed, &code);
        assert!(maps.contains("m"));
        assert!(maps.contains("d"));
        assert!(maps.contains("s"));
        assert!(!maps.contains("v"), "Vec<HashMap> is iterated in Vec order");
        assert!(
            !maps.contains("r"),
            "slice of maps is iterated in slice order"
        );
    }

    #[test]
    fn map_ident_collection_tracks_fully_qualified_inits() {
        let src = "fn f() {\n\
                   let m = std::collections::HashMap::new();\n\
                   let s: collections::HashSet<u32> = collections::HashSet::new();\n\
                   let b = std::collections::BTreeMap::new();\n\
                   use std::collections::HashMap;\n\
                   let _ = (m, s, b);\n\
                   }";
        let lexed = lex(src);
        let code: Vec<&crate::lexer::Token> = lexed.tokens.iter().collect();
        let maps = collect_map_idents(&lexed, &code);
        assert!(maps.contains("m"), "fully-qualified init is tracked");
        assert!(maps.contains("s"), "qualified annotation is tracked");
        assert!(!maps.contains("b"), "BTreeMap has a deterministic order");
        assert!(
            !maps.contains("use"),
            "an import is not a binding; the walk-back must stop at `use`"
        );
    }

    #[test]
    fn cfg_test_region_covers_mod_block() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = 1; }\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let code: Vec<&crate::lexer::Token> = lexed.tokens.iter().collect();
        let regions = cfg_test_regions(&lexed, &code);
        assert_eq!(regions, vec![(2, 5)]);
    }
}

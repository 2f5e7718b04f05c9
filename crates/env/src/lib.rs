//! # c4u-env
//!
//! The single registry of every `C4U_*` environment knob the workspace
//! honours, plus the typed parser that replaces the per-crate ad-hoc
//! `std::env::var(..).parse()` chains.
//!
//! Three things live here:
//!
//! * **The registry** ([`KNOBS`]): one [`Knob`] row per variable — name,
//!   [`KnobKind`], rendered default, and a one-line effect.
//!   [`render_knob_table`] turns it into the Markdown table README embeds, so
//!   docs and parser cannot drift apart.
//! * **The typed snapshot** ([`C4uEnv::from_env`]): one call reads every
//!   registered knob into a plain struct. Callers keep their own defaults
//!   where the default depends on crate-local context (committed report
//!   paths); everything else defaults here, once.
//! * **The unknown-name warning**: the first [`C4uEnv::from_env`] of a
//!   process scans the environment for `C4U_*` names that are *not* in the
//!   registry and prints one `warning:` line each to stderr — a misspelled
//!   `C4U_SHRADS=8` fails loudly instead of silently benchmarking the
//!   default. The pure core is [`unknown_names`], so the policy is testable
//!   without touching the process environment.
//!
//! Parsing stays deliberately forgiving — unset, empty, or unparsable values
//! fall back to the default, exactly like the scattered readers this crate
//! replaced — because a bench smoke run must never abort over a stray knob.
//! Only *unknown names* warn; known names with odd values keep the documented
//! fallback semantics.
//!
//! The crate is dependency-free so every layer (the bench harness, the
//! examples, the facade crate) can use it without cycles.

#![forbid(unsafe_code)]

use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The canonical names of every registered knob, so call sites never embed a
/// string literal that can drift from the registry.
pub mod names {
    /// Gradient-descent epochs per CPE round.
    pub const CPE_EPOCHS: &str = "C4U_CPE_EPOCHS";
    /// Answering-noise seeds averaged per experiment cell.
    pub const TRIALS: &str = "C4U_TRIALS";
    /// Worker-range shards per selection round.
    pub const SHARDS: &str = "C4U_SHARDS";
    /// Quadrature fold-pass math mode (`exact`, `fast_vector`, `both`).
    pub const QUAD_MATH: &str = "C4U_QUAD_MATH";
    /// Directory of the resumable per-cell result cache.
    pub const CELL_CACHE: &str = "C4U_CELL_CACHE";
    /// Mask-group sizes swept by the `quadrature` roofline bench.
    pub const QUAD_WORKERS: &str = "C4U_QUAD_WORKERS";
    /// Gauss–Legendre orders swept by the `quadrature` roofline bench.
    pub const QUAD_NODES: &str = "C4U_QUAD_NODES";
    /// Timing samples per `quadrature` bench cell.
    pub const QUAD_SAMPLES: &str = "C4U_QUAD_SAMPLES";
    /// Quadrature trajectory-report path (empty disables writing).
    pub const QUAD_REPORT: &str = "C4U_QUAD_REPORT";
    /// `1` arms the quadrature bench regression gate.
    pub const BENCH_GATE: &str = "C4U_BENCH_GATE";
    /// Workspace root override for `c4u-lint` (which stays dependency-free
    /// and reads this itself; registered here so the table documents it and
    /// the unknown-name scan accepts it).
    pub const LINT_ROOT: &str = "C4U_LINT_ROOT";
}

/// Default CPE epochs per round for the bench harness (the paper uses 50).
pub const DEFAULT_CPE_EPOCHS: usize = 10;
/// Default answering-noise seeds averaged per experiment cell.
pub const DEFAULT_TRIALS: usize = 2;
/// Default worker-range shards per selection round.
pub const DEFAULT_SHARDS: usize = 1;
/// Default timing samples per quadrature bench cell.
pub const DEFAULT_QUAD_SAMPLES: usize = 7;
/// Default mask-group sizes of the quadrature roofline sweep.
pub const DEFAULT_QUAD_WORKERS: &[usize] = &[1_000, 10_000, 100_000, 1_000_000];
/// Default Gauss–Legendre orders of the quadrature roofline sweep.
pub const DEFAULT_QUAD_NODES: &[usize] = &[16, 32, 64];

/// The value shape of a knob, shown in the rendered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A positive integer; non-positive or unparsable values keep the default.
    Count,
    /// A comma-separated list of positive integers.
    CountList,
    /// A filesystem path; the empty string means "explicitly disabled".
    Path,
    /// A boolean switch: exactly `"1"` turns it on.
    Flag,
    /// One of a small closed set of mode words.
    Mode,
}

impl KnobKind {
    /// Short lower-case label used in the rendered table.
    pub fn label(self) -> &'static str {
        match self {
            KnobKind::Count => "count",
            KnobKind::CountList => "count list",
            KnobKind::Path => "path",
            KnobKind::Flag => "flag",
            KnobKind::Mode => "mode",
        }
    }
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Variable name (always `C4U_*`).
    pub name: &'static str,
    /// Value shape.
    pub kind: KnobKind,
    /// Rendered default, as shown in the knob table.
    pub default: &'static str,
    /// One-line effect.
    pub doc: &'static str,
}

/// Every `C4U_*` knob the workspace honours, in table order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: names::CPE_EPOCHS,
        kind: KnobKind::Count,
        default: "10",
        doc: "Gradient-descent epochs per CPE round (the paper uses 50).",
    },
    Knob {
        name: names::TRIALS,
        kind: KnobKind::Count,
        default: "2",
        doc: "Answering-noise seeds averaged per experiment cell.",
    },
    Knob {
        name: names::SHARDS,
        kind: KnobKind::Count,
        default: "1",
        doc: "Worker-range shards per selection round; every value is bit-for-bit identical.",
    },
    Knob {
        name: names::QUAD_MATH,
        kind: KnobKind::Mode,
        default: "exact (tables) / both (roofline bench)",
        doc: "Quadrature fold-pass math: `exact`, `fast_vector`, or `both`.",
    },
    Knob {
        name: names::CELL_CACHE,
        kind: KnobKind::Path,
        default: "unset (no persistence)",
        doc: "Directory of the resumable per-cell result cache.",
    },
    Knob {
        name: names::QUAD_WORKERS,
        kind: KnobKind::CountList,
        default: "1000,10000,100000,1000000",
        doc: "Mask-group sizes swept by the quadrature roofline bench.",
    },
    Knob {
        name: names::QUAD_NODES,
        kind: KnobKind::CountList,
        default: "16,32,64",
        doc: "Gauss-Legendre orders swept by the quadrature roofline bench.",
    },
    Knob {
        name: names::QUAD_SAMPLES,
        kind: KnobKind::Count,
        default: "7",
        doc: "Timing samples per quadrature cell (the median is reported).",
    },
    Knob {
        name: names::QUAD_REPORT,
        kind: KnobKind::Path,
        default: "BENCH_quadrature.json at the workspace root",
        doc: "Quadrature trajectory-report path; empty disables writing.",
    },
    Knob {
        name: names::BENCH_GATE,
        kind: KnobKind::Flag,
        default: "off",
        doc: "`1` makes the quadrature bench fail on >25% per-cell regressions.",
    },
    Knob {
        name: names::LINT_ROOT,
        kind: KnobKind::Path,
        default: "auto-discovered workspace root",
        doc: "Workspace root override for c4u-lint.",
    },
];

/// Looks a knob up by name.
pub fn knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// `true` when `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    knob(name).is_some()
}

/// Renders the registry as the Markdown table README embeds.
pub fn render_knob_table() -> String {
    let mut out = String::from("| Variable | Kind | Default | Effect |\n|---|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            k.kind.label(),
            k.default,
            k.doc
        ));
    }
    out
}

/// The `C4U_*` names in `candidates` that are **not** registered knobs,
/// sorted and deduplicated. Pure core of the unknown-name warning.
pub fn unknown_names<I, S>(candidates: I) -> Vec<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out: Vec<String> = candidates
        .into_iter()
        .filter(|n| n.as_ref().starts_with("C4U_") && !is_registered(n.as_ref()))
        .map(|n| n.as_ref().to_string())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Scans the process environment for unregistered `C4U_*` names (sorted).
pub fn unknown_in_process_env() -> Vec<String> {
    unknown_names(std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()))
}

/// Prints one `warning:` line per unregistered `C4U_*` variable to stderr —
/// once per process, no matter how many snapshots are taken — and returns the
/// offending names.
pub fn warn_unknown() -> Vec<String> {
    static WARNED: OnceLock<Vec<String>> = OnceLock::new();
    WARNED
        .get_or_init(|| {
            let unknown = unknown_in_process_env();
            for name in &unknown {
                eprintln!(
                    "warning: unknown environment variable `{name}` (not a registered C4U_* \
                     knob; see the knob table in README.md or c4u_env::render_knob_table())"
                );
            }
            unknown
        })
        .clone()
}

/// A path-valued knob distinguishes three states: unset (use the caller's
/// default), set to the empty string (explicitly disabled), and set to a
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathKnob {
    /// The variable is not present: the caller's default applies.
    Unset,
    /// The variable is present but empty: the feature is explicitly off.
    Disabled,
    /// The variable names a path.
    Set(PathBuf),
}

impl PathKnob {
    fn from_raw(raw: Option<OsString>) -> Self {
        match raw {
            None => PathKnob::Unset,
            Some(v) if v.is_empty() => PathKnob::Disabled,
            Some(v) => PathKnob::Set(PathBuf::from(v)),
        }
    }

    /// Report-path semantics: unset falls back to `default`, empty disables.
    pub fn or_default(&self, default: PathBuf) -> Option<PathBuf> {
        match self {
            PathKnob::Unset => Some(default),
            PathKnob::Disabled => None,
            PathKnob::Set(p) => Some(p.clone()),
        }
    }

    /// Cache-directory semantics: only an explicit non-empty path enables.
    pub fn set_path(&self) -> Option<PathBuf> {
        match self {
            PathKnob::Set(p) => Some(p.clone()),
            _ => None,
        }
    }
}

/// The quadrature math-mode knob. `Default` covers unset *and* unrecognised
/// words; callers pick what that means (the table benches read it as `exact`,
/// the roofline bench as `both`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuadMathKnob {
    /// Unset or unrecognised: the call site's documented default applies.
    Default,
    /// Force the bit-identical scalar-equivalent fold.
    Exact,
    /// Force the lane-chunked polynomial-`exp` fold.
    FastVector,
    /// Time both modes side by side (only the roofline bench distinguishes).
    Both,
}

impl QuadMathKnob {
    fn parse(raw: Option<&str>) -> Self {
        match raw {
            Some("exact") => QuadMathKnob::Exact,
            Some("fast_vector") => QuadMathKnob::FastVector,
            Some("both") => QuadMathKnob::Both,
            _ => QuadMathKnob::Default,
        }
    }
}

/// Parses a positive integer; unset, unparsable, or non-positive keeps the
/// default.
fn parse_count(raw: Option<&str>, default: usize) -> usize {
    raw.and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Parses a comma-separated list of positive integers; unset or empty keeps
/// the default, unparsable or non-positive entries are dropped.
fn parse_count_list(raw: Option<&str>, default: &[usize]) -> Vec<usize> {
    match raw {
        Some(v) if !v.is_empty() => v
            .split(',')
            .filter_map(|item| item.trim().parse().ok())
            .filter(|&item| item > 0)
            .collect(),
        _ => default.to_vec(),
    }
}

/// `true` exactly when the raw value is `"1"`.
fn parse_flag(raw: Option<&str>) -> bool {
    raw == Some("1")
}

fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

fn var_os(name: &str) -> Option<OsString> {
    std::env::var_os(name)
}

/// One typed snapshot of every registered knob.
///
/// [`C4uEnv::from_env`] is the workspace's single environment entry point:
/// every field holds the parsed value (or this crate's default), and path
/// knobs whose default depends on crate-local context stay [`PathKnob`]s for
/// the caller to resolve.
#[derive(Debug, Clone, PartialEq)]
pub struct C4uEnv {
    /// `C4U_CPE_EPOCHS` — CPE gradient-descent epochs per round.
    pub cpe_epochs: usize,
    /// `C4U_TRIALS` — answering-noise seeds averaged per cell.
    pub trials: usize,
    /// `C4U_SHARDS` — worker-range shards per selection round.
    pub shards: usize,
    /// `C4U_QUAD_MATH` — the quadrature fold-pass math mode.
    pub quad_math: QuadMathKnob,
    /// `C4U_CELL_CACHE` — per-cell result-cache directory, if enabled.
    pub cell_cache: Option<PathBuf>,
    /// `C4U_QUAD_WORKERS` — quadrature-bench mask-group sizes.
    pub quad_workers: Vec<usize>,
    /// `C4U_QUAD_NODES` — quadrature-bench Gauss–Legendre orders.
    pub quad_nodes: Vec<usize>,
    /// `C4U_QUAD_SAMPLES` — timing samples per quadrature cell.
    pub quad_samples: usize,
    /// `C4U_QUAD_REPORT` — quadrature trajectory-report path.
    pub quad_report: PathKnob,
    /// `C4U_BENCH_GATE` — whether the trajectory regression gate is armed.
    pub bench_gate: bool,
    /// `C4U_LINT_ROOT` — c4u-lint workspace-root override, if set.
    pub lint_root: Option<PathBuf>,
}

impl C4uEnv {
    /// Reads every registered knob from the process environment. The first
    /// call of a process also warns (stderr) about unregistered `C4U_*`
    /// names — see [`warn_unknown`].
    pub fn from_env() -> Self {
        warn_unknown();
        Self {
            cpe_epochs: parse_count(var(names::CPE_EPOCHS).as_deref(), DEFAULT_CPE_EPOCHS),
            trials: parse_count(var(names::TRIALS).as_deref(), DEFAULT_TRIALS),
            shards: parse_count(var(names::SHARDS).as_deref(), DEFAULT_SHARDS),
            quad_math: QuadMathKnob::parse(var(names::QUAD_MATH).as_deref()),
            cell_cache: PathKnob::from_raw(var_os(names::CELL_CACHE)).set_path(),
            quad_workers: parse_count_list(
                var(names::QUAD_WORKERS).as_deref(),
                DEFAULT_QUAD_WORKERS,
            ),
            quad_nodes: parse_count_list(var(names::QUAD_NODES).as_deref(), DEFAULT_QUAD_NODES),
            quad_samples: parse_count(var(names::QUAD_SAMPLES).as_deref(), DEFAULT_QUAD_SAMPLES),
            quad_report: PathKnob::from_raw(var_os(names::QUAD_REPORT)),
            bench_gate: parse_flag(var(names::BENCH_GATE).as_deref()),
            lint_root: var_os(names::LINT_ROOT).map(PathBuf::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_prefixed_and_documented() {
        let mut seen = Vec::new();
        for k in KNOBS {
            assert!(k.name.starts_with("C4U_"), "{}", k.name);
            assert!(!seen.contains(&k.name), "duplicate {}", k.name);
            assert!(!k.doc.is_empty() && !k.default.is_empty(), "{}", k.name);
            seen.push(k.name);
        }
        assert!(is_registered(names::SHARDS));
        assert!(!is_registered("C4U_NOT_A_KNOB"));
        assert_eq!(
            knob(names::BENCH_GATE).map(|k| k.kind),
            Some(KnobKind::Flag)
        );
    }

    #[test]
    fn knob_table_renders_one_row_per_knob() {
        let table = render_knob_table();
        // Header + separator + one row per knob.
        assert_eq!(table.lines().count(), 2 + KNOBS.len());
        for k in KNOBS {
            assert!(table.contains(k.name), "{} missing from table", k.name);
        }
        assert!(table.starts_with("| Variable | Kind | Default | Effect |"));
    }

    #[test]
    fn unknown_names_flags_only_unregistered_c4u_vars() {
        let candidates = [
            "C4U_SHRADS",     // typo: flagged
            "C4U_SHARDS",     // registered: fine
            "PATH",           // not ours: ignored
            "C4U_SHRADS",     // duplicate: reported once
            "RUST_BACKTRACE", // not ours: ignored
            "C4U_QUAD_MATHS", // typo: flagged
        ];
        assert_eq!(
            unknown_names(candidates),
            vec!["C4U_QUAD_MATHS".to_string(), "C4U_SHRADS".to_string()]
        );
        assert!(unknown_names(Vec::<String>::new()).is_empty());
    }

    #[test]
    fn count_parsing_keeps_defaults_on_bad_input() {
        assert_eq!(parse_count(None, 7), 7);
        assert_eq!(parse_count(Some("12"), 7), 12);
        assert_eq!(parse_count(Some(" 12 "), 7), 12);
        assert_eq!(parse_count(Some("0"), 7), 7);
        assert_eq!(parse_count(Some("-3"), 7), 7);
        assert_eq!(parse_count(Some("twelve"), 7), 7);
    }

    #[test]
    fn count_list_parsing_drops_bad_entries_and_defaults_when_empty() {
        assert_eq!(parse_count_list(None, &[1, 2]), vec![1, 2]);
        assert_eq!(parse_count_list(Some(""), &[1, 2]), vec![1, 2]);
        assert_eq!(parse_count_list(Some("4, 8 ,15"), &[1]), vec![4, 8, 15]);
        assert_eq!(parse_count_list(Some("4,zero,0,16"), &[1]), vec![4, 16]);
    }

    #[test]
    fn flag_is_exactly_the_string_one() {
        assert!(parse_flag(Some("1")));
        assert!(!parse_flag(Some("true")));
        assert!(!parse_flag(Some("0")));
        assert!(!parse_flag(None));
    }

    #[test]
    fn path_knob_distinguishes_unset_disabled_and_set() {
        let unset = PathKnob::from_raw(None);
        let disabled = PathKnob::from_raw(Some(OsString::new()));
        let set = PathKnob::from_raw(Some(OsString::from("out/report.json")));
        assert_eq!(unset, PathKnob::Unset);
        assert_eq!(disabled, PathKnob::Disabled);
        assert_eq!(set, PathKnob::Set(PathBuf::from("out/report.json")));

        let default = PathBuf::from("default.json");
        assert_eq!(unset.or_default(default.clone()), Some(default.clone()));
        assert_eq!(disabled.or_default(default.clone()), None);
        assert_eq!(
            set.or_default(default),
            Some(PathBuf::from("out/report.json"))
        );

        assert_eq!(unset.set_path(), None);
        assert_eq!(disabled.set_path(), None);
        assert_eq!(set.set_path(), Some(PathBuf::from("out/report.json")));
    }

    #[test]
    fn quad_math_parses_the_three_modes_and_defaults_the_rest() {
        assert_eq!(QuadMathKnob::parse(Some("exact")), QuadMathKnob::Exact);
        assert_eq!(
            QuadMathKnob::parse(Some("fast_vector")),
            QuadMathKnob::FastVector
        );
        assert_eq!(QuadMathKnob::parse(Some("both")), QuadMathKnob::Both);
        assert_eq!(QuadMathKnob::parse(Some("fast")), QuadMathKnob::Default);
        assert_eq!(QuadMathKnob::parse(None), QuadMathKnob::Default);
    }

    #[test]
    fn snapshot_reads_the_process_environment_with_defaults() {
        // The snapshot must work in any environment; only assert invariants
        // that hold whether or not knobs are set.
        let env = C4uEnv::from_env();
        assert!(env.cpe_epochs >= 1);
        assert!(env.trials >= 1);
        assert!(env.shards >= 1);
        assert!(env.quad_samples >= 1);
        if std::env::var_os(names::QUAD_WORKERS).is_none() {
            assert_eq!(env.quad_workers, DEFAULT_QUAD_WORKERS);
        }
        if std::env::var_os(names::BENCH_GATE).is_none() {
            assert!(!env.bench_gate);
        }
        // Snapshots of the same environment are equal.
        assert_eq!(env, C4uEnv::from_env());
    }
}

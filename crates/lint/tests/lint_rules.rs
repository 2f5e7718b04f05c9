//! Fixture-driven integration tests: every rule is demonstrated by a
//! violating fixture (with exact file:line:col span assertions), a
//! conforming fixture, and a suppressed fixture; plus directive-error and
//! workspace-cleanliness checks.

use c4u_lint::diag::Diagnostic;
use c4u_lint::rules::{self, lint_file};
use std::fs;
use std::path::Path;

/// Lints a fixture file under a virtual workspace-relative path (which is
/// what scopes the rules to crates and directories).
fn lint_fixture(rule_dir: &str, file: &str, virtual_path: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_dir)
        .join(file);
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint_file(virtual_path, &source)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// --- no-ambient-rng ---------------------------------------------------------

#[test]
fn ambient_rng_violation_is_flagged_with_exact_span() {
    let diags = lint_fixture(
        "no-ambient-rng",
        "violation.rs",
        "crates/selection/src/framework.rs",
    );
    assert_eq!(rules_of(&diags), vec![rules::NO_AMBIENT_RNG]);
    let d = &diags[0];
    assert_eq!((d.line, d.col), (3, 19), "span must point at `thread_rng`");
    assert_eq!(d.len, "thread_rng".len() as u32);
    assert_eq!(d.path, "crates/selection/src/framework.rs");
}

#[test]
fn ambient_rng_conforming_code_is_clean_including_cfg_test() {
    let diags = lint_fixture(
        "no-ambient-rng",
        "conform.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn ambient_rng_allow_comment_suppresses() {
    let diags = lint_fixture(
        "no-ambient-rng",
        "suppressed.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn ambient_rng_not_flagged_in_test_directories() {
    let diags = lint_fixture(
        "no-ambient-rng",
        "violation.rs",
        "crates/selection/tests/fuzz.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- no-wallclock -----------------------------------------------------------

#[test]
fn wallclock_violation_is_flagged_with_exact_span() {
    let diags = lint_fixture(
        "no-wallclock",
        "violation.rs",
        "crates/selection/src/stage/mod.rs",
    );
    assert_eq!(rules_of(&diags), vec![rules::NO_WALLCLOCK]);
    assert_eq!((diags[0].line, diags[0].col), (3, 17));
    assert_eq!(diags[0].len, "Instant".len() as u32);
}

#[test]
fn wallclock_is_allowed_inside_crates_bench() {
    let diags = lint_fixture("no-wallclock", "violation.rs", "crates/bench/src/timing.rs");
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn wallclock_duration_values_are_fine() {
    let diags = lint_fixture(
        "no-wallclock",
        "conform.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn wallclock_allow_comment_suppresses() {
    let diags = lint_fixture(
        "no-wallclock",
        "suppressed.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- hashmap-iter-order -----------------------------------------------------

#[test]
fn hashmap_iteration_violations_are_flagged() {
    let diags = lint_fixture(
        "hashmap-iter-order",
        "violation.rs",
        "crates/selection/src/framework.rs",
    );
    assert_eq!(
        rules_of(&diags),
        vec![rules::HASHMAP_ITER_ORDER, rules::HASHMAP_ITER_ORDER]
    );
    // `for entry in scores {` — anchored on the map identifier.
    assert_eq!((diags[0].line, diags[0].col), (4, 18));
    // `index.values()` — anchored on the iterating method.
    assert_eq!((diags[1].line, diags[1].col), (11, 11));
}

#[test]
fn btreemap_lookups_and_containers_of_maps_are_clean() {
    let diags = lint_fixture(
        "hashmap-iter-order",
        "conform.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn hashmap_iteration_allow_comment_suppresses() {
    let diags = lint_fixture(
        "hashmap-iter-order",
        "suppressed.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- scalar-libm-in-hot-path ------------------------------------------------

#[test]
fn scalar_libm_inside_hot_region_is_flagged() {
    let diags = lint_fixture(
        "scalar-libm-in-hot-path",
        "violation.rs",
        "crates/stats/src/batch.rs",
    );
    assert_eq!(rules_of(&diags), vec![rules::SCALAR_LIBM_IN_HOT_PATH]);
    assert_eq!((diags[0].line, diags[0].col), (6, 18));
    assert_eq!(diags[0].len, "exp".len() as u32);
}

#[test]
fn scalar_libm_outside_region_and_vexp_inside_are_clean() {
    let diags = lint_fixture(
        "scalar-libm-in-hot-path",
        "conform.rs",
        "crates/stats/src/batch.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn scalar_libm_allow_comment_suppresses() {
    let diags = lint_fixture(
        "scalar-libm-in-hot-path",
        "suppressed.rs",
        "crates/stats/src/batch.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- no-unwrap-in-lib -------------------------------------------------------

#[test]
fn unwrap_and_expect_in_lib_code_are_flagged() {
    let diags = lint_fixture(
        "no-unwrap-in-lib",
        "violation.rs",
        "crates/stats/src/quant.rs",
    );
    assert_eq!(
        rules_of(&diags),
        vec![rules::NO_UNWRAP_IN_LIB, rules::NO_UNWRAP_IN_LIB]
    );
    assert_eq!((diags[0].line, diags[0].col), (3, 32));
    assert_eq!(diags[0].len, "unwrap".len() as u32);
    assert!(diags[1].message.contains("expect"));
}

#[test]
fn unwrap_rule_only_covers_numerical_crates() {
    for path in [
        "crates/crowd-sim/src/lib.rs",
        "crates/bench/src/lib.rs",
        "src/main.rs",
    ] {
        let diags = lint_fixture("no-unwrap-in-lib", "violation.rs", path);
        assert!(
            !diags.iter().any(|d| d.rule == rules::NO_UNWRAP_IN_LIB),
            "{path} should be out of scope, got: {diags:?}"
        );
    }
    // Library code of a numerical crate outside `src/lib.rs` is in scope.
    let diags = lint_fixture(
        "no-unwrap-in-lib",
        "violation.rs",
        "crates/selection/src/framework.rs",
    );
    assert!(diags.iter().any(|d| d.rule == rules::NO_UNWRAP_IN_LIB));
}

#[test]
fn unwrap_in_cfg_test_and_typed_errors_are_clean() {
    let diags = lint_fixture(
        "no-unwrap-in-lib",
        "conform.rs",
        "crates/stats/src/quant.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn unwrap_allow_comment_suppresses() {
    let diags = lint_fixture(
        "no-unwrap-in-lib",
        "suppressed.rs",
        "crates/stats/src/quant.rs",
    );
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- crate-hygiene ----------------------------------------------------------

#[test]
fn bare_crate_root_is_flagged_twice() {
    let diags = lint_fixture("crate-hygiene", "violation.rs", "crates/foo/src/lib.rs");
    assert_eq!(
        rules_of(&diags),
        vec![rules::CRATE_HYGIENE, rules::CRATE_HYGIENE]
    );
    assert!(diags[0].message.contains("forbid(unsafe_code)"));
    assert!(diags[1].message.contains("doc comment"));
}

#[test]
fn crate_hygiene_only_applies_to_crate_roots() {
    let diags = lint_fixture("crate-hygiene", "violation.rs", "crates/foo/src/other.rs");
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn documented_forbidding_root_is_clean() {
    let diags = lint_fixture("crate-hygiene", "conform.rs", "crates/foo/src/lib.rs");
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn crate_hygiene_allow_comment_suppresses() {
    let diags = lint_fixture("crate-hygiene", "suppressed.rs", "crates/foo/src/lib.rs");
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- directives -------------------------------------------------------------

#[test]
fn malformed_directives_are_unsuppressible_errors() {
    let diags = lint_fixture("directives", "malformed.rs", "crates/stats/src/x.rs");
    assert_eq!(diags.len(), 6, "got: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == rules::LINT_DIRECTIVE));
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("unknown rule")));
    assert!(messages.iter().any(|m| m.contains("needs a reason")));
    assert!(messages.iter().any(|m| m.contains("non-empty `reason")));
    assert!(messages.iter().any(|m| m.contains("unrecognised")));
    assert!(messages
        .iter()
        .any(|m| m.contains("`end-hot-path` without")));
    assert!(messages.iter().any(|m| m.contains("never closed")));
}

#[test]
fn doc_comments_mentioning_directives_are_inert() {
    let diags = lint_fixture("directives", "doc_mention.rs", "crates/stats/src/x.rs");
    assert!(diags.is_empty(), "got: {diags:?}");
}

// --- whole workspace --------------------------------------------------------

#[test]
fn shipped_tree_is_lint_clean() {
    let root = c4u_lint::walk::workspace_root().expect("workspace root");
    let findings = c4u_lint::run_workspace(&root);
    let rendered: Vec<String> = findings
        .iter()
        .flat_map(|(_, _, ds)| ds.iter().map(|d| d.render(None)))
        .collect();
    assert!(
        rendered.is_empty(),
        "the shipped tree must hold every invariant:\n{}",
        rendered.join("\n")
    );
}

//! # c4u — cross-domain-aware crowd worker selection
//!
//! Facade crate of the C4U workspace, a from-scratch Rust reproduction of the
//! ICDE 2024 paper on selecting and training crowd workers for a new target
//! domain (CPE + LGE + ME, Algorithms 1–4).
//!
//! The actual implementation lives in the per-layer crates, re-exported here:
//!
//! * [`linalg`] — dense vectors/matrices, LU, Cholesky;
//! * [`stats`] — descriptive stats, quadrature, (truncated) multivariate normals;
//! * [`optim`] — numerical gradients, gradient descent, OLS, scalar minimisation;
//! * [`irt`] — Rasch items, learning-gain curves, alpha calibration;
//! * [`crowd_sim`] — dataset generator and the simulated crowdsourcing platform;
//! * [`selection`] — CPE/LGE/ME stages, the stage pipeline, baselines, and the
//!   parallel evaluation engine.
//!
//! The `examples/` directory holds runnable end-to-end walkthroughs and the
//! `tests/` directory the cross-crate integration suite; see the workspace
//! `README.md` for the full layout and `ARCHITECTURE.md` for the crate map,
//! the extension seams, and the data flow of one selection run.

#![forbid(unsafe_code)]

/// Compiles and runs every Rust code block of the workspace `README.md` as a
/// doctest (`cargo test --doc -p c4u`), so the README's quickstart and usage
/// snippets cannot rot. The struct itself never exists outside `cfg(doctest)`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use c4u_crowd_sim as crowd_sim;
pub use c4u_irt as irt;
pub use c4u_linalg as linalg;
pub use c4u_optim as optim;
pub use c4u_selection as selection;
pub use c4u_stats as stats;

#[cfg(test)]
mod tests {
    /// README's knob table is `c4u_env::render_knob_table()` byte for byte,
    /// so adding, removing or rewording a knob without regenerating the
    /// README fails here.
    #[test]
    fn readme_knob_table_is_the_rendered_registry() {
        let readme = include_str!("../README.md");
        let start = readme
            .find("| Variable | Kind | Default | Effect |")
            .expect("README has a knob table");
        let table: String = readme[start..]
            .lines()
            .take_while(|line| line.starts_with('|'))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(table, c4u_env::render_knob_table());
    }
}

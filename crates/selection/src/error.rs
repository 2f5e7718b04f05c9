//! Error type for the selection crate.

use std::fmt;

/// Errors produced by the worker-selection algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionError {
    /// A configuration value was invalid.
    InvalidConfig {
        /// Description of the violated constraint.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Not enough workers / observations to run the requested step.
    NotEnoughData {
        /// Minimum required.
        needed: usize,
        /// Actually available.
        got: usize,
    },
    /// Propagated simulator failure (budget exceeded, unknown worker, ...).
    Simulator(String),
    /// Propagated numerical failure from the statistical or optimisation substrate.
    Numerical(String),
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::InvalidConfig { what, value } => {
                write!(f, "invalid selection configuration: {what} (got {value})")
            }
            SelectionError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: needed {needed}, got {got}")
            }
            SelectionError::Simulator(msg) => write!(f, "simulator failure: {msg}"),
            SelectionError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SelectionError {}

impl From<c4u_crowd_sim::SimError> for SelectionError {
    fn from(e: c4u_crowd_sim::SimError) -> Self {
        SelectionError::Simulator(e.to_string())
    }
}

impl From<c4u_stats::StatsError> for SelectionError {
    fn from(e: c4u_stats::StatsError) -> Self {
        SelectionError::Numerical(e.to_string())
    }
}

impl From<c4u_optim::OptimError> for SelectionError {
    fn from(e: c4u_optim::OptimError) -> Self {
        SelectionError::Numerical(e.to_string())
    }
}

impl From<c4u_irt::IrtError> for SelectionError {
    fn from(e: c4u_irt::IrtError) -> Self {
        SelectionError::Numerical(e.to_string())
    }
}

impl From<c4u_linalg::LinalgError> for SelectionError {
    fn from(e: c4u_linalg::LinalgError) -> Self {
        SelectionError::Numerical(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SelectionError::InvalidConfig {
            what: "k",
            value: 0.0
        }
        .to_string()
        .contains("k"));
        assert!(SelectionError::NotEnoughData { needed: 5, got: 2 }
            .to_string()
            .contains("needed 5"));
        assert!(SelectionError::Simulator("budget".into())
            .to_string()
            .contains("budget"));
        assert!(SelectionError::Numerical("nan".into())
            .to_string()
            .contains("nan"));
    }

    #[test]
    fn conversions_from_substrates() {
        let e: SelectionError = c4u_crowd_sim::SimError::UnknownWorker { id: 3 }.into();
        assert!(matches!(e, SelectionError::Simulator(_)));
        let e: SelectionError = c4u_stats::StatsError::NotEnoughData { needed: 1, got: 0 }.into();
        assert!(matches!(e, SelectionError::Numerical(_)));
        let e: SelectionError = c4u_optim::OptimError::RankDeficient.into();
        assert!(matches!(e, SelectionError::Numerical(_)));
        let e: SelectionError = c4u_irt::IrtError::Calibration("x".into()).into();
        assert!(matches!(e, SelectionError::Numerical(_)));
        let e: SelectionError = c4u_linalg::LinalgError::Empty.into();
        assert!(matches!(e, SelectionError::Numerical(_)));
    }
}

//! Batched structure-of-arrays evaluation of the binomial×normal integrals.
//!
//! The CPE hot paths — the likelihood inside `update()` and the Eq. 8
//! posterior-mean integral inside `predict_batch()` — evaluate the same
//! integrand `h^C (1-h)^X N(h; mu, sigma^2)` for every worker of a mask group,
//! over the *same* Gauss–Legendre nodes and with the *same* conditional
//! `sigma`. The scalar functions in [`crate::binomial_normal`] recompute the
//! node logarithms `ln h` / `ln(1-h)` and the peak-bracketing grid once per
//! worker; [`BinomialNormalBatch`] tabulates them once per rule into flat
//! contiguous buffers and then sweeps a whole `(mu, c, x)` batch over them in
//! node-major inner loops.
//!
//! Per worker the `Exact` sweep is two passes over the node tables:
//!
//! 1. the shifted log-integrand values land in a contiguous scratch buffer —
//!    a pure mul/add loop over `node_lh`/`node_l1h`/`node_hc` that the
//!    autovectoriser turns into f64 lanes;
//! 2. exponentiation and accumulation fold the scratch buffer into the
//!    normaliser (and moment) sums.
//!
//! The `FastVector` sweep fuses the two passes: each [`VEXP_LANES`]-wide node
//! chunk is filled, exponentiated, and accumulated while still in registers
//! and a stack staging buffer, skipping the scratch round-trip entirely.
//!
//! # Math modes
//!
//! The fold pass runs under one of two [`QuadratureMath`] contracts, fixed at
//! construction:
//!
//! * [`QuadratureMath::Exact`] (the default) exponentiates with libm's
//!   `f64::exp` in node order, preserving the exact summation order of
//!   [`GaussLegendre::integrate`]. Every arithmetic expression replicates the
//!   scalar path operation for operation (same clamp, same subtraction order,
//!   same fold of the interval half-width into the final sum), so the batched
//!   results are **bit-identical** to [`binomial_normal_moments`] /
//!   [`binomial_normal_log_z`] — the scalar functions remain the pinned
//!   cross-check oracle, enforced by the equivalence and property suites
//!   rather than by an epsilon.
//! * [`QuadratureMath::FastVector`] replaces the per-node division with a
//!   reciprocal multiply and fused multiply-adds, exponentiates with the
//!   lane-chunked polynomial [`vexp`](crate::vexp) (≤2 ULP per element, see
//!   [`crate::vmath`]), and accumulates in chunk-wide partial sums, which
//!   breaks the serial add chain so the autovectoriser can keep the whole
//!   fused sweep in packed lanes. The accumulation is still deterministic (a
//!   fixed chunking, not threads), but it is **not** bit-identical to the
//!   scalar oracle — the contract is tolerance-based instead: per-cell
//!   `log_z`/moments within ~1e-12 relative of the `Exact` path on
//!   well-scaled cells, pinned by property tests at this layer and
//!   selection-equivalence tests at the estimator layer. Rules shorter than
//!   the fold lanes simply take the remainder path — results are
//!   position-independent either way.
//!
//! The peak-bracketing `log_max` grid scan is chunked into lane-wide max
//! accumulators in both modes (floating-point `max` is insensitive to fold
//! order for the non-`NaN` values the grid produces), but its *arithmetic*
//! splits by mode: `Exact` evaluates every grid term with the oracle's
//! `/ sigma` division so the scan stays bit-identical, while `FastVector`
//! expands the Gaussian exponent to a division-free quadratic in `hc` (see
//! `grid_max_approx`). The approximate peak only shifts the integrand before
//! the exponential and is added back through `log_z`, so the perturbation
//! cancels out of every returned quantity up to ordinary rounding — well
//! inside the `FastVector` tolerance contract.
//!
//! # The factored gradient sweep
//!
//! The Eq. 6–7 gradient sweep of the CPE update has a second, factored form,
//! [`BinomialNormalBatch::log_z_gradients_factored_into`]. The integrand
//! splits into a count factor that depends only on `(C, X)` (tabulated once
//! per kernel as [`CountFactors`]) and a Gaussian factor that depends only on
//! the conditional mean (one row per profile per sweep), so each cell costs
//! three node-length dot products instead of a grid scan and a node-length
//! `exp` fold. It is tolerance-pinned to the per-cell
//! [`BinomialNormalBatch::log_z_gradients_into`], not bit-pinned, in both math
//! modes; cells whose factored normaliser underflows fall back to the
//! per-cell arithmetic bit for bit.
//!
//! The module also owns the thread-local diagnostic counters that let tests pin
//! the batching contract: a likelihood evaluation or a `predict_batch` pass
//! must cost `O(unique_masks)` batched sweeps, not `O(workers)` scalar
//! evaluations (mirroring the conditioning-factorisation counter in
//! [`crate::mvn`]).
//!
//! ```
//! use c4u_stats::{binomial_normal_moments, BinomialNormalBatch, GaussLegendre};
//!
//! let quadrature = GaussLegendre::new(32);
//! let batch = BinomialNormalBatch::new(&quadrature);
//!
//! // One mask group: three workers sharing a conditional sigma.
//! let sigma = 0.12;
//! let mu = [0.55, 0.7, 0.3];
//! let c = [7.0, 0.0, 2.0];
//! let x = [3.0, 0.0, 8.0];
//! let mut log_z = [0.0; 3];
//! let mut mean = [0.0; 3];
//! batch.moments(sigma, &mu, &c, &x, &mut log_z, &mut mean);
//!
//! // Bit-identical to the scalar oracle, worker by worker.
//! for i in 0..3 {
//!     let (lz, m) = binomial_normal_moments(&quadrature, mu[i], sigma, c[i], x[i]);
//!     assert_eq!(log_z[i], lz);
//!     assert_eq!(mean[i], m);
//! }
//! ```

use crate::binomial_normal::{bracketing_points, LogZGradient, SIGMA_FLOOR};
use crate::integrate::GaussLegendre;
use crate::vmath::{vexp, vexp_scalar, VEXP_LANES};
use std::cell::Cell;

thread_local! {
    static BATCHED_QUADRATURE_SWEEPS: Cell<u64> = const { Cell::new(0) };
    static SCALAR_QUADRATURE_EVALUATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of batched quadrature sweeps (one [`BinomialNormalBatch`] call over a
/// whole mask group) recorded on this thread since the last reset.
///
/// Together with [`scalar_quadrature_evaluations`] this lets tests pin the
/// batching contract of the CPE hot paths: `O(unique_masks)` sweeps per
/// evaluation, zero scalar evaluations.
pub fn batched_quadrature_sweeps() -> u64 {
    BATCHED_QUADRATURE_SWEEPS.with(Cell::get)
}

/// Resets this thread's [`batched_quadrature_sweeps`] counter to zero.
pub fn reset_batched_quadrature_sweeps() {
    BATCHED_QUADRATURE_SWEEPS.with(|c| c.set(0));
}

/// Number of scalar binomial×normal evaluations
/// ([`binomial_normal_moments`](crate::binomial_normal_moments) /
/// [`binomial_normal_log_z`](crate::binomial_normal_log_z)) recorded on this
/// thread since the last reset.
pub fn scalar_quadrature_evaluations() -> u64 {
    SCALAR_QUADRATURE_EVALUATIONS.with(Cell::get)
}

/// Resets this thread's [`scalar_quadrature_evaluations`] counter to zero.
pub fn reset_scalar_quadrature_evaluations() {
    SCALAR_QUADRATURE_EVALUATIONS.with(|c| c.set(0));
}

pub(crate) fn record_batched_sweep() {
    BATCHED_QUADRATURE_SWEEPS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn record_scalar_evaluation() {
    SCALAR_QUADRATURE_EVALUATIONS.with(|c| c.set(c.get() + 1));
}

/// Arithmetic contract of the batched fold passes — see the
/// [`BinomialNormalBatch`] docs for the full accuracy contract of each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuadratureMath {
    /// libm `f64::exp` in the scalar summation order: bit-identical to the
    /// scalar oracle functions. The pinned default.
    #[default]
    Exact,
    /// Fused register-resident sweeps over [`VEXP_LANES`]-wide node chunks —
    /// division-free fill arithmetic, the lane-chunked polynomial
    /// [`vexp`](crate::vexp), and chunk-wide partial-sum accumulation in one
    /// pass: deterministic, but validated by tolerance (~1e-12 relative per
    /// cell) rather than bit equality.
    FastVector,
}

/// Width of the partial-sum / max-reduce accumulators in the `Exact`-mode
/// fold passes. Rules (or the bracketing grid tail) shorter than this fall
/// back to the scalar remainder path, which computes identical per-element
/// values. (The `FastVector` sweeps chunk by [`VEXP_LANES`] instead.)
const FOLD_LANES: usize = 4;

/// Reusable scratch for the batched sweeps.
///
/// The `Exact`-mode per-worker passes need one `num_nodes`-sized buffer for
/// the shifted log-integrand; the `*_with_scratch` / `*_into` methods borrow
/// it from here instead of allocating per call, so a caller that loops over
/// mask groups and epochs performs **zero** heap allocations in the sweep
/// (the `FastVector` sweeps stage through a fixed stack buffer and never
/// touch it). The buffer only ever grows; sharing one scratch across batches
/// of different rule sizes is fine.
#[derive(Debug, Clone, Default)]
pub struct QuadratureScratch {
    buf: Vec<f64>,
    /// The factored gradient sweep's three Gaussian rows, `3 * num_nodes`.
    rows: Vec<f64>,
}

impl QuadratureScratch {
    /// An empty scratch; the first sweep sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node-sized view, growing the backing buffer if needed.
    fn nodes(&mut self, n: usize) -> &mut [f64] {
        if self.buf.len() < n {
            self.buf.resize(n, 0.0);
        }
        &mut self.buf[..n]
    }

    /// The node-sized view and the `3 * n` Gaussian-row view, growing both.
    fn nodes_and_rows(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        if self.rows.len() < 3 * n {
            self.rows.resize(3 * n, 0.0);
        }
        let rows = &mut self.rows[..3 * n];
        if self.buf.len() < n {
            self.buf.resize(n, 0.0);
        }
        (&mut self.buf[..n], rows)
    }
}

/// Smallest factored normaliser `z0` the factored gradient sweep trusts;
/// below it (or when `z0` is not finite) a cell is recomputed by the per-cell
/// sweep, so true underflow keeps that sweep's `-inf` and zero gradient.
const FACTORED_Z_FLOOR: f64 = 1e-280;

/// The count factors of the binomial×normal integrand over one rule's nodes:
/// for each `(C, X)` pair, `exp(C ln h_j + X ln(1 - h_j) - a_max)` at every
/// node, with the pair's shift `a_max`. Built by
/// [`BinomialNormalBatch::count_factors`] and consumed by
/// [`BinomialNormalBatch::log_z_gradients_factored_into`].
#[derive(Debug, Clone, PartialEq)]
pub struct CountFactors {
    num_nodes: usize,
    /// The `(C, X)` pairs, in table order.
    counts: Vec<(f64, f64)>,
    /// Pair-major rows, `num_nodes` each.
    rows: Vec<f64>,
    /// Per pair: the node maximum `a_max` its row was shifted by.
    shifts: Vec<f64>,
}

impl CountFactors {
    fn row(&self, pair: usize) -> &[f64] {
        &self.rows[pair * self.num_nodes..(pair + 1) * self.num_nodes]
    }
}

/// The per-call constants of the gradient sweeps: the floored `sigma`, its
/// variance and the combined normalisation constant `ln sigma + ln(2 pi)/2`.
struct GradientShape {
    sigma: f64,
    variance: f64,
    norm_const: f64,
}

impl GradientShape {
    fn new(sigma: f64) -> Self {
        let sigma = sigma.max(SIGMA_FLOOR);
        Self {
            sigma,
            variance: sigma * sigma,
            norm_const: sigma.ln() + 0.5 * (2.0 * std::f64::consts::PI).ln(),
        }
    }

    /// `log Z` and its mean/variance derivatives from the three shifted
    /// moments `z0 = Z`, `z1 = Z E[h - mu]`, `z2 = Z E[(h - mu)^2]`, where the
    /// moments were shifted by `exp(-shift)`.
    fn gradient(&self, z0: f64, z1: f64, z2: f64, shift: f64) -> LogZGradient {
        let variance = self.variance;
        LogZGradient {
            log_z: z0.ln() + shift,
            d_mean: (z1 / z0) / variance,
            d_variance: (z2 / z0 - variance) / (2.0 * variance * variance),
        }
    }
}

/// Structure-of-arrays tables for batched binomial×normal quadrature over one
/// [`GaussLegendre`] rule on `[0, 1]`.
///
/// Built once per rule (cheap: one `ln` pair per node and grid point) and
/// reused for every mask group and every model evaluation. All buffers are
/// flat and contiguous; the per-worker inner loops index them node-major.
/// The fold arithmetic is fixed at construction by [`QuadratureMath`]
/// ([`new`](Self::new) pins the bit-identical `Exact` mode).
#[derive(Debug, Clone)]
pub struct BinomialNormalBatch {
    /// Mapped node positions `mid + half * x` on `[0, 1]`, unclamped — the
    /// posterior-mean integrand multiplies by the *raw* node position, exactly
    /// as the scalar moment closure does.
    node_h: Vec<f64>,
    /// Node positions clamped to `[1e-12, 1 - 1e-12]` — the argument of the
    /// log-integrand (and of the gradient sweep's `h - mu`).
    node_hc: Vec<f64>,
    /// Raw rule weights. [`GaussLegendre::integrate`] folds the interval
    /// half-width into the final sum, so the moments path must accumulate with
    /// raw weights and scale once at the end to stay bit-identical.
    node_w: Vec<f64>,
    /// Weights with the half-width folded in (`w * half`), as
    /// [`GaussLegendre::points`] yields them — the gradient sweep's historical
    /// accumulation uses these with no final scaling.
    node_wf: Vec<f64>,
    /// `ln h` at the clamped nodes.
    node_lh: Vec<f64>,
    /// `ln(1 - h)` at the clamped nodes.
    node_l1h: Vec<f64>,
    /// The peak-bracketing grid (clamped) and its log tables, in
    /// `bracketing_points()` order so the `log_max` fold visits grid points in
    /// the scalar order — padded to a multiple of [`VEXP_LANES`] by repeating
    /// the last point (a no-op under `max`) so the scans have no scalar tail.
    grid_hc: Vec<f64>,
    grid_lh: Vec<f64>,
    grid_l1h: Vec<f64>,
    /// Fold arithmetic contract, fixed at construction.
    math: QuadratureMath,
}

/// Interval half-width and midpoint of `[0, 1]` — written as the same
/// expressions `GaussLegendre::integrate`/`points` evaluate so the mapped
/// nodes and folded weights carry identical bits.
const HALF: f64 = 0.5 * (1.0 - 0.0);
const MID: f64 = 0.5 * (0.0 + 1.0);

impl BinomialNormalBatch {
    /// Tabulates the SoA buffers for `quadrature` on `[0, 1]`, in the pinned
    /// bit-identical [`QuadratureMath::Exact`] mode.
    pub fn new(quadrature: &GaussLegendre) -> Self {
        Self::new_with_math(quadrature, QuadratureMath::Exact)
    }

    /// Tabulates the SoA buffers for `quadrature` on `[0, 1]` with an explicit
    /// fold-arithmetic contract.
    pub fn new_with_math(quadrature: &GaussLegendre, math: QuadratureMath) -> Self {
        let n = quadrature.order();
        // `GaussLegendre::new` clamps its order to >= 2, so an empty rule is
        // unreachable through the public API; assert rather than silently
        // producing a batch whose every fold returns the empty-sum value.
        assert!(
            n >= 2,
            "quadrature rule must have at least 2 nodes, got {n}"
        );
        let mut node_h = Vec::with_capacity(n);
        let mut node_hc = Vec::with_capacity(n);
        let mut node_w = Vec::with_capacity(n);
        let mut node_wf = Vec::with_capacity(n);
        let mut node_lh = Vec::with_capacity(n);
        let mut node_l1h = Vec::with_capacity(n);
        for (x, w) in quadrature.raw_points() {
            let h = MID + HALF * x;
            let hc = h.clamp(1e-12, 1.0 - 1e-12);
            node_h.push(h);
            node_hc.push(hc);
            node_w.push(w);
            node_wf.push(w * HALF);
            node_lh.push(hc.ln());
            node_l1h.push((1.0 - hc).ln());
        }
        let mut grid_hc = Vec::new();
        let mut grid_lh = Vec::new();
        let mut grid_l1h = Vec::new();
        for h in bracketing_points() {
            let hc = h.clamp(1e-12, 1.0 - 1e-12);
            grid_hc.push(hc);
            grid_lh.push(hc.ln());
            grid_l1h.push((1.0 - hc).ln());
        }
        // Pad the grid tables to a whole number of scan chunks by repeating
        // the last grid point. A `max` fold over duplicates of an element it
        // already visits returns the identical value in both math modes, and
        // the padding lets the per-worker `log_max` scans run lane chunks
        // only — no serial scalar-remainder dependency chain at the tail.
        while !grid_hc.len().is_multiple_of(VEXP_LANES) {
            // c4u-lint: allow(no-unwrap-in-lib, reason = "the bracketing grid was just checked non-empty")
            grid_hc.push(*grid_hc.last().expect("bracketing grid is non-empty"));
            // c4u-lint: allow(no-unwrap-in-lib, reason = "the bracketing grid was just checked non-empty")
            grid_lh.push(*grid_lh.last().expect("bracketing grid is non-empty"));
            // c4u-lint: allow(no-unwrap-in-lib, reason = "the bracketing grid was just checked non-empty")
            grid_l1h.push(*grid_l1h.last().expect("bracketing grid is non-empty"));
        }
        Self {
            node_h,
            node_hc,
            node_w,
            node_wf,
            node_lh,
            node_l1h,
            grid_hc,
            grid_lh,
            grid_l1h,
            math,
        }
    }

    /// Number of quadrature nodes in the tables (always at least 2; rules
    /// shorter than the chunk widths run entirely on the scalar remainder
    /// paths, with identical per-element arithmetic).
    pub fn num_nodes(&self) -> usize {
        self.node_h.len()
    }

    /// The fold-arithmetic contract this batch was built with.
    pub fn math(&self) -> QuadratureMath {
        self.math
    }

    /// `log Z` of Eq. 5 for a whole shared-`sigma` batch: one sweep over the
    /// node tables per worker, one counter tick for the whole call.
    ///
    /// `mu`, `c`, `x` and `log_z_out` must have equal lengths. In
    /// [`QuadratureMath::Exact`] mode each output is bit-identical to
    /// [`binomial_normal_log_z`](crate::binomial_normal_log_z) at the same
    /// `(mu, sigma, c, x)`; an underflowing normaliser yields
    /// `f64::NEG_INFINITY` exactly as the scalar path does.
    ///
    /// Allocates a fresh scratch buffer; hot loops should hold a
    /// [`QuadratureScratch`] and call
    /// [`log_z_with_scratch`](Self::log_z_with_scratch).
    pub fn log_z(&self, sigma: f64, mu: &[f64], c: &[f64], x: &[f64], log_z_out: &mut [f64]) {
        self.log_z_with_scratch(sigma, mu, c, x, log_z_out, &mut QuadratureScratch::new());
    }

    /// [`log_z`](Self::log_z) with a caller-owned scratch buffer: zero heap
    /// allocations once the scratch has grown to the rule size.
    pub fn log_z_with_scratch(
        &self,
        sigma: f64,
        mu: &[f64],
        c: &[f64],
        x: &[f64],
        log_z_out: &mut [f64],
        scratch: &mut QuadratureScratch,
    ) {
        assert_eq!(mu.len(), c.len());
        assert_eq!(mu.len(), x.len());
        assert_eq!(mu.len(), log_z_out.len());
        record_batched_sweep();
        let sigma = sigma.max(SIGMA_FLOOR);
        let ln_sigma = sigma.ln();
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        let scratch = scratch.nodes(self.num_nodes());
        for i in 0..mu.len() {
            let (mu_i, c_i, x_i) = (mu[i], c[i], x[i]);
            let log_max = self.log_max(sigma, ln_sigma, half_ln_2pi, mu_i, c_i, x_i);
            if !log_max.is_finite() {
                log_z_out[i] = f64::NEG_INFINITY;
                continue;
            }
            let sum_z = match self.math {
                QuadratureMath::Exact => {
                    self.fill_shifted_log_integrand(
                        sigma,
                        ln_sigma,
                        half_ln_2pi,
                        mu_i,
                        c_i,
                        x_i,
                        log_max,
                        scratch,
                    );
                    self.fold_z_exact(scratch)
                }
                QuadratureMath::FastVector => self.sweep_z_fast(
                    1.0 / sigma,
                    ln_sigma + half_ln_2pi + log_max,
                    mu_i,
                    c_i,
                    x_i,
                ),
            };
            let z = sum_z * HALF;
            log_z_out[i] = if z <= 0.0 || !z.is_finite() {
                f64::NEG_INFINITY
            } else {
                z.ln() + log_max
            };
        }
    }

    /// `(log Z, E[h])` of Eq. 5/8 for a whole shared-`sigma` batch.
    ///
    /// In [`QuadratureMath::Exact`] mode outputs are bit-identical to
    /// [`binomial_normal_moments`](crate::binomial_normal_moments) at the same
    /// `(mu, sigma, c, x)`, including the underflow fallback
    /// `(NEG_INFINITY, mu.clamp(0, 1))`.
    ///
    /// Allocates a fresh scratch buffer; hot loops should hold a
    /// [`QuadratureScratch`] and call
    /// [`moments_with_scratch`](Self::moments_with_scratch).
    pub fn moments(
        &self,
        sigma: f64,
        mu: &[f64],
        c: &[f64],
        x: &[f64],
        log_z_out: &mut [f64],
        mean_out: &mut [f64],
    ) {
        self.moments_with_scratch(
            sigma,
            mu,
            c,
            x,
            log_z_out,
            mean_out,
            &mut QuadratureScratch::new(),
        );
    }

    /// [`moments`](Self::moments) with a caller-owned scratch buffer: zero
    /// heap allocations once the scratch has grown to the rule size.
    #[allow(clippy::too_many_arguments)]
    pub fn moments_with_scratch(
        &self,
        sigma: f64,
        mu: &[f64],
        c: &[f64],
        x: &[f64],
        log_z_out: &mut [f64],
        mean_out: &mut [f64],
        scratch: &mut QuadratureScratch,
    ) {
        assert_eq!(mu.len(), c.len());
        assert_eq!(mu.len(), x.len());
        assert_eq!(mu.len(), log_z_out.len());
        assert_eq!(mu.len(), mean_out.len());
        record_batched_sweep();
        let sigma = sigma.max(SIGMA_FLOOR);
        let ln_sigma = sigma.ln();
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        let scratch = scratch.nodes(self.num_nodes());
        for i in 0..mu.len() {
            let (mu_i, c_i, x_i) = (mu[i], c[i], x[i]);
            let log_max = self.log_max(sigma, ln_sigma, half_ln_2pi, mu_i, c_i, x_i);
            if !log_max.is_finite() {
                log_z_out[i] = f64::NEG_INFINITY;
                mean_out[i] = mu_i.clamp(0.0, 1.0);
                continue;
            }
            // The scalar path runs the normaliser and the moment as two
            // independent `integrate` calls over the same integrand values;
            // one fused node-order pass reproduces both sums bit for bit
            // because each accumulator sees the same terms in the same order.
            let (sum_z, sum_m) = match self.math {
                QuadratureMath::Exact => {
                    self.fill_shifted_log_integrand(
                        sigma,
                        ln_sigma,
                        half_ln_2pi,
                        mu_i,
                        c_i,
                        x_i,
                        log_max,
                        scratch,
                    );
                    self.fold_zm_exact(scratch)
                }
                QuadratureMath::FastVector => self.sweep_zm_fast(
                    1.0 / sigma,
                    ln_sigma + half_ln_2pi + log_max,
                    mu_i,
                    c_i,
                    x_i,
                ),
            };
            let z = sum_z * HALF;
            let first = sum_m * HALF;
            if z <= 0.0 || !z.is_finite() {
                log_z_out[i] = f64::NEG_INFINITY;
                mean_out[i] = mu_i.clamp(0.0, 1.0);
            } else {
                log_z_out[i] = z.ln() + log_max;
                mean_out[i] = first / z;
            }
        }
    }

    /// `log Z` and its conditional-mean/variance derivatives for a
    /// shared-`sigma` batch — the Eq. 6–7 gradient sweep, over these tables.
    ///
    /// In [`QuadratureMath::Exact`] mode this is bit-identical to
    /// [`binomial_normal_log_z_gradients`](crate::binomial_normal_log_z_gradients),
    /// which now delegates here; the historical accumulation (folded weights,
    /// combined normalisation constant, clamped node in `h - mu`) is preserved
    /// operation for operation.
    ///
    /// Allocates the output and a scratch buffer; hot loops should reuse both
    /// via [`log_z_gradients_into`](Self::log_z_gradients_into).
    pub fn log_z_gradients(
        &self,
        sigma: f64,
        observations: &[(f64, f64, f64)],
    ) -> Vec<LogZGradient> {
        let mut out = vec![LogZGradient::default(); observations.len()];
        self.log_z_gradients_into(sigma, observations, &mut out, &mut QuadratureScratch::new());
        out
    }

    /// [`log_z_gradients`](Self::log_z_gradients) into a caller-owned output
    /// slice with a caller-owned scratch buffer: zero heap allocations once
    /// the scratch has grown to the rule size. `out` must have the same
    /// length as `observations`.
    pub fn log_z_gradients_into(
        &self,
        sigma: f64,
        observations: &[(f64, f64, f64)],
        out: &mut [LogZGradient],
        scratch: &mut QuadratureScratch,
    ) {
        assert_eq!(observations.len(), out.len());
        record_batched_sweep();
        let shape = GradientShape::new(sigma);
        let scratch = scratch.nodes(self.num_nodes());
        for (&(mu, c, x), grad) in observations.iter().zip(out.iter_mut()) {
            *grad = self.cell_gradient(&shape, mu, c, x, scratch);
        }
    }

    /// Tabulates the count factors of `counts` over these nodes: for each
    /// `(C, X)` pair, `exp(C ln h_j + X ln(1 - h_j) - a_max)` at every node
    /// `h_j`, where `a_max` is the pair's own maximum over the nodes.
    ///
    /// The binomial factor of the integrand depends only on the answer
    /// counts, so a CPE kernel builds this table once, over the few distinct
    /// count pairs of its observations, and every
    /// [`log_z_gradients_factored_into`](Self::log_z_gradients_factored_into)
    /// sweep of the update reuses it. The table is built with libm `exp` in
    /// both math modes (it is not on the per-epoch path).
    pub fn count_factors(&self, counts: &[(f64, f64)]) -> CountFactors {
        let n = self.num_nodes();
        let mut rows = Vec::with_capacity(counts.len() * n);
        let mut shifts = Vec::with_capacity(counts.len());
        for &(c, x) in counts {
            let start = rows.len();
            rows.extend(
                self.node_lh
                    .iter()
                    .zip(&self.node_l1h)
                    .map(|(&lh, &l1h)| c * lh + x * l1h),
            );
            let row = &mut rows[start..];
            let a_max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for t in row.iter_mut() {
                *t = (*t - a_max).exp();
            }
            shifts.push(a_max);
        }
        CountFactors {
            num_nodes: n,
            counts: counts.to_vec(),
            rows,
            shifts,
        }
    }

    /// The Eq. 6–7 gradient sweep of
    /// [`log_z_gradients_into`](Self::log_z_gradients_into), factored: the
    /// integrand `h^C (1-h)^X N(h; m, sigma^2)` splits into a count factor
    /// (from `factors`, one row per `(C, X)` pair) and a Gaussian factor that
    /// depends only on the cell's conditional mean.
    ///
    /// Cell `i` is `cells[i] = (profile, pair)`: its conditional mean is
    /// `profile_mu[profile]` and its counts are `factors`' pair `pair`. Each
    /// profile gets one Gaussian row `wf_j exp(-(h_j - m)^2 / (2 sigma^2) -
    /// q_max)` (libm `exp` in [`QuadratureMath::Exact`], [`vexp`] in
    /// [`QuadratureMath::FastVector`]), shifted by its own node maximum
    /// `q_max`, plus its `(h_j - m)` and `(h_j - m)^2` copies; the row is
    /// rebuilt only when the profile changes from one cell to the next, so
    /// cells should come grouped by profile. Each cell then costs three
    /// node-length dot products, and `log Z = ln z0 + a_max + q_max -
    /// norm_const`.
    ///
    /// Because each factor is shifted by its own node maximum, a narrow
    /// conditional (a `sigma` far below the node spacing) keeps a finite
    /// `log Z` and gradient where the per-cell sweep's bracketing-grid shift
    /// underflows every node term. A cell whose factored `z0` is non-finite
    /// or below `1e-280` is recomputed by the per-cell arithmetic of
    /// [`log_z_gradients_into`](Self::log_z_gradients_into), so true underflow
    /// keeps that path's result bit for bit (`-inf`, zero gradient).
    /// Elsewhere the two sweeps agree to rounding, not bit for bit.
    ///
    /// One counter tick for the whole call; fallback cells do not tick again.
    /// `out` must have the same length as `cells`. Zero heap allocations once
    /// `scratch` has grown to the rule size.
    ///
    /// # Panics
    ///
    /// If `factors` was built over a rule of another size, if the output
    /// length differs from `cells`, or if a cell indexes outside
    /// `profile_mu` or `factors`.
    // c4u-lint: hot-path
    pub fn log_z_gradients_factored_into(
        &self,
        sigma: f64,
        factors: &CountFactors,
        profile_mu: &[f64],
        cells: &[(usize, usize)],
        out: &mut [LogZGradient],
        scratch: &mut QuadratureScratch,
    ) {
        let n = self.num_nodes();
        assert_eq!(factors.num_nodes, n);
        assert_eq!(cells.len(), out.len());
        record_batched_sweep();
        let shape = GradientShape::new(sigma);
        let (node_buf, rows) = scratch.nodes_and_rows(n);
        let (g0, rest) = rows.split_at_mut(n);
        let (g1, g2) = rest.split_at_mut(n);
        let mut row_profile = None;
        let mut q_max = 0.0;
        for (&(profile, pair), grad) in cells.iter().zip(out.iter_mut()) {
            let mu = profile_mu[profile];
            if row_profile != Some(profile) {
                q_max = self.gaussian_rows(shape.sigma, mu, g0, g1, g2);
                row_profile = Some(profile);
            }
            let (z0, z1, z2) = dot3(factors.row(pair), g0, g1, g2);
            *grad = if z0.is_finite() && z0 >= FACTORED_Z_FLOOR {
                shape.gradient(z0, z1, z2, factors.shifts[pair] + q_max - shape.norm_const)
            } else {
                let (c, x) = factors.counts[pair];
                self.cell_gradient(&shape, mu, c, x, node_buf)
            };
        }
    }
    // c4u-lint: end-hot-path

    /// The peak-bracketing grid's log-integrand maximum for one cell — the
    /// stable-exponentiation shift every evaluation path (scalar and batched)
    /// normalises by before exponentiating.
    ///
    /// Exposed as a diagnostic so equivalence suites can reason about the
    /// *shifted* mass `exp(log_z - peak)`: when that mass lands in subnormal
    /// territory the last-digit noise of any `log_z` is unbounded (subnormals
    /// are quantised to multiples of ~4.9e-324), so comparisons between
    /// independently accumulated paths must happen in the shifted exp domain,
    /// not the log domain.
    pub fn log_integrand_peak(&self, sigma: f64, mu: f64, c: f64, x: f64) -> f64 {
        let sigma = sigma.max(SIGMA_FLOOR);
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        self.log_max(sigma, sigma.ln(), half_ln_2pi, mu, c, x)
    }

    /// `log_max` over the peak-bracketing grid with the moments path's split
    /// constants (`- ln_sigma - half_ln_2pi`, matching the scalar closure's
    /// subtraction order bit for bit in [`QuadratureMath::Exact`] mode).
    fn log_max(&self, sigma: f64, ln_sigma: f64, half_ln_2pi: f64, mu: f64, c: f64, x: f64) -> f64 {
        match self.math {
            QuadratureMath::Exact => self.grid_max(|hc, lh, l1h| {
                let z = (hc - mu) / sigma;
                c * lh + x * l1h - 0.5 * z * z - ln_sigma - half_ln_2pi
            }),
            QuadratureMath::FastVector => {
                self.grid_max_approx(mu, c, x, 1.0 / sigma, ln_sigma + half_ln_2pi)
            }
        }
    }

    /// `log_max` over the peak-bracketing grid with the gradient path's
    /// combined normalisation constant (`- norm_const`, preserving that
    /// sweep's historical arithmetic bit for bit in
    /// [`QuadratureMath::Exact`] mode).
    fn log_max_combined(&self, sigma: f64, norm_const: f64, mu: f64, c: f64, x: f64) -> f64 {
        match self.math {
            QuadratureMath::Exact => self.grid_max(|hc, lh, l1h| {
                let z = (hc - mu) / sigma;
                c * lh + x * l1h - 0.5 * z * z - norm_const
            }),
            QuadratureMath::FastVector => self.grid_max_approx(mu, c, x, 1.0 / sigma, norm_const),
        }
    }

    /// Division-free `log_max` of the [`QuadratureMath::FastVector`] path:
    /// the Gaussian exponent is expanded to the quadratic
    /// `alpha·hc² + beta·hc + gamma` (`alpha = −1/(2 sigma²)`, constants
    /// folded per worker), so every grid point costs four fused
    /// multiply-adds and a compare — no division, no `f64::max` libcall —
    /// in one 8-lane chunked max pass.
    ///
    /// Expanding the square trades the exact form's `~2^-48` relative error
    /// for a cancellation-amplified **absolute** error of order
    /// `eps · |alpha|` (≲1e-4 at the `SIGMA_FLOOR` extreme). That is fine
    /// *here* — and only here — because the stabilisation peak **cancels
    /// mathematically** in everything the sweeps return: `log Z` adds the
    /// same `log_max` it subtracted inside the exponent, and the
    /// moment/gradient outputs are ratios of sums that scale by the
    /// identical `exp(-log_max)`. Any finite shift within the exp
    /// over/underflow budget (~±700 nats of the true peak) produces the same
    /// results up to ordinary rounding, well inside the FastVector ~1e-12
    /// tolerance contract (only a cell balanced on the absolute underflow
    /// cutoff could flip its `NEG_INFINITY` fallback, which that contract
    /// already treats as a boundary). The per-node *fill* arithmetic must
    /// NOT use this expansion — its errors do not cancel.
    ///
    /// `NaN` grid terms (an edge point's `0 · ln 0`) are skipped by the
    /// `t > a` compare-select exactly as the exact scan's `f64::max` skips
    /// them, and a non-finite result still falls back the same way: the
    /// caller replaces the whole cell with the underflow value.
    ///
    /// Marked `#[inline]` for the same reason as [`vexp`]: one call per
    /// worker from the hot batch loops, where the call boundary would spill
    /// the loop's live vector registers.
    // c4u-lint: hot-path
    #[inline]
    fn grid_max_approx(&self, mu: f64, c: f64, x: f64, inv_sigma: f64, k: f64) -> f64 {
        let alpha = -0.5 * inv_sigma * inv_sigma;
        let beta = -2.0 * alpha * mu;
        let gamma = alpha * mu * mu - k;
        let mut acc = [f64::NEG_INFINITY; VEXP_LANES];
        let mut hc_it = self.grid_hc.chunks_exact(VEXP_LANES);
        let mut lh_it = self.grid_lh.chunks_exact(VEXP_LANES);
        let mut l1h_it = self.grid_l1h.chunks_exact(VEXP_LANES);
        for ((hc, lh), l1h) in (&mut hc_it).zip(&mut lh_it).zip(&mut l1h_it) {
            for (a, ((&hc, &lh), &l1h)) in acc.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                let t = hc.mul_add(hc.mul_add(alpha, beta), gamma);
                let t = lh.mul_add(c, t);
                let t = l1h.mul_add(x, t);
                *a = if t > *a { t } else { *a };
            }
        }
        for ((&hc, &lh), &l1h) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
        {
            let t = hc.mul_add(hc.mul_add(alpha, beta), gamma);
            let t = lh.mul_add(c, t);
            let t = l1h.mul_add(x, t);
            acc[0] = if t > acc[0] { t } else { acc[0] };
        }
        acc.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Chunked max-reduce of `term` over the bracketing-grid tables: 4-lane
    /// max accumulators over the chunks, scalar tail, lanes folded at the
    /// end. Bit-identical to a sequential scan for every fold order —
    /// floating-point `max` is commutative and associative on the non-`NaN`
    /// values the grid produces (and an all-`-inf` scan still yields
    /// `-inf`) — while letting the autovectoriser keep the grid scan in
    /// packed lanes. The [`QuadratureMath::Exact`] grid path.
    fn grid_max(&self, term: impl Fn(f64, f64, f64) -> f64) -> f64 {
        let mut acc = [f64::NEG_INFINITY; FOLD_LANES];
        let mut hc_it = self.grid_hc.chunks_exact(FOLD_LANES);
        let mut lh_it = self.grid_lh.chunks_exact(FOLD_LANES);
        let mut l1h_it = self.grid_l1h.chunks_exact(FOLD_LANES);
        for ((hc, lh), l1h) in (&mut hc_it).zip(&mut lh_it).zip(&mut l1h_it) {
            for (a, ((&hc, &lh), &l1h)) in acc.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                *a = a.max(term(hc, lh, l1h));
            }
        }
        for ((&hc, &lh), &l1h) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
        {
            acc[0] = acc[0].max(term(hc, lh, l1h));
        }
        acc.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Pass 1 of the [`QuadratureMath::Exact`] per-worker sweep: the shifted
    /// log-integrand value at every node into `scratch`, preserving the
    /// scalar oracle's `/ sigma` division and constant-subtraction order bit
    /// for bit. Split-constant form (moments path). The `FastVector` sweeps
    /// never stage through `scratch` — see [`sweep_zm_fast`](Self::sweep_zm_fast).
    #[allow(clippy::too_many_arguments)]
    fn fill_shifted_log_integrand(
        &self,
        sigma: f64,
        ln_sigma: f64,
        half_ln_2pi: f64,
        mu: f64,
        c: f64,
        x: f64,
        log_max: f64,
        scratch: &mut [f64],
    ) {
        for (((t, hc), lh), l1h) in scratch
            .iter_mut()
            .zip(&self.node_hc)
            .zip(&self.node_lh)
            .zip(&self.node_l1h)
        {
            let z = (hc - mu) / sigma;
            *t = c * lh + x * l1h - 0.5 * z * z - ln_sigma - half_ln_2pi - log_max;
        }
    }

    /// Pass 1 with the gradient path's combined normalisation constant
    /// ([`QuadratureMath::Exact`] only, like
    /// [`fill_shifted_log_integrand`](Self::fill_shifted_log_integrand)).
    #[allow(clippy::too_many_arguments)]
    fn fill_shifted_log_integrand_combined(
        &self,
        sigma: f64,
        norm_const: f64,
        mu: f64,
        c: f64,
        x: f64,
        log_max: f64,
        scratch: &mut [f64],
    ) {
        for (((t, hc), lh), l1h) in scratch
            .iter_mut()
            .zip(&self.node_hc)
            .zip(&self.node_lh)
            .zip(&self.node_l1h)
        {
            let z = (hc - mu) / sigma;
            *t = c * lh + x * l1h - 0.5 * z * z - norm_const - log_max;
        }
    }

    /// One cell of the per-cell gradient sweep: `log Z`, `∂/∂mu` and `∂/∂v`
    /// of `h^c (1-h)^x N(h; mu, sigma^2)`, shifted by the bracketing-grid
    /// peak, with `-inf` and a zero gradient when the normaliser underflows.
    fn cell_gradient(
        &self,
        shape: &GradientShape,
        mu: f64,
        c: f64,
        x: f64,
        scratch: &mut [f64],
    ) -> LogZGradient {
        let GradientShape {
            sigma, norm_const, ..
        } = *shape;
        let underflow = LogZGradient {
            log_z: f64::NEG_INFINITY,
            d_mean: 0.0,
            d_variance: 0.0,
        };
        let log_max = self.log_max_combined(sigma, norm_const, mu, c, x);
        if !log_max.is_finite() {
            return underflow;
        }
        // The same shape as the moments sweep, with the gradient path's
        // combined normalisation constant; the fold fuses the three moments
        // Z, E[h - mu], E[(h - mu)^2].
        let (z0, z1, z2) = match self.math {
            QuadratureMath::Exact => {
                self.fill_shifted_log_integrand_combined(
                    sigma, norm_const, mu, c, x, log_max, scratch,
                );
                self.fold_gradient_exact(scratch, mu)
            }
            QuadratureMath::FastVector => {
                self.sweep_gradient_fast(1.0 / sigma, norm_const + log_max, mu, c, x)
            }
        };
        if z0 <= 0.0 || !z0.is_finite() {
            underflow
        } else {
            shape.gradient(z0, z1, z2, log_max)
        }
    }

    /// The factored sweep's Gaussian rows for one conditional mean `mu`:
    /// `g0_j = wf_j exp(-u_j^2 / 2 - q_max)` with `u_j = (h_j - mu) / sigma`
    /// and `q_max` the largest `-u_j^2 / 2` over the nodes, `g1_j = g0_j (h_j -
    /// mu)` and `g2_j = g1_j (h_j - mu)`. Returns `q_max`.
    fn gaussian_rows(
        &self,
        sigma: f64,
        mu: f64,
        g0: &mut [f64],
        g1: &mut [f64],
        g2: &mut [f64],
    ) -> f64 {
        let inv_sigma = 1.0 / sigma;
        for (q, &hc) in g0.iter_mut().zip(&self.node_hc) {
            let u = (hc - mu) * inv_sigma;
            *q = -0.5 * u * u;
        }
        let q_max = g0.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for q in g0.iter_mut() {
            *q -= q_max;
        }
        match self.math {
            QuadratureMath::Exact => {
                for q in g0.iter_mut() {
                    // c4u-lint: allow(scalar-libm-in-hot-path, reason = "Exact-mode fold: QuadratureMath::Exact keeps libm exp; one row per profile, not per cell")
                    *q = q.exp();
                }
            }
            QuadratureMath::FastVector => vexp(g0),
        }
        for (((e, &wf), &hc), (d1, d2)) in g0
            .iter_mut()
            .zip(&self.node_wf)
            .zip(&self.node_hc)
            .zip(g1.iter_mut().zip(g2.iter_mut()))
        {
            let d = hc - mu;
            *e *= wf;
            *d1 = *e * d;
            *d2 = *d1 * d;
        }
        q_max
    }

    /// Exact-mode normaliser fold: libm `exp`, node-order serial sum — the
    /// summation order of `GaussLegendre::integrate`, bit for bit.
    fn fold_z_exact(&self, scratch: &[f64]) -> f64 {
        let mut sum_z = 0.0;
        for (t, w) in scratch.iter().zip(&self.node_w) {
            // c4u-lint: allow(scalar-libm-in-hot-path, reason = "Exact-mode fold: QuadratureMath::Exact is contractually bit-pinned to scalar libm exp")
            sum_z += w * t.exp();
        }
        sum_z
    }

    /// Pairwise tree reduction of a lane accumulator: `log2(LANES)` rounds of
    /// halving instead of a serial left fold. The serial fold is a
    /// latency-chained `LANES - 1` additions (~4 cycles each) per worker; the
    /// tree is `log2(LANES)` dependent rounds. Fast-sweep accumulators only —
    /// the Exact folds keep the pinned node-order serial sum.
    #[inline]
    fn hsum_lanes(mut acc: [f64; VEXP_LANES]) -> f64 {
        const { assert!(VEXP_LANES.is_power_of_two()) };
        let mut half = VEXP_LANES / 2;
        while half >= 1 {
            for i in 0..half {
                acc[i] += acc[i + half];
            }
            half /= 2;
        }
        acc[0]
    }

    /// FastVector normaliser sweep: fill, exponentiate, and accumulate one
    /// [`VEXP_LANES`]-wide node chunk at a time, entirely in registers and a
    /// stack staging buffer — no scratch round-trip. The per-node arithmetic
    /// is the division-free fill form (`u = (hc − mu)·(1/sigma)`, constants
    /// folded per worker into `k`) followed by [`vexp`] on the staged chunk;
    /// the remainder (and any rule shorter than one chunk) runs the
    /// identical [`vexp_scalar`] math, so results stay position-independent.
    fn sweep_z_fast(&self, inv_sigma: f64, k: f64, mu: f64, c: f64, x: f64) -> f64 {
        let mut acc = [0.0f64; VEXP_LANES];
        let mut buf = [0.0f64; VEXP_LANES];
        let mut hc_it = self.node_hc.chunks_exact(VEXP_LANES);
        let mut lh_it = self.node_lh.chunks_exact(VEXP_LANES);
        let mut l1h_it = self.node_l1h.chunks_exact(VEXP_LANES);
        let mut w_it = self.node_w.chunks_exact(VEXP_LANES);
        for (((hc, lh), l1h), w) in (&mut hc_it).zip(&mut lh_it).zip(&mut l1h_it).zip(&mut w_it) {
            for (b, ((&hc, &lh), &l1h)) in buf.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                let u = (hc - mu) * inv_sigma;
                *b = x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k);
            }
            vexp(&mut buf);
            for (a, (&e, &w)) in acc.iter_mut().zip(buf.iter().zip(w)) {
                *a += w * e;
            }
        }
        for (((&hc, &lh), &l1h), &w) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
            .zip(w_it.remainder())
        {
            let u = (hc - mu) * inv_sigma;
            let e = vexp_scalar(x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k));
            acc[0] += w * e;
        }
        Self::hsum_lanes(acc)
    }

    /// Exact-mode fused normaliser+moment fold (see `moments`).
    fn fold_zm_exact(&self, scratch: &[f64]) -> (f64, f64) {
        let mut sum_z = 0.0;
        let mut sum_m = 0.0;
        for ((t, w), h) in scratch.iter().zip(&self.node_w).zip(&self.node_h) {
            // c4u-lint: allow(scalar-libm-in-hot-path, reason = "Exact-mode fold: QuadratureMath::Exact is contractually bit-pinned to scalar libm exp")
            let e = t.exp();
            sum_z += w * e;
            sum_m += w * (h * e);
        }
        (sum_z, sum_m)
    }

    /// FastVector fused normaliser+moment sweep — the chunked fill/exp/fold
    /// shape of [`sweep_z_fast`](Self::sweep_z_fast), accumulating `Z` and
    /// the first moment together.
    fn sweep_zm_fast(&self, inv_sigma: f64, k: f64, mu: f64, c: f64, x: f64) -> (f64, f64) {
        let mut acc_z = [0.0f64; VEXP_LANES];
        let mut acc_m = [0.0f64; VEXP_LANES];
        let mut buf = [0.0f64; VEXP_LANES];
        let mut hc_it = self.node_hc.chunks_exact(VEXP_LANES);
        let mut lh_it = self.node_lh.chunks_exact(VEXP_LANES);
        let mut l1h_it = self.node_l1h.chunks_exact(VEXP_LANES);
        let mut w_it = self.node_w.chunks_exact(VEXP_LANES);
        let mut h_it = self.node_h.chunks_exact(VEXP_LANES);
        for ((((hc, lh), l1h), w), h) in (&mut hc_it)
            .zip(&mut lh_it)
            .zip(&mut l1h_it)
            .zip(&mut w_it)
            .zip(&mut h_it)
        {
            for (b, ((&hc, &lh), &l1h)) in buf.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                let u = (hc - mu) * inv_sigma;
                *b = x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k);
            }
            vexp(&mut buf);
            // Fixed-size chunk views: `[f64; VEXP_LANES]` (rather than
            // length-8 slices) is the shape LLVM widens into clean packed
            // multiply-adds across the chunk instead of pairing the two
            // accumulators per node into element shuffles.
            // c4u-lint: allow(no-unwrap-in-lib, reason = "chunks_exact yields slices of exactly the requested width")
            let w: &[f64; VEXP_LANES] = w.try_into().expect("chunks_exact width");
            // c4u-lint: allow(no-unwrap-in-lib, reason = "chunks_exact yields slices of exactly the requested width")
            let h: &[f64; VEXP_LANES] = h.try_into().expect("chunks_exact width");
            for j in 0..VEXP_LANES {
                buf[j] *= w[j];
            }
            for j in 0..VEXP_LANES {
                acc_z[j] += buf[j];
            }
            for j in 0..VEXP_LANES {
                acc_m[j] += h[j] * buf[j];
            }
        }
        for ((((&hc, &lh), &l1h), &w), &h) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
            .zip(w_it.remainder())
            .zip(h_it.remainder())
        {
            let u = (hc - mu) * inv_sigma;
            let e = w * vexp_scalar(x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k));
            acc_z[0] += e;
            acc_m[0] += h * e;
        }
        (Self::hsum_lanes(acc_z), Self::hsum_lanes(acc_m))
    }

    /// Exact-mode fused gradient fold: the three moments `Z`, `E[h - mu]`,
    /// `E[(h - mu)^2]` with the historical folded-weight accumulation.
    fn fold_gradient_exact(&self, scratch: &[f64], mu: f64) -> (f64, f64, f64) {
        let (mut z0, mut z1, mut z2) = (0.0, 0.0, 0.0);
        for ((t, hc), wf) in scratch.iter().zip(&self.node_hc).zip(&self.node_wf) {
            // c4u-lint: allow(scalar-libm-in-hot-path, reason = "Exact-mode fold: QuadratureMath::Exact is contractually bit-pinned to scalar libm exp")
            let e = wf * t.exp();
            let d = hc - mu;
            z0 += e;
            z1 += d * e;
            z2 += d * d * e;
        }
        (z0, z1, z2)
    }

    /// FastVector fused gradient sweep — the chunked fill/exp/fold shape of
    /// [`sweep_z_fast`](Self::sweep_z_fast) over the folded-weight tables,
    /// accumulating the three moments `Z`, `E[h - mu]`, `E[(h - mu)^2]`.
    fn sweep_gradient_fast(
        &self,
        inv_sigma: f64,
        k: f64,
        mu: f64,
        c: f64,
        x: f64,
    ) -> (f64, f64, f64) {
        let mut a0 = [0.0f64; VEXP_LANES];
        let mut a1 = [0.0f64; VEXP_LANES];
        let mut a2 = [0.0f64; VEXP_LANES];
        let mut buf = [0.0f64; VEXP_LANES];
        let mut hc_it = self.node_hc.chunks_exact(VEXP_LANES);
        let mut lh_it = self.node_lh.chunks_exact(VEXP_LANES);
        let mut l1h_it = self.node_l1h.chunks_exact(VEXP_LANES);
        let mut wf_it = self.node_wf.chunks_exact(VEXP_LANES);
        for (((hc, lh), l1h), wf) in (&mut hc_it)
            .zip(&mut lh_it)
            .zip(&mut l1h_it)
            .zip(&mut wf_it)
        {
            for (b, ((&hc, &lh), &l1h)) in buf.iter_mut().zip(hc.iter().zip(lh).zip(l1h)) {
                let u = (hc - mu) * inv_sigma;
                *b = x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k);
            }
            vexp(&mut buf);
            // Same single-accumulator-per-loop shape as `sweep_zm_fast`: fold
            // the weight in, then widen each moment independently.
            for (b, &wf) in buf.iter_mut().zip(wf) {
                *b *= wf;
            }
            for (a, &e) in a0.iter_mut().zip(&buf) {
                *a += e;
            }
            for (a, (&e, &hc)) in a1.iter_mut().zip(buf.iter().zip(hc)) {
                *a += (hc - mu) * e;
            }
            for (a, (&e, &hc)) in a2.iter_mut().zip(buf.iter().zip(hc)) {
                let d = hc - mu;
                *a += d * d * e;
            }
        }
        for (((&hc, &lh), &l1h), &wf) in hc_it
            .remainder()
            .iter()
            .zip(lh_it.remainder())
            .zip(l1h_it.remainder())
            .zip(wf_it.remainder())
        {
            let u = (hc - mu) * inv_sigma;
            let e = wf * vexp_scalar(x.mul_add(l1h, c * lh) - u.mul_add(0.5 * u, k));
            let d = hc - mu;
            a0[0] += e;
            a1[0] += d * e;
            a2[0] += d * d * e;
        }
        (
            Self::hsum_lanes(a0),
            Self::hsum_lanes(a1),
            Self::hsum_lanes(a2),
        )
    }
    // c4u-lint: end-hot-path
}

/// The three dot products `(f·g0, f·g1, f·g2)` of the factored gradient
/// sweep, in [`VEXP_LANES`]-wide partial sums.
// c4u-lint: hot-path
#[inline]
fn dot3(f: &[f64], g0: &[f64], g1: &[f64], g2: &[f64]) -> (f64, f64, f64) {
    let mut a0 = [0.0f64; VEXP_LANES];
    let mut a1 = [0.0f64; VEXP_LANES];
    let mut a2 = [0.0f64; VEXP_LANES];
    let (f_chunks, f_tail) = f.as_chunks::<VEXP_LANES>();
    let (g0_chunks, g0_tail) = g0.as_chunks::<VEXP_LANES>();
    let (g1_chunks, g1_tail) = g1.as_chunks::<VEXP_LANES>();
    let (g2_chunks, g2_tail) = g2.as_chunks::<VEXP_LANES>();
    for (((f, g0), g1), g2) in f_chunks.iter().zip(g0_chunks).zip(g1_chunks).zip(g2_chunks) {
        for j in 0..VEXP_LANES {
            a0[j] += f[j] * g0[j];
            a1[j] += f[j] * g1[j];
            a2[j] += f[j] * g2[j];
        }
    }
    for (((&f, &g0), &g1), &g2) in f_tail.iter().zip(g0_tail).zip(g1_tail).zip(g2_tail) {
        a0[0] += f * g0;
        a1[0] += f * g1;
        a2[0] += f * g2;
    }
    (
        BinomialNormalBatch::hsum_lanes(a0),
        BinomialNormalBatch::hsum_lanes(a1),
        BinomialNormalBatch::hsum_lanes(a2),
    )
}
// c4u-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial_normal::{
        binomial_normal_log_z, binomial_normal_log_z_gradients, binomial_normal_moments,
    };

    const CELLS: [(f64, f64, f64, f64); 8] = [
        (0.5, 0.15, 7.0, 3.0),
        (0.8, 0.05, 0.0, 0.0),
        (0.2, 0.3, 140.0, 2.0),
        (-0.5, 0.1, 5.0, 5.0),
        (0.99, 0.05, 100_000.0, 0.0),
        (0.01, 0.05, 0.0, 100_000.0),
        (0.5, 0.15, 500_000.0, 500_000.0),
        (0.7, 0.0, 4.0, 1.0), // sigma below the floor
    ];

    #[test]
    fn batched_moments_bit_identical_to_scalar() {
        for order in [2usize, 16, 32, 64] {
            let quadrature = GaussLegendre::new(order);
            let batch = BinomialNormalBatch::new(&quadrature);
            for sigma in [0.0, 0.02, 0.12, 0.3] {
                let mu: Vec<f64> = CELLS.iter().map(|c| c.0).collect();
                let c: Vec<f64> = CELLS.iter().map(|c| c.2).collect();
                let x: Vec<f64> = CELLS.iter().map(|c| c.3).collect();
                let mut log_z = vec![0.0; mu.len()];
                let mut mean = vec![0.0; mu.len()];
                batch.moments(sigma, &mu, &c, &x, &mut log_z, &mut mean);
                let mut log_z_only = vec![0.0; mu.len()];
                batch.log_z(sigma, &mu, &c, &x, &mut log_z_only);
                for i in 0..mu.len() {
                    let (slz, sm) = binomial_normal_moments(&quadrature, mu[i], sigma, c[i], x[i]);
                    assert_eq!(log_z[i], slz, "order {order} sigma {sigma} cell {i}");
                    assert_eq!(mean[i], sm, "order {order} sigma {sigma} cell {i}");
                    assert_eq!(log_z_only[i], slz, "order {order} sigma {sigma} cell {i}");
                }
            }
        }
    }

    #[test]
    fn batched_gradients_bit_identical_to_free_function() {
        let quadrature = GaussLegendre::new(32);
        let batch = BinomialNormalBatch::new(&quadrature);
        let obs: Vec<(f64, f64, f64)> = CELLS.iter().map(|&(mu, _, c, x)| (mu, c, x)).collect();
        for sigma in [0.02, 0.12, 0.3] {
            let got = batch.log_z_gradients(sigma, &obs);
            let want = binomial_normal_log_z_gradients(&quadrature, sigma, &obs);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn scratch_variants_bit_identical_to_allocating_forms() {
        let quadrature = GaussLegendre::new(24);
        let batch = BinomialNormalBatch::new(&quadrature);
        let mu: Vec<f64> = CELLS.iter().map(|c| c.0).collect();
        let c: Vec<f64> = CELLS.iter().map(|c| c.2).collect();
        let x: Vec<f64> = CELLS.iter().map(|c| c.3).collect();
        let obs: Vec<(f64, f64, f64)> = CELLS.iter().map(|&(mu, _, c, x)| (mu, c, x)).collect();
        // One scratch reused across every call (and deliberately pre-grown by
        // a larger rule) must not change any result.
        let mut scratch = QuadratureScratch::new();
        BinomialNormalBatch::new(&GaussLegendre::new(48)).log_z_with_scratch(
            0.2,
            &mu,
            &c,
            &x,
            &mut vec![0.0; mu.len()],
            &mut scratch,
        );
        for sigma in [0.02, 0.12] {
            let mut log_z = vec![0.0; mu.len()];
            let mut mean = vec![0.0; mu.len()];
            batch.moments(sigma, &mu, &c, &x, &mut log_z, &mut mean);
            let mut log_z2 = vec![0.0; mu.len()];
            let mut mean2 = vec![0.0; mu.len()];
            batch.moments_with_scratch(sigma, &mu, &c, &x, &mut log_z2, &mut mean2, &mut scratch);
            assert_eq!(log_z, log_z2);
            assert_eq!(mean, mean2);
            let mut lz = vec![0.0; mu.len()];
            batch.log_z_with_scratch(sigma, &mu, &c, &x, &mut lz, &mut scratch);
            assert_eq!(log_z, lz);
            let want = batch.log_z_gradients(sigma, &obs);
            let mut got = vec![LogZGradient::default(); obs.len()];
            batch.log_z_gradients_into(sigma, &obs, &mut got, &mut scratch);
            assert_eq!(got, want);
        }
    }

    /// FastVector is not bit-identical, but on well-scaled cells it must sit
    /// within ~1e-12 relative of the Exact path (the proptest suite widens
    /// this to random cells; this pins the deterministic hard cells).
    #[test]
    fn fast_vector_tracks_exact_within_tolerance() {
        for order in [2usize, 5, 16, 32, 64] {
            let quadrature = GaussLegendre::new(order);
            let exact = BinomialNormalBatch::new(&quadrature);
            let fast = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::FastVector);
            assert_eq!(fast.math(), QuadratureMath::FastVector);
            let mu: Vec<f64> = CELLS.iter().map(|c| c.0).collect();
            let c: Vec<f64> = CELLS.iter().map(|c| c.2).collect();
            let x: Vec<f64> = CELLS.iter().map(|c| c.3).collect();
            for sigma in [0.02, 0.12, 0.3] {
                let n = mu.len();
                let (mut lz_e, mut m_e) = (vec![0.0; n], vec![0.0; n]);
                let (mut lz_f, mut m_f) = (vec![0.0; n], vec![0.0; n]);
                exact.moments(sigma, &mu, &c, &x, &mut lz_e, &mut m_e);
                fast.moments(sigma, &mu, &c, &x, &mut lz_f, &mut m_f);
                for i in 0..n {
                    if lz_e[i] == f64::NEG_INFINITY {
                        assert_eq!(lz_f[i], f64::NEG_INFINITY, "order {order} cell {i}");
                    } else {
                        let tol = 1e-12 * (1.0 + lz_e[i].abs());
                        assert!(
                            (lz_e[i] - lz_f[i]).abs() <= tol,
                            "order {order} sigma {sigma} cell {i}: {} vs {}",
                            lz_e[i],
                            lz_f[i]
                        );
                        // Baseline tolerance plus the conditioning allowance:
                        // the fused fill carries a few ulps of the pre-shift
                        // magnitudes (~|log_z|), which the exponential turns
                        // into relative noise on every node term.
                        let mean_tol = 1e-12 + 64.0 * f64::EPSILON * (1.0 + lz_e[i].abs());
                        assert!(
                            (m_e[i] - m_f[i]).abs() <= mean_tol,
                            "order {order} sigma {sigma} cell {i}: mean {} vs {}",
                            m_e[i],
                            m_f[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn underflow_fallbacks_match_scalar() {
        let quadrature = GaussLegendre::new(32);
        let batch = BinomialNormalBatch::new(&quadrature);
        // Counts so large that the integrand's mass lies entirely between
        // quadrature nodes: the normaliser underflows to zero.
        let (mu, sigma, c, x) = (0.5, 0.15, 500_000.0, 500_000.0);
        let mut log_z = [0.0];
        let mut mean = [0.0];
        batch.moments(sigma, &[mu], &[c], &[x], &mut log_z, &mut mean);
        let (slz, sm) = binomial_normal_moments(&quadrature, mu, sigma, c, x);
        assert_eq!(log_z[0], slz);
        assert_eq!(mean[0], sm);
        assert_eq!(mean[0], 0.5); // mu.clamp(0, 1)
        assert_eq!(log_z[0], f64::NEG_INFINITY);
    }

    #[test]
    fn counters_tick_per_call_not_per_worker() {
        let quadrature = GaussLegendre::new(16);
        let batch = BinomialNormalBatch::new(&quadrature);
        reset_batched_quadrature_sweeps();
        reset_scalar_quadrature_evaluations();
        let mu = [0.5; 100];
        let c = [3.0; 100];
        let x = [2.0; 100];
        let mut log_z = [0.0; 100];
        let mut mean = [0.0; 100];
        batch.log_z(0.1, &mu, &c, &x, &mut log_z);
        batch.moments(0.1, &mu, &c, &x, &mut log_z, &mut mean);
        batch.log_z_gradients(0.1, &[(0.5, 3.0, 2.0)]);
        assert_eq!(batched_quadrature_sweeps(), 3);
        assert_eq!(scalar_quadrature_evaluations(), 0);
        binomial_normal_moments(&quadrature, 0.5, 0.1, 3.0, 2.0);
        binomial_normal_log_z(&quadrature, 0.5, 0.1, 3.0, 2.0);
        assert_eq!(scalar_quadrature_evaluations(), 2);
        assert_eq!(batched_quadrature_sweeps(), 3);
        reset_batched_quadrature_sweeps();
        reset_scalar_quadrature_evaluations();
    }

    /// Factored results, per-cell results and the `(mu, c, x)` cells.
    type Sweeps = (Vec<LogZGradient>, Vec<LogZGradient>, Vec<(f64, f64, f64)>);

    /// The factored sweep over every `(mu, counts)` combination, profile by
    /// profile, next to the per-cell sweep of the same cells.
    fn factored_and_per_cell(
        batch: &BinomialNormalBatch,
        sigma: f64,
        mus: &[f64],
        counts: &[(f64, f64)],
    ) -> Sweeps {
        let factors = batch.count_factors(counts);
        let keys: Vec<(usize, usize)> = (0..mus.len())
            .flat_map(|p| (0..counts.len()).map(move |q| (p, q)))
            .collect();
        let cells: Vec<(f64, f64, f64)> = keys
            .iter()
            .map(|&(p, q)| (mus[p], counts[q].0, counts[q].1))
            .collect();
        let mut factored = vec![LogZGradient::default(); keys.len()];
        batch.log_z_gradients_factored_into(
            sigma,
            &factors,
            mus,
            &keys,
            &mut factored,
            &mut QuadratureScratch::new(),
        );
        (factored, batch.log_z_gradients(sigma, &cells), cells)
    }

    /// The factored sweep's accuracy contract against the per-cell sweep:
    /// `log Z` within `1e-13 (1 + |log Z|)`, `∂m·sigma` within `1e-11` and
    /// `∂v·2sigma²` within `1e-10`, wherever the per-cell sweep is finite.
    fn assert_tracks(sigma: f64, got: &LogZGradient, want: &LogZGradient, what: &str) {
        assert!(
            got.log_z.is_finite(),
            "{what}: factored {got:?} vs {want:?}"
        );
        let log_z = (got.log_z - want.log_z).abs();
        let d_mean = ((got.d_mean - want.d_mean) * sigma).abs();
        let d_variance = ((got.d_variance - want.d_variance) * 2.0 * sigma * sigma).abs();
        assert!(
            log_z <= 1e-13 * (1.0 + want.log_z.abs()) && d_mean <= 1e-11 && d_variance <= 1e-10,
            "{what}: factored {got:?} vs per-cell {want:?} \
             (log Z {log_z:e}, dm·sigma {d_mean:e}, dv·2sigma² {d_variance:e})"
        );
    }

    #[test]
    fn factored_gradients_track_the_per_cell_sweep() {
        let mus = [
            -0.5, -0.1, 0.0, 0.02, 0.3, 0.498, 0.5, 0.77, 0.99, 1.0, 1.2, 1.5,
        ];
        let counts = [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (3.0, 7.0),
            (12.0, 8.0),
            (150.0, 150.0),
            (290.0, 10.0),
            (300.0, 0.0),
            (0.0, 300.0),
        ];
        for math in [QuadratureMath::Exact, QuadratureMath::FastVector] {
            let batch = BinomialNormalBatch::new_with_math(&GaussLegendre::new(32), math);
            for sigma in [1e-3, 3e-3, 0.01, 0.05, 0.15, 0.5, 2.0, 10.0] {
                let (factored, per_cell, cells) =
                    factored_and_per_cell(&batch, sigma, &mus, &counts);
                for ((got, want), cell) in factored.iter().zip(&per_cell).zip(&cells) {
                    let what = format!("{math:?} sigma {sigma} cell {cell:?}");
                    if want.log_z.is_finite() {
                        assert_tracks(sigma, got, want, &what);
                    } else {
                        // Only a fallback cell may keep the per-cell -inf.
                        assert_eq!(got, want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn factored_fallback_cells_return_the_per_cell_bits() {
        // Count and Gaussian factors peaking at opposite ends of [0, 1]: every
        // node product underflows, so the cells take the per-cell arithmetic.
        for math in [QuadratureMath::Exact, QuadratureMath::FastVector] {
            let batch = BinomialNormalBatch::new_with_math(&GaussLegendre::new(32), math);
            for (sigma, mu, c, x) in [
                (1e-3, 1.5, 0.0, 300.0),
                (1e-3, -0.5, 300.0, 0.0),
                (1e-4, 1.5, 0.0, 300.0),
                (1e-4, -0.5, 300.0, 0.0),
            ] {
                let (factored, per_cell, _) =
                    factored_and_per_cell(&batch, sigma, &[mu], &[(c, x)]);
                assert_eq!(factored, per_cell, "{math:?} sigma {sigma} mu {mu}");
            }
            // A far-out mean with a sub-node-spacing sigma: the per-cell sweep
            // returns -inf and a zero gradient, and so does the fallback.
            let (factored, per_cell, _) =
                factored_and_per_cell(&batch, 1e-4, &[1.5], &[(0.0, 300.0)]);
            assert_eq!(per_cell[0].log_z, f64::NEG_INFINITY, "{math:?}");
            assert_eq!((per_cell[0].d_mean, per_cell[0].d_variance), (0.0, 0.0));
            assert_eq!(factored, per_cell, "{math:?}");
        }
    }

    #[test]
    fn factored_sweep_stays_finite_under_a_collapsed_variance() {
        // sigma far below the node spacing around 0.5: the per-cell sweep's
        // bracketing-grid shift underflows every node term, while the factored
        // sweep shifts each factor by its own node maximum.
        let batch = BinomialNormalBatch::new(&GaussLegendre::new(32));
        let (factored, per_cell, _) =
            factored_and_per_cell(&batch, 3.65e-4, &[0.496, 0.498, 0.503], &[(12.0, 8.0)]);
        for (got, want) in factored.iter().zip(&per_cell) {
            assert_eq!(want.log_z, f64::NEG_INFINITY);
            assert!(got.log_z.is_finite() && got.d_mean.is_finite(), "{got:?}");
            // The nearest nodes sit tens of sigmas away: widening helps.
            assert!(got.d_variance > 0.0, "{got:?}");
        }
    }

    #[test]
    fn factored_sweep_ticks_the_counter_once_per_call() {
        let batch = BinomialNormalBatch::new(&GaussLegendre::new(16));
        let factors = batch.count_factors(&[(3.0, 2.0), (0.0, 300.0)]);
        let mut out = [LogZGradient::default(); 3];
        reset_batched_quadrature_sweeps();
        // The second cell falls back to the per-cell arithmetic.
        batch.log_z_gradients_factored_into(
            1e-4,
            &factors,
            &[0.5, 1.5],
            &[(0, 0), (1, 1), (0, 1)],
            &mut out,
            &mut QuadratureScratch::new(),
        );
        assert_eq!(batched_quadrature_sweeps(), 1);
        reset_batched_quadrature_sweeps();
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let quadrature = GaussLegendre::new(8);
        let batch = BinomialNormalBatch::new(&quadrature);
        let mut out = [0.0; 2];
        batch.log_z(0.1, &[0.5], &[1.0], &[1.0], &mut out);
    }

    #[test]
    #[should_panic]
    fn mismatched_gradient_out_length_panics() {
        let quadrature = GaussLegendre::new(8);
        let batch = BinomialNormalBatch::new(&quadrature);
        let mut out = [LogZGradient::default(); 2];
        batch.log_z_gradients_into(
            0.1,
            &[(0.5, 1.0, 1.0)],
            &mut out,
            &mut QuadratureScratch::new(),
        );
    }
}

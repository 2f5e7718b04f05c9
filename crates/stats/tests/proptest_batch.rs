//! Property-based cross-check of the batched SoA quadrature kernel against the
//! scalar binomial×normal oracle.
//!
//! For randomly generated shared-`sigma` batches — the shape of a CPE mask
//! group — [`BinomialNormalBatch`] must agree with per-worker
//! [`binomial_normal_moments`] / [`binomial_normal_log_z`] calls **exactly**
//! (`prop_assert_eq!` on the raw `f64` bits, not an epsilon). Every case
//! force-includes the hard cells on top of the random draws:
//!
//! * boundary-peaked integrands (`X = 0` with large `C`, and `C = 0` with
//!   large `X`) whose peak lives inside the bracketing grid's end gaps;
//! * large-count cells (up to hundreds of thousands of answers), including
//!   counts so extreme the normaliser underflows to `-inf`;
//! * the zero-count cell (`C = X = 0`, the no-posterior prediction path);
//! * out-of-range means and sub-floor sigmas (the degenerate-conditional
//!   clamp).
//!
//! The factored gradient sweep is held to the per-cell gradient sweep by
//! tolerance instead, since it rounds differently.

use c4u_stats::{
    binomial_normal_log_z, binomial_normal_log_z_gradients, binomial_normal_moments,
    BinomialNormalBatch, GaussLegendre, LogZGradient, QuadratureMath, QuadratureScratch,
};
use proptest::prelude::*;

/// One random worker cell: conditional mean and answer counts. The mean range
/// deliberately exceeds `[0, 1]` — conditioning can extrapolate outside the
/// accuracy interval.
fn cell_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (-0.3..1.3f64, 0u32..400_000, 0u32..400_000).prop_map(|(mu, c, x)| (mu, c as f64, x as f64))
}

/// The always-included hard cells: boundary peaks, huge counts, underflow,
/// zero counts.
fn edge_cells() -> Vec<(f64, f64, f64)> {
    vec![
        (0.99, 100_000.0, 0.0),      // boundary peak at h -> 1 (X = 0)
        (0.01, 0.0, 100_000.0),      // boundary peak at h -> 0 (C = 0)
        (0.5, 500_000.0, 500_000.0), // underflows between nodes
        (0.7, 0.0, 0.0),             // zero counts: pure truncated normal
        (1.2, 3.0, 1.0),             // mean beyond the unit interval
    ]
}

/// Answer counts of one factored-sweep cell: `C + X <= 300`, with the
/// one-sided splits (`C = 0` or `X = 0`) drawn often.
fn count_pair_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0u32..=300, 0u32..=4, 0.0..1.0f64).prop_map(|(n, side, split)| {
        let c = match side {
            0 => 0,
            1 => n,
            _ => (n as f64 * split).floor() as u32,
        };
        (c as f64, (n - c) as f64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The factored gradient sweep against the per-cell sweep it replaces on
    /// the CPE update path: per cell, `log Z` within `1e-13 (1 + |log Z|)`,
    /// `∂m·sigma` within `1e-11` and `∂v·2sigma²` within `1e-10`, for sigma
    /// log-uniform in `[1e-3, 10]` and means in `[-0.5, 1.5]`. A cell the
    /// per-cell sweep leaves at `-inf` must come back with exactly its bits
    /// (the factored sweep's fallback).
    #[test]
    fn factored_gradients_track_the_per_cell_sweep(
        mus in prop::collection::vec(-0.5..1.5f64, 1..6),
        counts in prop::collection::vec(count_pair_strategy(), 1..6),
        log_sigma in -3.0..1.0f64,
        fast in 0u8..2,
    ) {
        let sigma = 10f64.powf(log_sigma);
        let math = if fast == 1 { QuadratureMath::FastVector } else { QuadratureMath::Exact };
        let batch = BinomialNormalBatch::new_with_math(&GaussLegendre::new(32), math);
        let factors = batch.count_factors(&counts);
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
            &mus,
            &keys,
            &mut factored,
            &mut QuadratureScratch::new(),
        );
        let per_cell = batch.log_z_gradients(sigma, &cells);
        for ((got, want), cell) in factored.iter().zip(&per_cell).zip(&cells) {
            if !want.log_z.is_finite() {
                prop_assert_eq!(got, want, "{:?} sigma {:e} cell {:?}", math, sigma, cell);
                continue;
            }
            prop_assert!(got.log_z.is_finite(), "cell {:?}: {:?}", cell, got);
            prop_assert!(
                (got.log_z - want.log_z).abs() <= 1e-13 * (1.0 + want.log_z.abs()),
                "{:?} sigma {:e} cell {:?}: log Z {} vs {}", math, sigma, cell, got.log_z, want.log_z
            );
            prop_assert!(
                ((got.d_mean - want.d_mean) * sigma).abs() <= 1e-11,
                "{:?} sigma {:e} cell {:?}: d_mean {} vs {}", math, sigma, cell, got.d_mean, want.d_mean
            );
            prop_assert!(
                ((got.d_variance - want.d_variance) * 2.0 * sigma * sigma).abs() <= 1e-10,
                "{:?} sigma {:e} cell {:?}: d_variance {} vs {}",
                math, sigma, cell, got.d_variance, want.d_variance
            );
        }
    }

    #[test]
    fn batched_moments_and_log_z_match_scalar_bitwise(
        cells in prop::collection::vec(cell_strategy(), 1..12),
        sigma in 0.0..0.5f64,
        order in 2usize..48,
    ) {
        let mut cells = cells;
        cells.extend(edge_cells());
        let quadrature = GaussLegendre::new(order);
        let batch = BinomialNormalBatch::new(&quadrature);
        prop_assert_eq!(batch.num_nodes(), quadrature.order());

        let mu: Vec<f64> = cells.iter().map(|c| c.0).collect();
        let c: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let x: Vec<f64> = cells.iter().map(|c| c.2).collect();
        let mut log_z = vec![0.0; cells.len()];
        let mut mean = vec![0.0; cells.len()];
        batch.moments(sigma, &mu, &c, &x, &mut log_z, &mut mean);
        let mut log_z_only = vec![0.0; cells.len()];
        batch.log_z(sigma, &mu, &c, &x, &mut log_z_only);

        for i in 0..cells.len() {
            let (scalar_log_z, scalar_mean) =
                binomial_normal_moments(&quadrature, mu[i], sigma, c[i], x[i]);
            prop_assert_eq!(log_z[i], scalar_log_z, "cell {} of order {}", i, order);
            prop_assert_eq!(mean[i], scalar_mean, "cell {} of order {}", i, order);
            prop_assert_eq!(
                log_z_only[i],
                binomial_normal_log_z(&quadrature, mu[i], sigma, c[i], x[i]),
                "cell {} of order {}", i, order
            );
        }
    }

    #[test]
    fn batched_gradient_log_z_tracks_the_scalar_oracle(
        cells in prop::collection::vec(cell_strategy(), 1..10),
        sigma in 0.0..0.5f64,
        order in 2usize..48,
    ) {
        let mut cells = cells;
        cells.extend(edge_cells());
        let quadrature = GaussLegendre::new(order);
        let batch = BinomialNormalBatch::new(&quadrature);
        let grads = batch.log_z_gradients(sigma, &cells);
        // The free function is a thin wrapper over the batch method; equality
        // here guards the wrapper against future divergence.
        prop_assert_eq!(
            &grads,
            &binomial_normal_log_z_gradients(&quadrature, sigma, &cells)
        );
        // The fused sweep is an independent accumulation (folded weights,
        // combined normalisation constant), so against the scalar oracle the
        // contract is tight agreement, not bit equality — and the comparison
        // must happen in the peak-shifted exp domain. In the log domain the
        // two paths diverge arbitrarily whenever the shifted mass lands in
        // subnormal territory (the bracketing-grid peak can sit hundreds of
        // log-units above every quadrature node, leaving shifted node terms
        // quantised to multiples of ~4.9e-324 where both answers are noise);
        // shifting by the library's own grid peak and exponentiating collapses
        // that regime to 0 ~ 0 while still pinning well-scaled cells to ~1e-8
        // agreement in `log_z`. Cells where even the peak vanishes must agree
        // on -inf exactly.
        for (i, (grad, &(mu, c, x))) in grads.iter().zip(&cells).enumerate() {
            let scalar = binomial_normal_log_z(&quadrature, mu, sigma, c, x);
            let peak = batch.log_integrand_peak(sigma, mu, c, x);
            if peak.is_finite() {
                let fused_mass = (grad.log_z - peak).exp();
                let scalar_mass = (scalar - peak).exp();
                let tolerance = 1e-8 * fused_mass.max(scalar_mass) + 1e-290;
                prop_assert!(
                    (fused_mass - scalar_mass).abs() <= tolerance,
                    "cell {} (mu={:e} c={} x={} sigma={:e} order={}): fused {} vs scalar {} (peak {})",
                    i, mu, c, x, sigma, order, grad.log_z, scalar, peak
                );
            } else {
                prop_assert_eq!(grad.log_z, f64::NEG_INFINITY, "cell {}", i);
                prop_assert_eq!(scalar, f64::NEG_INFINITY, "cell {}", i);
            }
        }
    }

    /// The `FastVector` accuracy contract at this layer: against the pinned
    /// `Exact` path, per-cell `log_z` and moments agree to ~1e-12 relative on
    /// well-scaled cells — compared in the peak-shifted exp domain for the
    /// same reason as above (when the shifted mass is subnormal, the last
    /// digits of *any* log-space answer are quantisation noise, so both paths
    /// must agree on "zero mass" rather than on those digits).
    ///
    /// On ill-conditioned cells the bound degrades with the log-domain
    /// conditioning: the `FastVector` fill folds its constants per worker and
    /// multiplies by `1/sigma`, so each shifted log term carries a few ulps
    /// of the *pre-shift* magnitudes (~`eps * |peak|` absolute), which the
    /// exponential turns into relative mass noise. The extreme-count cells
    /// here (|peak| up to ~1e6 nats) sit ~1e-10 apart in mass for that
    /// reason; a 64-ulp-equivalent conditioning allowance covers the
    /// handful of reordered operations with wide margin while keeping the
    /// 1e-12 baseline binding wherever |peak| ≲ 1e3.
    #[test]
    fn fast_vector_tracks_exact_within_1e12_relative(
        cells in prop::collection::vec(cell_strategy(), 1..12),
        sigma in 0.0..0.5f64,
        order in 2usize..48,
    ) {
        let mut cells = cells;
        cells.extend(edge_cells());
        let quadrature = GaussLegendre::new(order);
        let exact = BinomialNormalBatch::new(&quadrature);
        let fast = BinomialNormalBatch::new_with_math(&quadrature, QuadratureMath::FastVector);

        let mu: Vec<f64> = cells.iter().map(|c| c.0).collect();
        let c: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let x: Vec<f64> = cells.iter().map(|c| c.2).collect();
        let n = cells.len();
        let (mut lz_e, mut m_e) = (vec![0.0; n], vec![0.0; n]);
        let (mut lz_f, mut m_f) = (vec![0.0; n], vec![0.0; n]);
        exact.moments(sigma, &mu, &c, &x, &mut lz_e, &mut m_e);
        fast.moments(sigma, &mu, &c, &x, &mut lz_f, &mut m_f);
        let mut lz_only = vec![0.0; n];
        fast.log_z(sigma, &mu, &c, &x, &mut lz_only);
        let grads_e = exact.log_z_gradients(
            sigma,
            &cells.iter().map(|&(mu, c, x)| (mu, c, x)).collect::<Vec<_>>(),
        );
        let grads_f = fast.log_z_gradients(
            sigma,
            &cells.iter().map(|&(mu, c, x)| (mu, c, x)).collect::<Vec<_>>(),
        );

        for i in 0..n {
            let peak = exact.log_integrand_peak(sigma, mu[i], c[i], x[i]);
            if !peak.is_finite() {
                prop_assert_eq!(lz_e[i], f64::NEG_INFINITY, "cell {}", i);
                prop_assert_eq!(lz_f[i], f64::NEG_INFINITY, "cell {}", i);
                continue;
            }
            // Shifted-mass comparison: ~1e-12 relative on well-scaled cells
            // plus the conditioning allowance (see the doc comment),
            // collapsing the subnormal-mass regime to 0 ~ 0.
            let cond = 64.0 * f64::EPSILON * (1.0 + peak.abs());
            let mass_e = (lz_e[i] - peak).exp();
            let mass_f = (lz_f[i] - peak).exp();
            let tolerance = (1e-12 + cond) * mass_e.max(mass_f) + 1e-290;
            prop_assert!(
                (mass_e - mass_f).abs() <= tolerance,
                "cell {} (mu={:e} c={} x={} sigma={:e} order={}): exact {} vs fast {}",
                i, mu[i], c[i], x[i], sigma, order, lz_e[i], lz_f[i]
            );
            prop_assert_eq!(lz_only[i].to_bits(), lz_f[i].to_bits(), "cell {}", i);
            // Ratios (the posterior mean and the gradient moments) are only
            // well-conditioned while the shifted normaliser is well above the
            // subnormal band — below that, every node term is quantised to
            // multiples of ~4.9e-324 and first/z is noise in *both* paths.
            if mass_e.min(mass_f) >= 1e-300 {
                // The mean is a shift-independent ratio, but its node terms
                // carry the same per-term conditioning noise (factor 2: the
                // moment numerator and the normaliser each contribute).
                prop_assert!(
                    (m_e[i] - m_f[i]).abs() <= 1e-12 + 2.0 * cond,
                    "cell {}: mean {} vs {}", i, m_e[i], m_f[i]
                );
            }
            // Gradient sweep under the same contract (its own shift constant).
            let (ge, gf) = (&grads_e[i], &grads_f[i]);
            if ge.log_z.is_finite() && gf.log_z.is_finite() {
                let mass_e = (ge.log_z - peak).exp();
                let mass_f = (gf.log_z - peak).exp();
                let tolerance = (1e-12 + cond) * mass_e.max(mass_f) + 1e-290;
                prop_assert!(
                    (mass_e - mass_f).abs() <= tolerance,
                    "cell {}: gradient log_z {} vs {}", i, ge.log_z, gf.log_z
                );
                if mass_e.min(mass_f) >= 1e-300 {
                    // The gradient moments divide the conditioning noise of
                    // the (shift-independent) expectation ratios by the
                    // variance (and its square), exactly as the derivative
                    // formulas do — `1e-6` is the kernel's sigma floor.
                    let variance = sigma.max(1e-6) * sigma.max(1e-6);
                    let scale = 1.0 + ge.d_mean.abs().max(gf.d_mean.abs());
                    prop_assert!(
                        (ge.d_mean - gf.d_mean).abs() <= 1e-9 * scale + 2.0 * cond / variance,
                        "cell {}: d_mean {} vs {}", i, ge.d_mean, gf.d_mean
                    );
                    let scale = 1.0 + ge.d_variance.abs().max(gf.d_variance.abs());
                    prop_assert!(
                        (ge.d_variance - gf.d_variance).abs()
                            <= 1e-9 * scale + 2.0 * cond / (variance * variance),
                        "cell {}: d_variance {} vs {}", i, ge.d_variance, gf.d_variance
                    );
                }
            }
        }
    }
}

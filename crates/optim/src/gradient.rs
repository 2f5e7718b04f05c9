//! Numerical differentiation by central differences.
//!
//! The CPE estimator differentiates its Eq. 5 log-likelihood in closed form
//! (Eq. 6–7); these stencils are the independent check its tests hold that
//! gradient to. With the small parameter counts involved (`D+1` means and
//! `(D+1)(D+2)/2` covariance entries for `D = 3` prior domains) the extra
//! objective evaluations are negligible.

/// Relative step used when no explicit step is supplied: `h = EPS_SCALE * max(1, |x|)`.
const EPS_SCALE: f64 = 1e-5;

/// Central-difference derivative of a scalar function at `x`.
pub fn derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = EPS_SCALE * x.abs().max(1.0);
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// Second derivative of a scalar function at `x` (three-point stencil).
pub fn second_derivative(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = (EPS_SCALE.sqrt()) * x.abs().max(1.0);
    (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
}

/// Central-difference gradient of a multivariate scalar function at `x`.
///
/// The input slice is copied once per coordinate; with the tiny dimensionalities in
/// this workspace that cost is irrelevant and it keeps `f` a plain `Fn(&[f64])`.
pub fn gradient(f: impl Fn(&[f64]) -> f64, x: &[f64]) -> Vec<f64> {
    let mut grad = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in 0..x.len() {
        let h = EPS_SCALE * x[i].abs().max(1.0);
        let orig = work[i];
        work[i] = orig + h;
        let plus = f(&work);
        work[i] = orig - h;
        let minus = f(&work);
        work[i] = orig;
        grad[i] = (plus - minus) / (2.0 * h);
    }
    grad
}

/// Central-difference gradient with a caller-supplied absolute step per coordinate.
pub fn gradient_with_step(f: impl Fn(&[f64]) -> f64, x: &[f64], step: f64) -> Vec<f64> {
    let step = step.abs().max(f64::MIN_POSITIVE);
    let mut grad = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in 0..x.len() {
        let orig = work[i];
        work[i] = orig + step;
        let plus = f(&work);
        work[i] = orig - step;
        let minus = f(&work);
        work[i] = orig;
        grad[i] = (plus - minus) / (2.0 * step);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_polynomial() {
        // d/dx (x^3 - 2x) = 3x^2 - 2
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.0] {
            let d = derivative(|t| t * t * t - 2.0 * t, x);
            assert!((d - (3.0 * x * x - 2.0)).abs() < 1e-6, "x={x} d={d}");
        }
    }

    #[test]
    fn derivative_of_exponential() {
        let d = derivative(f64::exp, 1.0);
        assert!((d - std::f64::consts::E).abs() < 1e-6);
    }

    #[test]
    fn second_derivative_of_quadratic() {
        let d2 = second_derivative(|t| 3.0 * t * t + t, 0.7);
        assert!((d2 - 6.0).abs() < 1e-4, "d2={d2}");
    }

    #[test]
    fn gradient_of_quadratic_bowl() {
        // f(x, y) = (x-1)^2 + 2(y+3)^2, grad = [2(x-1), 4(y+3)]
        let f = |v: &[f64]| (v[0] - 1.0).powi(2) + 2.0 * (v[1] + 3.0).powi(2);
        let g = gradient(f, &[2.0, -1.0]);
        assert!((g[0] - 2.0).abs() < 1e-6);
        assert!((g[1] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_is_zero_at_minimum() {
        let f = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let g = gradient(f, &[0.0, 0.0, 0.0]);
        assert!(g.iter().all(|v| v.abs() < 1e-8));
    }

    #[test]
    fn gradient_with_step_matches_default_for_smooth_function() {
        let f = |v: &[f64]| v[0].sin() + v[1].cos();
        let a = gradient(f, &[0.3, 1.2]);
        let b = gradient_with_step(f, &[0.3, 1.2], 1e-6);
        assert!((a[0] - b[0]).abs() < 1e-4);
        assert!((a[1] - b[1]).abs() < 1e-4);
    }

    #[test]
    fn gradient_of_empty_input_is_empty() {
        let g = gradient(|_| 0.0, &[]);
        assert!(g.is_empty());
    }
}

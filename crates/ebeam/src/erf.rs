//! Scalar error function.
//!
//! Rust's standard library does not expose `erf`, and the workspace builds
//! substrates from scratch, so this module provides the Abramowitz & Stegun
//! 7.1.26 rational approximation with absolute error below `1.5e-7` — far
//! tighter than the `1e-4` intensity tolerances used anywhere in the
//! fracturing pipeline.
//!
//! This is the root of every evaluation path in [`crate::intensity`]: the
//! interpolated [`EdgeLut`](crate::intensity) tabulates the edge profile
//! `Φ(t) = ½(1 + erf(t))` built from this function, so its accuracy floor
//! inherits the `1.5e-7` bound here.

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Absolute error is below `1.5e-7` over the whole real line.
pub(crate) fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26 on |x|, odd extension.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Inverse error function, accurate to about `1e-6` via Newton refinement
/// of an initial rational estimate.
///
/// # Panics
///
/// Panics if `y` is outside `(-1, 1)`.
pub(crate) fn erf_inv(y: f64) -> f64 {
    assert!(y > -1.0 && y < 1.0, "erf_inv domain is (-1, 1)");
    if y == 0.0 {
        return 0.0;
    }
    // Initial guess (Winitzki's approximation).
    let w = (1.0 - y * y).ln();
    let a = 0.147;
    let term = 2.0 / (std::f64::consts::PI * a) + w / 2.0;
    let mut x = (y.signum()) * ((term * term - w / a).sqrt() - term).sqrt();
    // Newton iterations: f(x) = erf(x) - y, f'(x) = 2/sqrt(pi) exp(-x^2).
    for _ in 0..4 {
        let err = erf(x) - y;
        let deriv = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
        if deriv.abs() < 1e-300 {
            break;
        }
        x -= err / deriv;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from tables (15 significant digits).
    const TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018285),
        (0.25, 0.276326390168237),
        (0.5, 0.520499877813047),
        (1.0, 0.842700792949715),
        (1.5, 0.966105146475311),
        (2.0, 0.995322265018953),
        (2.5, 0.999593047982555),
        (3.0, 0.999977909503001),
        (4.0, 0.999999984582742),
    ];

    #[test]
    fn matches_reference_table() {
        for &(x, want) in TABLE {
            let got = erf(x);
            assert!(
                (got - want).abs() < 1.5e-7,
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn odd_symmetry() {
        for &(x, want) in TABLE {
            assert!((erf(-x) + want).abs() < 1.5e-7);
        }
    }

    #[test]
    fn saturates_at_infinity() {
        assert!((erf(10.0) - 1.0).abs() < 1e-12);
        assert!((erf(-10.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_increasing() {
        let mut prev = erf(-5.0);
        let mut x = -5.0;
        while x < 5.0 {
            x += 0.05;
            let v = erf(x);
            assert!(v >= prev, "erf must be nondecreasing at {x}");
            prev = v;
        }
    }

    #[test]
    fn inverse_round_trips() {
        for y in [-0.99, -0.5, -0.1, 0.0, 0.05, 0.4142, 0.8, 0.999] {
            let x = erf_inv(y);
            assert!((erf(x) - y).abs() < 1e-6, "erf(erf_inv({y})) = {}", erf(x));
        }
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn inverse_rejects_out_of_domain() {
        erf_inv(1.0);
    }
}

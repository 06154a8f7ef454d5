//! Special functions used by window design and pulse shaping: the
//! modified Bessel `I₀` of the Kaiser window and the normalized `sinc`.
//!
//! Both are classic, well-conditioned series with their accuracy
//! documented — sufficient for filter design (Kaiser windows need `I0`
//! to ~1e-8).

use std::f64::consts::PI;

/// Modified Bessel function of the first kind, order zero, `I₀(x)`.
///
/// Uses the power series `Σ ((x/2)^{2k} / (k!)²)` for `|x| ≤ 15` and the
/// asymptotic-free continued series beyond (the power series converges for
/// all `x`; terms are accumulated until relative convergence below 1e-16).
/// Relative accuracy is better than 1e-12 across the range used by Kaiser
/// windows (`x ≲ 30`).
///
/// # Example
///
/// ```
/// use rfbist_math::special::bessel_i0;
/// assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
/// ```
pub fn bessel_i0(x: f64) -> f64 {
    let x = x.abs();
    let half = x / 2.0;
    let mut term = 1.0;
    let mut sum = 1.0;
    let mut k = 1.0;
    loop {
        term *= (half / k) * (half / k);
        sum += term;
        if term < sum * 1e-17 {
            break;
        }
        k += 1.0;
        if k > 1000.0 {
            break;
        }
    }
    sum
}

/// Normalized sinc: `sinc(x) = sin(πx)/(πx)`, with `sinc(0) = 1`.
///
/// The zero neighbourhood uses a Taylor expansion to avoid catastrophic
/// cancellation.
#[inline]
pub fn sinc(x: f64) -> f64 {
    let px = PI * x;
    if px.abs() < 1e-6 {
        1.0 - px * px / 6.0
    } else {
        px.sin() / px
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bessel_i0_reference_values() {
        // Reference values from Abramowitz & Stegun tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 1.0634833707413236),
            (1.0, 1.2660658777520082),
            (2.0, 2.2795853023360673),
            (5.0, 27.239871823604442),
            (10.0, 2815.716628466254),
        ];
        for (x, expected) in cases {
            let got = bessel_i0(x);
            assert!(
                ((got - expected) / expected).abs() < 1e-10,
                "I0({x}) = {got}, want {expected}"
            );
        }
    }

    #[test]
    fn bessel_i0_is_even() {
        for x in [0.3, 1.7, 9.2] {
            assert_eq!(bessel_i0(x), bessel_i0(-x));
        }
    }

    #[test]
    fn bessel_derivative_identity() {
        // d/dx I0(x) = I1(x): central differences of I0 against
        // reference I1 values (Abramowitz & Stegun tables).
        let h = 1e-6;
        for (x, i1) in [
            (1.0, 0.5651591039924851),
            (2.0, 1.590636854637329),
            (5.0, 24.33564214245053),
        ] {
            let num = (bessel_i0(x + h) - bessel_i0(x - h)) / (2.0 * h);
            assert!(
                ((num - i1) / i1).abs() < 1e-8,
                "I0'({x}) = {num}, want {i1}"
            );
        }
    }

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        for n in 1..6 {
            assert!(sinc(n as f64).abs() < 1e-15, "sinc({n}) should be 0");
        }
        assert!((sinc(0.5) - 2.0 / PI).abs() < 1e-12);
    }

    #[test]
    fn sinc_near_zero_is_smooth() {
        // Tiny arguments should not blow up or lose precision.
        let v = sinc(1e-9);
        assert!((v - 1.0).abs() < 1e-12);
    }
}

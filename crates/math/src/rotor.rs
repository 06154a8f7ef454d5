//! Incremental phase rotation.
//!
//! Evaluating `cos(φ₀ + n·Δ)` for a run of consecutive `n` — the shape
//! of every per-sample phasor table in this workspace — does not need a
//! trigonometric call per step. A unit phasor `e^{jφ}` advanced by a
//! fixed rotation `e^{jΔ}` produces the whole run from two `sincos`
//! evaluations, at the cost of one complex multiply per step.
//!
//! The naive recurrence drifts in magnitude by O(n·ε);
//! [`fill_phasor_table`] renormalizes its phasor with a Newton step
//! every [`RENORM_INTERVAL`] advances, keeping the magnitude error
//! bounded (≈ 32·ε ≈ 7e-15), and re-seeds it exactly every
//! [`RESEED_INTERVAL`] entries, which bounds the O(n·ε) phase error
//! against a direct evaluation independent of table length.

/// Simultaneous sine and cosine of `x`, as `(sin x, cos x)`.
///
/// A single call site for platforms/libms that fuse the two; also the
/// idiomatic spelling for "I need both" in the planned kernels.
#[inline]
pub fn sincos(x: f64) -> (f64, f64) {
    x.sin_cos()
}

/// Advances between magnitude renormalizations. 32 keeps the Newton
/// correction's input within ~1e-13 of 1, where one step is exact to
/// double precision.
const RENORM_INTERVAL: usize = 32;

/// Advances between *exact* re-seedings in [`fill_phasor_table`]. The
/// Newton renormalization bounds magnitude error but not phase error,
/// which still accumulates O(n·ε); re-seeding from a direct `sincos`
/// every 256 entries caps the accumulated phase drift at
/// ≈ 256·ε ≈ 6e-14 rad regardless of table length, while keeping the
/// amortized trigonometric cost at one `sincos` per 256 entries.
const RESEED_INTERVAL: usize = 256;

/// Fills `cos_out`/`sin_out` with `cos/sin(phase0 + n·step)` for
/// `n = 0, 1, …` by phase-rotor recurrence, re-seeding exactly every
/// [`RESEED_INTERVAL`] entries so the tables stay within a bounded
/// phase error of a direct per-entry `sincos` for arbitrarily long
/// runs — the builder behind the grid-aware reconstruction plan's
/// per-sample phasor tables.
///
/// # Example
///
/// ```
/// use rfbist_math::rotor::fill_phasor_table;
///
/// let mut c = vec![0.0; 1000];
/// let mut s = vec![0.0; 1000];
/// fill_phasor_table(0.3, 0.017, &mut c, &mut s);
/// for n in (0..1000).step_by(97) {
///     let phase = 0.3 + n as f64 * 0.017;
///     assert!((c[n] - phase.cos()).abs() < 1e-12);
///     assert!((s[n] - phase.sin()).abs() < 1e-12);
/// }
/// ```
///
/// # Panics
///
/// Panics if the output slices differ in length.
pub fn fill_phasor_table(phase0: f64, step: f64, cos_out: &mut [f64], sin_out: &mut [f64]) {
    assert_eq!(
        cos_out.len(),
        sin_out.len(),
        "phasor table slices must have equal length"
    );
    let (ds, dc) = sincos(step);
    let (mut s, mut c) = sincos(phase0);
    for (i, (co, so)) in cos_out.iter_mut().zip(sin_out.iter_mut()).enumerate() {
        if i > 0 && i % RESEED_INTERVAL == 0 {
            (s, c) = sincos(phase0 + i as f64 * step);
        } else if i > 0 {
            (c, s) = (c * dc - s * ds, c * ds + s * dc);
            if i % RENORM_INTERVAL == 0 {
                // one Newton step toward unit magnitude:
                // g = (3 − |z|²)/2 gives |g·z| = 1 + O((|z|²−1)²)
                let g = 0.5 * (3.0 - (c * c + s * s));
                c *= g;
                s *= g;
            }
        }
        *co = c;
        *so = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn sincos_matches_separate_calls() {
        for x in [-7.3, -0.1, 0.0, 0.5, 3.9, 6500.0] {
            let (s, c) = sincos(x);
            assert_eq!(s, x.sin());
            assert_eq!(c, x.cos());
        }
    }

    #[test]
    fn rotor_tracks_direct_evaluation() {
        let mut c = vec![0.0; 500];
        let mut s = vec![0.0; 500];
        fill_phasor_table(1.234, -0.71, &mut c, &mut s);
        for n in 0..500 {
            let phase = 1.234 - 0.71 * n as f64;
            assert!((c[n] - phase.cos()).abs() < 1e-11, "cos drift at step {n}");
            assert!((s[n] - phase.sin()).abs() < 1e-11, "sin drift at step {n}");
        }
    }

    #[test]
    fn rotor_magnitude_stays_unit_over_long_runs() {
        // The tap tables run ≤ a few thousand entries; push far beyond
        // that to show the renormalization holds the magnitude regardless.
        let n = 100_000;
        let mut c = vec![0.0; n];
        let mut s = vec![0.0; n];
        fill_phasor_table(0.0, 2.0 * PI / 1000.0 * 3.7, &mut c, &mut s);
        for i in 0..n {
            let mag = (c[i] * c[i] + s[i] * s[i]).sqrt();
            assert!((mag - 1.0).abs() < 1e-12, "magnitude {mag} at entry {i}");
        }
    }

    #[test]
    fn fill_phasor_table_tracks_direct_evaluation() {
        // Long enough to cross many reseed boundaries, RF-scale phases.
        let phase0 = 2.0 * PI * 1.045e9 * -1.7e-6;
        let step = 2.0 * PI * 1.045e9 / 90e6;
        let n = 5000;
        let mut c = vec![0.0; n];
        let mut s = vec![0.0; n];
        fill_phasor_table(phase0, step, &mut c, &mut s);
        for i in 0..n {
            let phase = phase0 + i as f64 * step;
            assert!(
                (c[i] - phase.cos()).abs() < 5e-10,
                "cos drift at entry {i}: {} vs {}",
                c[i],
                phase.cos()
            );
            assert!((s[i] - phase.sin()).abs() < 5e-10, "sin drift at entry {i}");
        }
    }

    #[test]
    fn fill_phasor_table_is_exact_at_reseed_points() {
        let mut c = vec![0.0; 600];
        let mut s = vec![0.0; 600];
        fill_phasor_table(1.1, 0.37, &mut c, &mut s);
        for i in [0usize, 256, 512] {
            let (ds, dc) = sincos(1.1 + i as f64 * 0.37);
            assert_eq!(c[i], dc, "reseed entry {i} must equal direct sincos");
            assert_eq!(s[i], ds);
        }
    }

    #[test]
    fn fill_phasor_table_empty_and_short() {
        let mut c: Vec<f64> = vec![];
        let mut s: Vec<f64> = vec![];
        fill_phasor_table(0.5, 0.1, &mut c, &mut s);
        let mut c1 = [0.0];
        let mut s1 = [0.0];
        fill_phasor_table(0.5, 0.1, &mut c1, &mut s1);
        assert_eq!(c1[0], 0.5f64.cos());
        assert_eq!(s1[0], 0.5f64.sin());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn fill_phasor_table_length_mismatch_panics() {
        let mut c = [0.0; 3];
        let mut s = [0.0; 4];
        fill_phasor_table(0.0, 0.1, &mut c, &mut s);
    }

    #[test]
    fn large_phase_large_step() {
        // RF-scale arguments: ω ≈ 2π·10⁹, t ≈ µs ⇒ phases in the
        // thousands of radians, steps of tens of radians.
        let phase0 = 2.0 * PI * 1e9 * 1.37e-6;
        let step = 2.0 * PI * 1e9 * 1.11e-8;
        let mut c = vec![0.0; 200];
        let mut s = vec![0.0; 200];
        fill_phasor_table(phase0, step, &mut c, &mut s);
        for (n, &cn) in c.iter().enumerate() {
            let direct = (phase0 + step * n as f64).cos();
            assert!((cn - direct).abs() < 5e-10, "step {n}");
        }
    }
}

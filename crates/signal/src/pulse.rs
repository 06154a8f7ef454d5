//! Continuous pulse-shaping kernels.
//!
//! A [`PulseShape`] evaluates the shaping pulse `g(t)` at arbitrary time
//! offsets (in symbol periods), truncated to a finite span — the kernel
//! behind [`crate::baseband::ShapedBaseband`].
//!
//! The SRRC pulse also has a per-instant form, [`SrrcTable`]: every tap
//! of one instant `tn` sits at `u = f + j`, with the shared fractional
//! offset `f = tn − ⌊tn⌋` and an integer `j`. For integer `j` the
//! angle-sum identities give
//!
//! ```text
//! sin(π(1−α)(f+j)) = (−1)ʲ [sin(π(1−α)f)·cos(παj) − cos(π(1−α)f)·sin(παj)]
//! cos(π(1+α)(f+j)) = (−1)ʲ [cos(π(1+α)f)·cos(παj) − sin(π(1+α)f)·sin(παj)]
//! ```
//!
//! so one `sin_cos` of each family at `f` and a table of
//! `(−1)ʲ cos(παj)`, `(−1)ʲ sin(παj)` replace the two trig calls per
//! tap. Near the pulse's removable singularities (`u = 0` and
//! `|u| = 1/(4α)`) both forms lose digits to cancellation, so an
//! instant whose `f` lies within `SRRC_FALLBACK_BAND` (1e-4) of one
//! evaluates every tap through [`PulseShape::eval`] instead.

use rfbist_dsp::srrc::{rc_pulse, srrc_pulse};
use rfbist_math::special::sinc;
use rfbist_math::Complex64;
use std::f64::consts::PI;

/// Pulse-shaping filter selection, evaluated in continuous time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PulseShape {
    /// Square-root raised cosine with roll-off `alpha`, truncated at
    /// `±span` symbol periods.
    Srrc {
        /// Roll-off factor in `[0, 1]`.
        alpha: f64,
        /// Truncation half-width in symbol periods.
        span: usize,
    },
    /// Raised cosine (zero-ISI end-to-end pulse).
    Rc {
        /// Roll-off factor in `[0, 1]`.
        alpha: f64,
        /// Truncation half-width in symbol periods.
        span: usize,
    },
    /// Ideal sinc (brick-wall), truncated at `±span` symbol periods.
    Sinc {
        /// Truncation half-width in symbol periods.
        span: usize,
    },
    /// Rectangular NRZ pulse (one symbol period wide).
    Rect,
}

impl PulseShape {
    /// The paper's shaping: SRRC with α = 0.5, 12-symbol half-span.
    pub fn paper_default() -> Self {
        PulseShape::Srrc {
            alpha: 0.5,
            span: 12,
        }
    }

    /// Evaluates the pulse at offset `t` in symbol periods.
    pub fn eval(self, t: f64) -> f64 {
        match self {
            PulseShape::Srrc { alpha, span } => {
                if t.abs() > span as f64 {
                    0.0
                } else {
                    srrc_pulse(t, alpha)
                }
            }
            PulseShape::Rc { alpha, span } => {
                if t.abs() > span as f64 {
                    0.0
                } else {
                    rc_pulse(t, alpha)
                }
            }
            PulseShape::Sinc { span } => {
                if t.abs() > span as f64 {
                    0.0
                } else {
                    sinc(t)
                }
            }
            PulseShape::Rect => {
                if (-0.5..0.5).contains(&t) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Truncation half-width in symbol periods.
    pub fn span(self) -> usize {
        match self {
            PulseShape::Srrc { span, .. }
            | PulseShape::Rc { span, .. }
            | PulseShape::Sinc { span } => span,
            PulseShape::Rect => 1,
        }
    }

    /// Two-sided occupied bandwidth in units of the symbol rate
    /// (`(1+α)` for RC/SRRC, 1 for sinc, ∞-ish 2.0 budget for rect).
    pub fn occupied_bandwidth_symbols(self) -> f64 {
        match self {
            PulseShape::Srrc { alpha, .. } | PulseShape::Rc { alpha, .. } => 1.0 + alpha,
            PulseShape::Sinc { .. } => 1.0,
            PulseShape::Rect => 2.0,
        }
    }
}

/// Half-width, in fractional symbol offset, of the band around each
/// removable SRRC singularity inside which [`SrrcTable`] defers to the
/// direct per-tap pulse. The table's cancellation error grows as the
/// offset nears a singularity (up to ~1e-6 within this band, 5e-5
/// within 1e-6 of it); outside the bands the table stays within 4e-12
/// of the direct sum at every library roll-off. The three bands cover
/// ≤ 6e-4 of all instants.
pub(crate) const SRRC_FALLBACK_BAND: f64 = 1e-4;

/// Angle-sum tap table of a truncated SRRC pulse: the weighted tap sum
/// of one instant from two `sin_cos` calls (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct SrrcTable {
    span: usize,
    four_alpha: f64,
    pi_one_minus_alpha: f64,
    pi_one_plus_alpha: f64,
    /// `(−1)ʲ cos(παj)` and `(−1)ʲ sin(παj)` at index `i`, `j = span − i`:
    /// tap `k = ⌊tn⌋ − span + i`, for the `2·span + 2` taps the tap range
    /// can reach.
    cos: Vec<f64>,
    sin: Vec<f64>,
    /// Fractional offsets `f` at which some tap hits `u = 0` or
    /// `|u| = 1/(4α)`.
    singular: [f64; 3],
}

impl SrrcTable {
    /// Tables for roll-off `alpha ∈ [0, 1]` and half-span `span`.
    pub(crate) fn new(alpha: f64, span: usize) -> Self {
        let (cos, sin) = (0..2 * span + 2)
            .map(|i| {
                let j = span as f64 - i as f64;
                let sign = if (span + i).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                let (s, c) = (PI * alpha * j).sin_cos();
                (sign * c, sign * s)
            })
            .unzip();
        let quarter = if alpha > 0.0 {
            1.0 / (4.0 * alpha)
        } else {
            0.0
        };
        SrrcTable {
            span,
            four_alpha: 4.0 * alpha,
            pi_one_minus_alpha: PI * (1.0 - alpha),
            pi_one_plus_alpha: PI * (1.0 + alpha),
            cos,
            sin,
            singular: [0.0, quarter.rem_euclid(1.0), (-quarter).rem_euclid(1.0)],
        }
    }

    /// `Σₖ symbols[k]·g(tn − k)` over `k ∈ lo..=hi`, the tap range of
    /// the instant `tn` with `center = ⌊tn⌋`, truncated to `|tn − k| ≤
    /// span` exactly as [`PulseShape::eval`] truncates. `None` when `tn`'s
    /// fractional offset lies in a fallback band.
    pub(crate) fn tap_sum(
        &self,
        tn: f64,
        center: isize,
        mut lo: isize,
        mut hi: isize,
        symbols: &[Complex64],
    ) -> Option<Complex64> {
        let f = tn - center as f64;
        let near_singularity = self.singular.iter().any(|&s| {
            let d = (f - s).abs();
            d.min(1.0 - d) < SRRC_FALLBACK_BAND
        });
        if near_singularity {
            return None;
        }
        // |tn − k| is convex in k, so only the range's ends can lie
        // outside the span.
        let span = self.span as f64;
        while lo <= hi && (tn - lo as f64).abs() > span {
            lo += 1;
        }
        while lo <= hi && (tn - hi as f64).abs() > span {
            hi -= 1;
        }
        if lo > hi {
            return Some(Complex64::ZERO);
        }
        let (sin_a, cos_a) = (self.pi_one_minus_alpha * f).sin_cos();
        let (sin_b, cos_b) = (self.pi_one_plus_alpha * f).sin_cos();
        let first = (lo - (center - self.span as isize)) as usize;
        let taps = (hi - lo) as usize + 1;
        let table = self.cos[first..first + taps]
            .iter()
            .zip(&self.sin[first..first + taps]);
        let mut acc = Complex64::ZERO;
        for (k, (&symbol, (&c, &s))) in
            (lo..).zip(symbols[lo as usize..=hi as usize].iter().zip(table))
        {
            let u = tn - k as f64;
            let x = self.four_alpha * u;
            let g = (c * (sin_a + x * cos_b) - s * (cos_a + x * sin_b)) / (PI * u * (1.0 - x * x));
            acc += symbol * g;
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_parameters() {
        let p = PulseShape::paper_default();
        assert_eq!(
            p,
            PulseShape::Srrc {
                alpha: 0.5,
                span: 12
            }
        );
        assert!((p.occupied_bandwidth_symbols() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn srrc_truncates_outside_span() {
        let p = PulseShape::Srrc {
            alpha: 0.5,
            span: 4,
        };
        assert_eq!(p.eval(4.5), 0.0);
        assert_eq!(p.eval(-10.0), 0.0);
        assert!(p.eval(0.0) > 1.0); // SRRC peak is 1−α+4α/π > 1 for α=0.5
    }

    #[test]
    fn rc_zero_isi_within_span() {
        let p = PulseShape::Rc {
            alpha: 0.35,
            span: 6,
        };
        assert!((p.eval(0.0) - 1.0).abs() < 1e-12);
        for k in 1..=5 {
            assert!(p.eval(k as f64).abs() < 1e-10);
        }
    }

    #[test]
    fn sinc_pulse_values() {
        let p = PulseShape::Sinc { span: 8 };
        assert_eq!(p.eval(0.0), 1.0);
        assert!(p.eval(1.0).abs() < 1e-12);
        assert_eq!(p.eval(9.0), 0.0);
    }

    #[test]
    fn rect_pulse_support() {
        let p = PulseShape::Rect;
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(-0.49), 1.0);
        assert_eq!(p.eval(0.5), 0.0);
        assert_eq!(p.eval(-0.51), 0.0);
        assert_eq!(p.span(), 1);
    }

    #[test]
    fn spans_reported() {
        assert_eq!(
            PulseShape::Srrc {
                alpha: 0.2,
                span: 9
            }
            .span(),
            9
        );
        assert_eq!(PulseShape::Sinc { span: 3 }.span(), 3);
    }
}

//! Pulse-shaped complex baseband from a symbol stream.
//!
//! `a(t) = Σₖ sₖ · g(t/Ts − k)` evaluated analytically: the continuous
//! I/Q waveform the paper's homodyne transmitter modulates onto the
//! carrier. The truncated pulse span bounds each evaluation to the
//! `2·span` symbols within `±span` periods of `t/Ts` (`2·span + 1` when
//! `t/Ts` is an integer), fewer in the payload's ramp-up and ramp-down.
//!
//! For SRRC shaping, [`ShapedBaseband::eval_iq`] evaluates those taps
//! through the angle-sum table of [`crate::pulse`]: two `sin_cos` per
//! instant instead of a `sin`, a `cos` and a division per tap, within
//! ~1e-11 of the direct per-tap sum. That direct sum stays as
//! [`ShapedBaseband::eval_iq_reference`], the oracle, which also serves
//! the instants near the pulse's removable singularities and the
//! RC, sinc and rectangular shapes.

use crate::pulse::{PulseShape, SrrcTable};
use crate::symbols::Constellation;
use crate::traits::ComplexEnvelope;
use rfbist_math::rng::Randomizer;
use rfbist_math::Complex64;

/// A pulse-shaped symbol stream evaluated in continuous time.
///
/// Symbols occupy indices `0..num_symbols`; outside that range the
/// waveform decays to zero over one pulse span (ramp-up/ramp-down). Use
/// [`steady_time_range`](Self::steady_time_range) to stay in the fully-
/// populated region.
///
/// # Example
///
/// ```
/// use rfbist_signal::baseband::ShapedBaseband;
/// use rfbist_signal::traits::ComplexEnvelope;
///
/// let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 128, 1);
/// let (t0, t1) = bb.steady_time_range();
/// let z = bb.eval_iq(0.5 * (t0 + t1));
/// assert!(z.is_finite());
/// ```
#[derive(Clone, Debug)]
pub struct ShapedBaseband {
    symbols: Vec<Complex64>,
    pulse: PulseShape,
    symbol_period: f64,
    /// The angle-sum tap table, for SRRC pulses.
    srrc: Option<SrrcTable>,
}

impl ShapedBaseband {
    /// Builds a baseband from explicit symbols, a pulse shape and the
    /// symbol rate (symbols/second).
    ///
    /// # Panics
    ///
    /// Panics if `symbol_rate` is not positive and finite, if `symbols`
    /// is empty, or if an SRRC or RC roll-off lies outside `[0, 1]`
    /// (NaN included).
    pub fn new(symbols: Vec<Complex64>, pulse: PulseShape, symbol_rate: f64) -> Self {
        assert!(
            symbol_rate > 0.0 && symbol_rate.is_finite(),
            "symbol rate must be positive and finite"
        );
        assert!(!symbols.is_empty(), "at least one symbol required");
        if let PulseShape::Srrc { alpha, .. } | PulseShape::Rc { alpha, .. } = pulse {
            assert!((0.0..=1.0).contains(&alpha), "roll-off must be in [0, 1]");
        }
        let srrc = match pulse {
            PulseShape::Srrc { alpha, span } => Some(SrrcTable::new(alpha, span)),
            _ => None,
        };
        ShapedBaseband {
            symbols,
            pulse,
            symbol_period: 1.0 / symbol_rate,
            srrc,
        }
    }

    /// The paper's stimulus: QPSK at `symbol_rate`, SRRC roll-off
    /// `alpha`, pulse half-span `span` symbols, `n` PRBS-driven symbols.
    pub fn qpsk_prbs(symbol_rate: f64, alpha: f64, span: usize, n: usize, seed: u64) -> Self {
        let symbols = Constellation::Qpsk.prbs_symbols(seed, n);
        ShapedBaseband::new(symbols, PulseShape::Srrc { alpha, span }, symbol_rate)
    }

    /// Random-symbol variant for Monte-Carlo runs.
    pub fn random(
        constellation: Constellation,
        symbol_rate: f64,
        pulse: PulseShape,
        n: usize,
        rng: &mut Randomizer,
    ) -> Self {
        let symbols = constellation.random_symbols(rng, n);
        ShapedBaseband::new(symbols, pulse, symbol_rate)
    }

    /// The symbol sequence.
    pub fn symbols(&self) -> &[Complex64] {
        &self.symbols
    }

    /// The pulse shape.
    pub fn pulse(&self) -> PulseShape {
        self.pulse
    }

    /// Symbol period in seconds.
    pub fn symbol_period(&self) -> f64 {
        self.symbol_period
    }

    /// Symbol rate in Hz.
    pub fn symbol_rate(&self) -> f64 {
        1.0 / self.symbol_period
    }

    /// Two-sided occupied RF bandwidth in Hz: `(1+α)·symbol_rate` for
    /// SRRC/RC shaping.
    pub fn occupied_bandwidth(&self) -> f64 {
        self.pulse.occupied_bandwidth_symbols() * self.symbol_rate()
    }

    /// The time interval over which every pulse contributing to the
    /// waveform has its full complement of neighbours (no ramp-up /
    /// ramp-down edge effects): `[span·Ts, (N − 1 − span)·Ts]`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol count is too small to have a steady region.
    pub fn steady_time_range(&self) -> (f64, f64) {
        let span = self.pulse.span();
        let n = self.symbols.len();
        assert!(
            n > 2 * span + 1,
            "need more than {} symbols for a steady region, have {n}",
            2 * span + 1
        );
        (
            span as f64 * self.symbol_period,
            (n - 1 - span) as f64 * self.symbol_period,
        )
    }

    /// The envelope at `t` as the direct per-tap sum: one
    /// [`PulseShape::eval`] per symbol in range. The oracle
    /// [`eval_iq`](ComplexEnvelope::eval_iq) is tested against; it
    /// returns exactly this near the SRRC pulse's removable
    /// singularities and for every non-SRRC shape.
    pub fn eval_iq_reference(&self, t: f64) -> Complex64 {
        let tn = t / self.symbol_period;
        let (_, lo, hi) = self.tap_range(tn);
        let mut acc = Complex64::ZERO;
        for k in lo..=hi {
            let g = self.pulse.eval(tn - k as f64);
            if g != 0.0 {
                acc += self.symbols[k as usize] * g;
            }
        }
        acc
    }

    /// `(⌊tn⌋, lo, hi)`: the symbols `lo..=hi` within a pulse span of
    /// the normalized time `tn`, clamped to the payload.
    fn tap_range(&self, tn: f64) -> (isize, isize, isize) {
        let span = self.pulse.span() as isize;
        let center = tn.floor() as isize;
        let lo = (center - span).max(0);
        let hi = (center + span + 1).min(self.symbols.len() as isize - 1);
        (center, lo, hi)
    }
}

impl ComplexEnvelope for ShapedBaseband {
    fn eval_iq(&self, t: f64) -> Complex64 {
        if let Some(table) = &self.srrc {
            let tn = t / self.symbol_period; // time in symbol periods
            let (center, lo, hi) = self.tap_range(tn);
            if let Some(z) = table.tap_sum(tn, center, lo, hi, &self.symbols) {
                return z;
            }
        }
        self.eval_iq_reference(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::ComplexEnvelope;

    fn test_bb(n: usize) -> ShapedBaseband {
        ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, n, 0xACE1)
    }

    #[test]
    fn waveform_passes_through_symbols_for_rc_pulse() {
        // With a zero-ISI RC pulse, a(k·Ts) == s_k exactly.
        let symbols = Constellation::Qpsk.prbs_symbols(7, 64);
        let bb = ShapedBaseband::new(
            symbols.clone(),
            PulseShape::Rc {
                alpha: 0.35,
                span: 10,
            },
            1e6,
        );
        let ts = bb.symbol_period();
        for (k, &sym) in symbols.iter().enumerate().take(50).skip(15) {
            let z = bb.eval_iq(k as f64 * ts);
            assert!((z - sym).abs() < 1e-9, "symbol {k}: {z} vs {sym}");
        }
    }

    #[test]
    fn srrc_waveform_has_isi_at_symbol_instants() {
        // SRRC alone (no matched filter) is NOT zero-ISI: values at symbol
        // instants differ from the symbols.
        let bb = test_bb(128);
        let ts = bb.symbol_period();
        let mut any_isi = false;
        for k in 20..60 {
            let z = bb.eval_iq(k as f64 * ts);
            if (z - bb.symbols()[k]).abs() > 1e-3 {
                any_isi = true;
            }
        }
        assert!(any_isi, "SRRC should exhibit ISI before matched filtering");
    }

    #[test]
    fn steady_range_excludes_edges() {
        let bb = test_bb(128);
        let (t0, t1) = bb.steady_time_range();
        assert!((t0 - 12.0 * 1e-7).abs() < 1e-15);
        assert!((t1 - 115.0 * 1e-7).abs() < 1e-15);
        assert!(t1 > t0);
    }

    #[test]
    fn paper_window_fits_in_steady_range() {
        // Paper cost function uses a 1230 ns probe window ([470, 1700] ns);
        // the absolute origin is arbitrary, so check the steady region is
        // long enough to host it.
        let bb = test_bb(64);
        let (t0, t1) = bb.steady_time_range();
        assert!(t1 - t0 >= 1230e-9, "steady span {}", t1 - t0);
    }

    #[test]
    fn waveform_is_zero_far_outside_support() {
        let bb = test_bb(32);
        assert_eq!(bb.eval_iq(-1.0), Complex64::ZERO);
        assert_eq!(bb.eval_iq(1.0), Complex64::ZERO); // 1 s >> 32 symbols · 0.1 µs
    }

    #[test]
    fn occupied_bandwidth_matches_paper() {
        // 10 MHz symbols, α = 0.5 → 15 MHz
        let bb = test_bb(64);
        assert!((bb.occupied_bandwidth() - 15e6).abs() < 1.0);
    }

    #[test]
    fn rms_level_is_near_unit_for_qpsk() {
        // Unit-power constellation with SRRC shaping keeps ~unit RMS.
        let bb = test_bb(256);
        let (t0, t1) = bb.steady_time_range();
        let n = 4000;
        let mut acc = 0.0;
        for i in 0..n {
            let t = t0 + (t1 - t0) * i as f64 / n as f64;
            acc += bb.eval_iq(t).norm_sqr();
        }
        let rms = (acc / n as f64).sqrt();
        assert!((rms - 1.0).abs() < 0.15, "rms {rms}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = test_bb(64);
        let b = test_bb(64);
        assert_eq!(a.eval_iq(1e-6), b.eval_iq(1e-6));
    }

    #[test]
    fn random_constructor_uses_rng() {
        let mut rng = Randomizer::from_seed(5);
        let bb = ShapedBaseband::random(
            Constellation::Qam16,
            1e6,
            PulseShape::paper_default(),
            64,
            &mut rng,
        );
        assert_eq!(bb.symbols().len(), 64);
    }

    #[test]
    #[should_panic(expected = "steady region")]
    fn too_few_symbols_panics_steady_range() {
        let bb = test_bb(20); // span 12 needs > 25
        let _ = bb.steady_time_range();
    }

    #[test]
    #[should_panic(expected = "symbol rate must be positive")]
    fn bad_rate_panics() {
        let _ = ShapedBaseband::new(vec![Complex64::ONE], PulseShape::Rect, 0.0);
    }

    fn srrc_bb(alpha: f64, span: usize) -> ShapedBaseband {
        // unit symbol rate: t is the normalized time itself
        let symbols = Constellation::Qpsk.prbs_symbols(0x5EED, 64);
        ShapedBaseband::new(symbols, PulseShape::Srrc { alpha, span }, 1.0)
    }

    /// Fractional offsets of the fallback bands' centres for `alpha`.
    fn singular_offsets(alpha: f64) -> Vec<f64> {
        let mut offsets = vec![0.0];
        if alpha > 0.0 {
            let quarter = 1.0 / (4.0 * alpha);
            offsets.push(quarter.rem_euclid(1.0));
            offsets.push((-quarter).rem_euclid(1.0));
        }
        offsets
    }

    fn in_fallback_band(alpha: f64, f: f64) -> bool {
        singular_offsets(alpha).iter().any(|&s| {
            let d = (f - s).abs();
            d.min(1.0 - d) < crate::pulse::SRRC_FALLBACK_BAND
        })
    }

    #[test]
    fn table_matches_the_direct_tap_sum() {
        const BAND: f64 = crate::pulse::SRRC_FALLBACK_BAND;
        for alpha in [0.0, 0.12, 0.22, 0.3, 0.35, 0.5, 1.0] {
            for span in [12usize, 4] {
                let bb = srrc_bb(alpha, span);
                let n = bb.symbols().len() as f64;
                let s = span as f64;
                // symbol indices across the ramp-up, the steady range
                // and the ramp-down, plus both sides of the payload
                let bases = [
                    -s - 2.0,
                    -s,
                    -3.0,
                    0.0,
                    1.0,
                    s - 1.0,
                    s,
                    31.0,
                    n - 2.0 - s,
                    n - 1.0 - s,
                    n - 3.0,
                    n + 2.0,
                    n + s - 1.0,
                ];
                // generic offsets, symbol boundaries (f = 0), and the
                // inside and just outside of every fallback band
                let mut fracs = vec![0.0, 0.125, 0.37, 0.5, 0.731, 0.999];
                for centre in singular_offsets(alpha) {
                    for delta in [0.0, 3e-5, 0.99 * BAND, 1.01 * BAND, 1.5 * BAND, 4.0 * BAND] {
                        for f in [centre + delta, centre - delta] {
                            fracs.push(f.rem_euclid(1.0));
                        }
                    }
                }
                let mut in_band = 0;
                for &base in &bases {
                    for &f in &fracs {
                        let t = base + f;
                        let fast = bb.eval_iq(t);
                        let reference = bb.eval_iq_reference(t);
                        let err = (fast - reference).abs();
                        assert!(
                            err <= 1e-11,
                            "alpha {alpha}, span {span}, t {t}: |{fast} - {reference}| = {err:e}"
                        );
                        if in_fallback_band(alpha, t - t.floor()) {
                            in_band += 1;
                            assert_eq!(
                                (fast.re.to_bits(), fast.im.to_bits()),
                                (reference.re.to_bits(), reference.im.to_bits()),
                                "alpha {alpha}, span {span}, t {t}: the band must take the direct path"
                            );
                        }
                    }
                }
                assert!(in_band > 0, "no instant fell inside a fallback band");
            }
        }
    }

    #[test]
    fn table_matches_the_direct_tap_sum_at_a_physical_symbol_rate() {
        let bb = test_bb(128);
        let ts = bb.symbol_period();
        for i in 0..4000 {
            let t = -14.0 * ts + i as f64 * 0.0391 * ts;
            let err = (bb.eval_iq(t) - bb.eval_iq_reference(t)).abs();
            assert!(err <= 1e-11, "t {t}: {err:e}");
        }
    }

    #[test]
    fn rolloff_outside_the_unit_interval_is_rejected() {
        for alpha in [1.5, -0.1, f64::NAN] {
            let built = std::panic::catch_unwind(|| {
                ShapedBaseband::new(
                    vec![Complex64::ONE],
                    PulseShape::Srrc { alpha, span: 4 },
                    1e6,
                )
            });
            let message = built
                .err()
                .and_then(|e| e.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_else(|| panic!("alpha {alpha} was accepted"));
            assert!(message.contains("roll-off must be in [0, 1]"), "{message}");
        }
    }
}

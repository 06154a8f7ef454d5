//! Structured BIST results.

use crate::health::CaptureHealth;
use crate::mask::MaskReport;
use crate::skew::SkewEstimate;
use std::fmt;

/// The complete record of one BIST run.
///
/// Derives `PartialEq` so equivalence harnesses (the verdict service
/// must produce reports bit-identical to single-shot
/// [`try_run_with`](crate::bist::BistEngine::try_run_with)) can compare
/// whole reports directly.
#[derive(Clone, Debug, PartialEq)]
pub struct BistReport {
    /// The skew estimate the engine converged to.
    pub skew: SkewEstimate,
    /// Ground-truth physical delay (available in simulation only; a
    /// real unit would not know this).
    pub true_delay: f64,
    /// Spectral-mask verdict.
    pub mask: MaskReport,
    /// Relative RMS reconstruction error against a supplied reference
    /// (Δε), when a reference was given. After an early exit this
    /// covers only the reconstructed prefix of the analysis grid.
    pub reconstruction_error: Option<f64>,
    /// `true` when the streaming early-verdict policy stopped
    /// reconstruction before the full analysis grid — the mask verdict
    /// is then a (failing) partial-capture verdict.
    pub early_exit: bool,
    /// Whether the skew estimate met the engine's acceptance gate
    /// ([`SkewGate`](crate::bist::SkewGate)): a diverged LMS or an
    /// out-of-tolerance residual cost fails the overall verdict even
    /// when the mask happens to pass on the mis-reconstructed
    /// waveform. Always `true` for runs on an externally calibrated
    /// skew (the calibration run carried the gate).
    pub skew_ok: bool,
    /// Measured noise figure in dB — excess of the measured
    /// out-of-band noise density over the configured reference floor —
    /// when the engine's [`NoiseFigureConfig`](crate::bist::NoiseFigureConfig)
    /// is armed.
    pub noise_figure_db: Option<f64>,
    /// Whether the noise figure met its configured limit (`true` when
    /// no NF measurement or no limit is configured).
    pub nf_ok: bool,
    /// Pre-calibration health scan of the fast-rate capture the
    /// verdict was computed from. `None` only for reports built
    /// outside the engine (e.g. hand-assembled in tests). A capture
    /// bad enough to be rejected never reaches a report — see
    /// [`BistError`](crate::error::BistError) — so a populated scan
    /// here is at worst *marginal* (elevated but tolerable clipping).
    pub capture_health: Option<CaptureHealth>,
}

impl BistReport {
    /// `|D̂ − D|` in seconds.
    pub fn skew_abs_error(&self) -> f64 {
        (self.skew.delay - self.true_delay).abs()
    }

    /// Overall verdict: the mask passed, the skew estimate met its
    /// acceptance gate and the noise figure (when measured against a
    /// limit) stayed within it.
    pub fn passed(&self) -> bool {
        self.mask.passed && self.skew_ok && self.nf_ok
    }
}

impl fmt::Display for BistReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BIST {}: mask `{}` worst margin {:+.2} dB at {:.3} MHz",
            if self.passed() { "PASS" } else { "FAIL" },
            self.mask.mask_name,
            self.mask.worst_margin_db,
            self.mask.worst_frequency_hz / 1e6,
        )?;
        writeln!(
            f,
            "  skew estimate {:.3} ps (true {:.3} ps, |err| {:.3} ps, {} iterations)",
            self.skew.delay * 1e12,
            self.true_delay * 1e12,
            self.skew_abs_error() * 1e12,
            self.skew
                .iterations
                .map_or("?".to_string(), |i| i.to_string()),
        )?;
        if !self.skew_ok {
            writeln!(f, "  skew gate FAILED: estimate outside acceptance")?;
        }
        if let Some(e) = self.reconstruction_error {
            writeln!(f, "  reconstruction Δε = {:.3} %", e * 100.0)?;
        }
        if let Some(nf) = self.noise_figure_db {
            writeln!(
                f,
                "  noise figure {:.2} dB{}",
                nf,
                if self.nf_ok { "" } else { " — over limit" }
            )?;
        }
        if self.early_exit {
            writeln!(f, "  early exit: verdict decided mid-capture")?;
        }
        if let Some(h) = &self.capture_health {
            if h.marginal {
                writeln!(
                    f,
                    "  capture health MARGINAL: clip fraction {:.4} ({} of {} samples at a rail)",
                    h.clip_fraction, h.clipped, h.samples
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskReport;

    fn dummy_report(passed: bool) -> BistReport {
        BistReport {
            skew: SkewEstimate {
                delay: 180.2e-12,
                residual_cost: Some(1e-6),
                iterations: Some(12),
            },
            true_delay: 180e-12,
            mask: MaskReport {
                mask_name: "test".into(),
                passed,
                worst_margin_db: if passed { 7.5 } else { -3.0 },
                worst_frequency_hz: 1.013e9,
                reference_db: -40.0,
                violation_count: 0,
                violations: vec![],
                truncated: false,
            },
            reconstruction_error: Some(0.0084),
            early_exit: false,
            skew_ok: true,
            noise_figure_db: None,
            nf_ok: true,
            capture_health: None,
        }
    }

    #[test]
    fn abs_error_is_computed() {
        let r = dummy_report(true);
        assert!((r.skew_abs_error() - 0.2e-12).abs() < 1e-18);
        assert!(r.passed());
    }

    #[test]
    fn failed_gates_fail_the_overall_verdict() {
        // a passing mask must not override a rejected skew estimate…
        let mut r = dummy_report(true);
        r.skew_ok = false;
        assert!(!r.passed());
        assert!(r.to_string().contains("skew gate FAILED"), "{r}");
        // …or an out-of-limit noise figure
        let mut r = dummy_report(true);
        r.noise_figure_db = Some(9.5);
        r.nf_ok = false;
        assert!(!r.passed());
        assert!(r.to_string().contains("over limit"), "{r}");
        // an in-limit measurement is reported without failing
        let mut r = dummy_report(true);
        r.noise_figure_db = Some(3.2);
        assert!(r.passed());
        assert!(r.to_string().contains("noise figure 3.20 dB"), "{r}");
    }

    #[test]
    fn display_mentions_verdict_and_numbers() {
        let r = dummy_report(true);
        let s = r.to_string();
        assert!(s.contains("PASS"), "{s}");
        assert!(s.contains("180.200 ps"), "{s}");
        assert!(s.contains("12 iterations"), "{s}");
        assert!(s.contains("0.840 %"), "{s}");
        let f = dummy_report(false);
        assert!(f.to_string().contains("FAIL"));
    }

    #[test]
    fn display_mentions_marginal_health() {
        let mut r = dummy_report(true);
        // a healthy scan stays silent; a marginal one is surfaced
        r.capture_health = Some(CaptureHealth {
            samples: 4096,
            non_finite: 0,
            clipped: 0,
            clip_fraction: 0.0,
            min_channel_ac_rms: 0.3,
            marginal: false,
        });
        assert!(!r.to_string().contains("MARGINAL"), "{r}");
        if let Some(h) = r.capture_health.as_mut() {
            h.clipped = 41;
            h.clip_fraction = 0.01;
            h.marginal = true;
        }
        assert!(r.to_string().contains("capture health MARGINAL"), "{r}");
        assert!(r.to_string().contains("41 of 4096"), "{r}");
    }

    #[test]
    fn display_mentions_early_exit() {
        let mut r = dummy_report(false);
        assert!(!r.to_string().contains("early exit"));
        r.early_exit = true;
        assert!(r.to_string().contains("early exit"), "{r}");
    }
}

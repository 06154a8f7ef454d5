//! Pre-scan capture health guards: a corrupted capture must never
//! produce a silent PASS.
//!
//! [`CaptureHealth::scan`] inspects a raw (pre-calibration) capture
//! for the three front-end failure signatures that would otherwise
//! flow undetected into the Goertzel bank:
//!
//! - **non-finite samples** — NaN from a glitched ADC propagates
//!   through the quantizer (`NaN.round().clamp(..)` stays NaN) and
//!   through every downstream dot product;
//! - **clip-rail saturation** — the quantizer clamps to
//!   `[-FS, FS - lsb]`, so a sliced waveform still *looks* finite
//!   while its spectrum is fiction (an `+Inf` input lands on the rail
//!   too, so gross overdrive surfaces here rather than as NaN);
//! - **dead channels** — an all-quiet capture has an empty spectrum
//!   that passes every emission mask.
//!
//! Unusable captures are rejected with a typed
//! [`BistError`]; marginal ones (light
//! clipping below the reject threshold) are annotated on the
//! [`BistReport`](crate::report::BistReport) so an operator can see
//! the verdict ran close to the rails.

use rfbist_converter::bptiadc::BpTiadcConfig;
use rfbist_sampling::reconstruct::NonuniformCapture;

use crate::error::BistError;

/// Thresholds for [`CaptureHealth::scan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Reject the capture when more than this fraction of samples sit
    /// on the ADC clip rails.
    pub max_clip_fraction: f64,
    /// Annotate the report as marginal above this clip fraction.
    pub warn_clip_fraction: f64,
    /// Reject when any channel's AC RMS falls below this fraction of
    /// the converter full scale (dead cable / muted DUT).
    pub min_rms_fraction: f64,
    /// Reject when the capture carries more than this many non-finite
    /// samples. Zero: any NaN refuses the verdict.
    pub max_non_finite: usize,
}

impl HealthPolicy {
    /// Defaults sized for the paper's Section V front end: reject at
    /// 2 % railed samples (well past soft clipping), warn from 0.2 %,
    /// and treat any channel quieter than `1e-6·FS` as disconnected.
    pub fn paper_default() -> Self {
        HealthPolicy {
            max_clip_fraction: 0.02,
            warn_clip_fraction: 0.002,
            min_rms_fraction: 1e-6,
            max_non_finite: 0,
        }
    }
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy::paper_default()
    }
}

/// What the pre-scan saw. Attached to the report so marginal captures
/// stay visible even when the verdict proceeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaptureHealth {
    /// Total samples scanned (both channels).
    pub samples: usize,
    /// Non-finite samples found.
    pub non_finite: usize,
    /// Samples at the ADC clip rails.
    pub clipped: usize,
    /// `clipped / samples`.
    pub clip_fraction: f64,
    /// Smallest per-channel AC (mean-removed) RMS.
    pub min_channel_ac_rms: f64,
    /// True when the capture passed but exceeded the warn clip
    /// fraction — the verdict ran close to the rails.
    pub marginal: bool,
}

impl CaptureHealth {
    /// Scan a raw capture against `policy`, using the converter
    /// geometry in `frontend` to place the clip rails.
    ///
    /// Must run on the capture **before** offset/gain calibration:
    /// the statistics here are NaN-tolerant, while the calibration
    /// means are not, and the rails live in the quantizer's output
    /// domain. Per-channel means are removed before the RMS test
    /// because raw captures legitimately carry per-channel DC offsets.
    pub fn scan(
        capture: &NonuniformCapture,
        frontend: &BpTiadcConfig,
        policy: &HealthPolicy,
    ) -> Result<CaptureHealth, BistError> {
        let full_scale = frontend.full_scale;
        let lsb = 2.0 * full_scale / (1u64 << frontend.bits) as f64;
        // The quantizer output range is asymmetric: [-FS, FS - lsb].
        // Each threshold catches exactly the outermost code per side.
        let pos_rail = full_scale - 1.5 * lsb;
        let neg_rail = -full_scale + 0.5 * lsb;

        let mut samples = 0usize;
        let mut non_finite = 0usize;
        let mut first_non_finite = None;
        let mut clipped = 0usize;
        let mut min_ac_rms = f64::INFINITY;
        for (ch, stream) in [capture.even(), capture.odd()].into_iter().enumerate() {
            let (mut sum, mut sumsq, mut finite) = (0.0f64, 0.0f64, 0usize);
            for (i, &x) in stream.iter().enumerate() {
                if !x.is_finite() {
                    non_finite += 1;
                    // Interleaved order: even samples sit at 2i,
                    // odd at 2i+1.
                    first_non_finite.get_or_insert(2 * i + ch);
                    continue;
                }
                if x >= pos_rail || x <= neg_rail {
                    clipped += 1;
                }
                sum += x;
                sumsq += x * x;
                finite += 1;
            }
            samples += stream.len();
            if finite > 0 {
                let mean = sum / finite as f64;
                let ac = (sumsq / finite as f64 - mean * mean).max(0.0).sqrt();
                min_ac_rms = min_ac_rms.min(ac);
            }
        }
        if samples == 0 {
            return Err(BistError::CaptureTooShort {
                reason: "capture too short: no samples to scan".into(),
            });
        }
        if non_finite > policy.max_non_finite {
            return Err(BistError::NonFiniteCapture {
                count: non_finite,
                first_index: first_non_finite.unwrap_or(0),
                samples,
            });
        }
        let clip_fraction = clipped as f64 / samples as f64;
        if clip_fraction > policy.max_clip_fraction {
            return Err(BistError::SaturatedCapture {
                clip_fraction,
                max_clip_fraction: policy.max_clip_fraction,
            });
        }
        let min_ac = policy.min_rms_fraction * full_scale;
        if min_ac_rms < min_ac {
            return Err(BistError::DeadCapture {
                ac_rms: min_ac_rms,
                min_ac_rms: min_ac,
            });
        }
        Ok(CaptureHealth {
            samples,
            non_finite,
            clipped,
            clip_fraction,
            min_channel_ac_rms: min_ac_rms,
            marginal: clip_fraction > policy.warn_clip_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(even: Vec<f64>, odd: Vec<f64>) -> NonuniformCapture {
        NonuniformCapture::from_streams(1.0 / 90e6, 180e-12, 0, even, odd)
    }

    fn frontend() -> BpTiadcConfig {
        BpTiadcConfig::paper_section_v(180e-12)
    }

    fn sine(n: usize, phase: f64) -> Vec<f64> {
        (0..n).map(|i| (0.37 * i as f64 + phase).sin()).collect()
    }

    #[test]
    fn healthy_capture_scans_clean() {
        let h = CaptureHealth::scan(
            &capture(sine(256, 0.0), sine(256, 0.5)),
            &frontend(),
            &HealthPolicy::paper_default(),
        )
        .unwrap();
        assert_eq!(h.samples, 512);
        assert_eq!((h.non_finite, h.clipped), (0, 0));
        assert!(!h.marginal);
        assert!(h.min_channel_ac_rms > 0.5);
    }

    #[test]
    fn nan_is_rejected_with_its_interleaved_index() {
        let mut odd = sine(256, 0.5);
        odd[3] = f64::NAN;
        let err = CaptureHealth::scan(
            &capture(sine(256, 0.0), odd),
            &frontend(),
            &HealthPolicy::paper_default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            BistError::NonFiniteCapture {
                count: 1,
                first_index: 7,
                samples: 512
            }
        );
    }

    #[test]
    fn per_channel_offsets_do_not_fake_a_live_signal() {
        // DC-only channels: raw captures carry per-channel offsets, so
        // the dead test must look at AC RMS, not plain RMS.
        let err = CaptureHealth::scan(
            &capture(vec![0.02; 256], vec![-0.01; 256]),
            &frontend(),
            &HealthPolicy::paper_default(),
        )
        .unwrap_err();
        assert!(matches!(err, BistError::DeadCapture { .. }));
    }

    #[test]
    fn rails_are_placed_on_the_asymmetric_quantizer_range() {
        let fe = frontend();
        let lsb = 2.0 * fe.full_scale / (1u64 << fe.bits) as f64;
        let top = fe.full_scale - lsb; // largest representable code
        let bottom = -fe.full_scale; // smallest representable code
        let inner_top = fe.full_scale - 2.0 * lsb; // one code below rail
        let mut even = sine(256, 0.0);
        for s in even.iter_mut().take(64) {
            *s = top;
        }
        for s in even.iter_mut().skip(64).take(64) {
            *s = inner_top;
        }
        let mut odd = sine(256, 0.5);
        for s in odd.iter_mut().take(64) {
            *s = bottom;
        }
        let relaxed = HealthPolicy {
            max_clip_fraction: 1.0,
            ..HealthPolicy::paper_default()
        };
        let h = CaptureHealth::scan(&capture(even, odd), &fe, &relaxed).unwrap();
        // only the true rail codes count — the inner code does not
        assert_eq!(h.clipped, 128);
        assert!(h.marginal);
    }

    #[test]
    fn heavy_clipping_is_rejected() {
        let err = CaptureHealth::scan(
            &capture(vec![2.0 - 2.0 / 512.0; 256], sine(256, 0.5)),
            &frontend(),
            &HealthPolicy::paper_default(),
        )
        .unwrap_err();
        assert!(matches!(err, BistError::SaturatedCapture { .. }));
    }
}

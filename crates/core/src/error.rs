//! Typed error taxonomy for the fail-safe verdict pipeline.
//!
//! Every failure the BIST engine, the streaming mask scan and the
//! fault-coverage campaign can encounter is a value of [`BistError`].
//! The long-standing panicking entry points (`BistEngine::run`,
//! `run_campaign`, `MaskScanEngine::new`, …) are thin wrappers over
//! `try_*` variants that panic with the error's `Display` text, so the
//! panic messages existing callers (and `#[should_panic]` pins) rely
//! on are exactly the `Display` strings defined here.

use std::fmt;

/// Everything that can go wrong between a capture and a verdict.
///
/// The taxonomy deliberately distinguishes *capture* problems (the
/// DUT/front-end produced unusable samples — reject, do not score)
/// from *configuration* problems (the caller asked for something
/// impossible — fail fast, before any trial runs) and *infrastructure*
/// problems (a worker thread died, the campaign observer stopped the
/// sweep — recover or surface, never emit a wrong verdict).
#[derive(Clone, Debug, PartialEq)]
pub enum BistError {
    /// The capture cannot support the reconstruction tap window or the
    /// requested analysis grid. `reason` carries the specific geometry.
    CaptureTooShort {
        /// Human-readable geometry detail (contains "capture too short"
        /// or "shorter" for wrapper-panic compatibility).
        reason: String,
    },
    /// The scan grid or PSD has no bins inside the mask's reference
    /// region, segments, or noise-figure band — no verdict is possible.
    NoMaskCoverage {
        /// Which coverage region is empty.
        reason: String,
    },
    /// The capture contains NaN samples (a glitched front end). A
    /// corrupted capture must never flow into the Goertzel bank.
    NonFiniteCapture {
        /// How many samples were non-finite.
        count: usize,
        /// Interleaved sample index of the first offender.
        first_index: usize,
        /// Total samples scanned (both channels).
        samples: usize,
    },
    /// Too many samples sit on the ADC clip rails — the waveform is
    /// being sliced and any mask margin computed from it is fiction.
    SaturatedCapture {
        /// Fraction of samples at the rails.
        clip_fraction: f64,
        /// The policy limit that was exceeded.
        max_clip_fraction: f64,
    },
    /// A channel carries no AC signal at all (dead cable, muted DUT) —
    /// an all-quiet spectrum would pass every mask silently.
    DeadCapture {
        /// Smallest per-channel AC RMS observed.
        ac_rms: f64,
        /// The policy floor it fell below.
        min_ac_rms: f64,
    },
    /// A campaign deployment names a standard the mask library does
    /// not carry.
    UnknownStandard {
        /// The unrecognized name.
        name: String,
        /// The library's known standards, sorted.
        known: Vec<String>,
    },
    /// A pool worker panicked on every attempt at a job (the verdict
    /// service retries a panicked attempt once first), or the pool
    /// itself is gone. The campaign scores the former as an errored run and
    /// stops on the latter.
    WorkerPanic {
        /// What failed, with the panic payload when there was one.
        detail: String,
    },
    /// The configuration itself is invalid (empty corpus, degenerate
    /// rates, non-finite thresholds, …).
    InvalidConfig {
        /// What is wrong with it.
        reason: String,
    },
    /// A length-prefixed wire frame could not be decoded: truncated
    /// body, unknown frame type, oversized length prefix, or a payload
    /// that fails its own invariants. Malformed bytes from a transport
    /// must surface here — never as a panic.
    Wire {
        /// What is wrong with the frame.
        reason: String,
    },
    /// The campaign observer requested a stop between cells; the
    /// completed cells' tallies are discarded.
    Interrupted {
        /// Cells fully scored before the stop.
        completed_cells: usize,
        /// Total cells in the sweep.
        total_cells: usize,
    },
}

impl BistError {
    /// Whether resubmitting the same job can plausibly succeed.
    ///
    /// Only infrastructure faults (a panicked worker thread) are
    /// transient; capture and configuration errors are deterministic
    /// and would fail the same way again. The library itself retries
    /// nothing on this flag: the verdict service retries panicked
    /// attempts in place, and this tells a caller holding a
    /// [`WorkerPanic`](BistError::WorkerPanic) outcome whether a
    /// resubmission is worth it.
    pub fn is_transient(&self) -> bool {
        matches!(self, BistError::WorkerPanic { .. })
    }
}

impl fmt::Display for BistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BistError::CaptureTooShort { reason } | BistError::NoMaskCoverage { reason } => {
                write!(f, "{reason}")
            }
            BistError::NonFiniteCapture {
                count,
                first_index,
                samples,
            } => write!(
                f,
                "capture contains {count} non-finite sample(s) (first at \
                 interleaved index {first_index} of {samples}) — glitched \
                 front end; verdict refused"
            ),
            BistError::SaturatedCapture {
                clip_fraction,
                max_clip_fraction,
            } => write!(
                f,
                "capture saturated: {:.3}% of samples at the ADC clip rails \
                 (policy limit {:.3}%); verdict refused",
                clip_fraction * 100.0,
                max_clip_fraction * 100.0
            ),
            BistError::DeadCapture { ac_rms, min_ac_rms } => write!(
                f,
                "capture dead: per-channel AC RMS {ac_rms:.3e} below \
                 {min_ac_rms:.3e} — no signal reached the ADC; verdict refused"
            ),
            BistError::UnknownStandard { name, known } => {
                write!(f, "unknown standard `{name}` — known standards: ")?;
                for (i, k) in known.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{k}`")?;
                }
                Ok(())
            }
            BistError::WorkerPanic { detail } => {
                write!(f, "worker panic: {detail}")
            }
            BistError::InvalidConfig { reason } => write!(f, "{reason}"),
            BistError::Wire { reason } => write!(f, "wire format error: {reason}"),
            BistError::Interrupted {
                completed_cells,
                total_cells,
            } => write!(
                f,
                "campaign interrupted after {completed_cells}/{total_cells} cells"
            ),
        }
    }
}

impl std::error::Error for BistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_the_legacy_panic_phrases() {
        let e = BistError::CaptureTooShort {
            reason: "capture too short for the analysis grid".into(),
        };
        assert!(e.to_string().contains("capture too short"));
        let e = BistError::UnknownStandard {
            name: "dvb-t2".into(),
            known: vec!["gsm-like-270k".into(), "lte5-like".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("unknown standard `dvb-t2`"));
        assert!(msg.contains("`gsm-like-270k`, `lte5-like`"));
    }

    #[test]
    fn only_worker_panics_are_transient() {
        assert!(BistError::WorkerPanic { detail: "x".into() }.is_transient());
        assert!(!BistError::InvalidConfig { reason: "x".into() }.is_transient());
        assert!(!BistError::DeadCapture {
            ac_rms: 0.0,
            min_ac_rms: 1e-6
        }
        .is_transient());
    }

    #[test]
    fn wire_errors_are_typed_and_not_transient() {
        let e = BistError::Wire {
            reason: "frame length 9000000 exceeds limit".into(),
        };
        assert!(e.to_string().starts_with("wire format error: "));
        assert!(e.to_string().contains("9000000"));
        assert!(!e.is_transient());
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(BistError::Interrupted {
            completed_cells: 1,
            total_cells: 2,
        });
        assert_eq!(e.to_string(), "campaign interrupted after 1/2 cells");
    }
}

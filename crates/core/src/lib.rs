//! RF BIST core — the paper's contribution.
//!
//! Reproduces the DATE 2014 strategy end to end:
//!
//! - [`cost`]: the dual-rate self-consistency cost `ε^{T,D̂}_{T1,D̂}(t)`
//!   (paper eqs. 7–8) whose unique minimum sits at the true skew,
//! - [`lms`]: the normalized variable-step LMS estimator (Algorithm 1),
//! - [`jamal`]: the sine-fit baseline adapted from Jamal et al. \[14\],
//! - [`skew`]: estimate/error-metric types shared by both estimators,
//! - [`mask`]: spectral masks and compliance checking (the BIST's
//!   verdict machinery),
//! - [`scan`]: the banked-Goertzel mask-bin scanner (evaluates only
//!   the bins the mask constrains), batched or as a push-style
//!   streaming consumer with early verdicts,
//! - [`bist`]: the end-to-end engine (capture → calibrate → estimate →
//!   reconstruct → mask check),
//! - [`campaign`]: the Monte-Carlo fault-coverage campaign runner
//!   (fault corpus × standards × jitter profiles → detection/false-alarm
//!   matrix) on the verdict pool,
//! - [`error`]: the typed failure taxonomy behind every `try_*` entry
//!   point,
//! - [`health`]: pre-scan capture health guards (NaN/clip/dead-signal
//!   rejection),
//! - [`report`]: serializable result records,
//! - [`service`]: the persistent-worker verdict service (shards
//!   (standard × carrier × DUT) jobs across long-lived workers with
//!   bounded-queue backpressure),
//! - [`trace`]: the opt-in per-stage ledger of a verdict
//!   ([`VerdictTrace`](trace::VerdictTrace)),
//! - [`wire`]: the length-prefixed wire format for feeding sample
//!   blocks to a verdict worker and draining partial reports.
//!
//! # Example: estimating a 180 ps skew
//!
//! ```
//! use rfbist_core::cost::DualRateCost;
//! use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
//! use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig};
//! use rfbist_sampling::dualrate::DualRateConfig;
//! use rfbist_signal::prelude::*;
//!
//! let cfg = DualRateConfig::paper_section_v();
//! let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 96, 0xACE1);
//! let tx = BandpassSignal::new(bb, 1e9);
//!
//! let mut fast = BpTiadc::new(BpTiadcConfig::ideal(cfg.fast_rate(), cfg.delay()));
//! let mut slow = BpTiadc::new(BpTiadcConfig::ideal(cfg.slow_rate(), cfg.delay()));
//! let cost = DualRateCost::try_paper_probes(
//!     fast.capture(&tx, 80, 260),
//!     slow.capture(&tx, 40, 160),
//!     cfg,
//!     300,
//!     1,
//! )?;
//! let result = estimate_skew_lms(&cost, LmsConfig::paper_default(50e-12));
//! assert!((result.estimate - 180e-12).abs() < 1e-12);
//! # Ok::<(), rfbist_core::BistError>(())
//! ```

// Production code must not take shortcuts through unwrap/expect: the
// fail-safe pipeline treats every runtime fault as a typed value. Test
// modules (cfg(test)) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bist;
pub mod campaign;
pub mod cost;
pub mod error;
pub mod health;
pub mod jamal;
pub mod lms;
pub mod mask;
pub mod report;
pub mod scan;
pub mod service;
pub mod skew;
pub mod trace;
pub mod wire;

pub use bist::{BistConfig, BistEngine, BistScratch, NoiseFigureConfig, SkewGate};
pub use campaign::{
    try_run_campaign, try_run_campaign_supervised, CampaignConfig, CampaignProgress,
    CoverageMatrix, Deployment, FaultOutcome, StandardOutcome,
};
pub use cost::{CostEvaluator, DualRateCost};
pub use error::BistError;
pub use health::{CaptureHealth, HealthPolicy};
pub use lms::{estimate_skew_lms, LmsConfig, LmsResult};
pub use mask::{MaskLibrary, MaskReport, MaskStandard, SpectralMask};
pub use scan::{EarlyVerdict, MaskScanEngine, StreamScratch, StreamingMaskScan};
pub use service::{DutSpec, ServiceConfig, VerdictJob, VerdictOutcome, VerdictService};
pub use wire::{FrameDecoder, WireFrame, WireVerdictSession};

//! # rfbist — RF BIST for SDR transmitters via nonuniform bandpass sampling
//!
//! A full reproduction of *"A flexible BIST strategy for SDR
//! transmitters"* (Dogaru, Vinci dos Santos, Rebernak — DATE 2014) as a
//! production-quality Rust workspace. This facade crate re-exports the
//! sub-crates; see the README for the architecture overview ("Workspace
//! layout") and the experiment index ("Experiment binaries").
//!
//! ## Layer map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`math`] | `rfbist-math` | complex/FFT/special-function kernel |
//! | [`dsp`] | `rfbist-dsp` | windows, pulses, PSD, Goertzel bank |
//! | [`signal`] | `rfbist-signal` | analytic continuous-time signals |
//! | [`rfchain`] | `rfbist-rfchain` | behavioral homodyne Tx + faults |
//! | [`converter`] | `rfbist-converter` | clocks, DCDE, quantizers, BP-TIADC |
//! | [`sampling`] | `rfbist-sampling` | PBS feasibility, Kohlenberg PNBS |
//! | [`core`] | `rfbist-core` | cost (eq. 8), LMS (Algorithm 1), masks, engine |
//!
//! ## Quickstart
//!
//! ```no_run
//! use rfbist::prelude::*;
//!
//! // The paper's Section V scenario end to end.
//! let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 160, 0xACE1);
//! let tx = HomodyneTx::builder(bb, 1e9)
//!     .impairments(TxImpairments::typical())
//!     .build();
//! let engine = BistEngine::new(BistConfig::paper_default());
//! let report = engine.run(
//!     &tx.rf_output(),
//!     &SpectralMask::qpsk_10msym(),
//!     Some(&tx.ideal_rf_output()),
//! );
//! assert!(report.passed());
//! ```

pub mod fixtures;

pub use rfbist_converter as converter;
pub use rfbist_core as core;
pub use rfbist_dsp as dsp;
pub use rfbist_math as math;
pub use rfbist_rfchain as rfchain;
pub use rfbist_sampling as sampling;
pub use rfbist_signal as signal;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig, JitterPlacement};
    pub use rfbist_core::bist::{
        BistConfig, BistEngine, BistScratch, NoiseFigureConfig, ProbeSchedule, SkewGate,
    };
    pub use rfbist_core::campaign::{
        run_campaign, try_run_campaign, try_run_campaign_supervised, CampaignConfig,
        CampaignProgress, CoverageMatrix, Deployment, FaultOutcome, StandardOutcome,
    };
    pub use rfbist_core::cost::DualRateCost;
    pub use rfbist_core::error::BistError;
    pub use rfbist_core::health::{CaptureHealth, HealthPolicy};
    pub use rfbist_core::jamal::{estimate_skew_jamal, test_tone_for_ratio};
    pub use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
    pub use rfbist_core::mask::{MaskLibrary, MaskSegment, MaskStandard, SpectralMask};
    pub use rfbist_core::scan::{EarlyVerdict, MaskScanEngine, ScanFeed, StreamScratch};
    pub use rfbist_core::service::{
        try_campaign_jobs, DutSpec, ServiceConfig, VerdictJob, VerdictOutcome, VerdictService,
    };
    pub use rfbist_core::wire::{FrameDecoder, WireFrame, WireVerdictSession};
    pub use rfbist_rfchain::faults::{gross_fault_set, standard_fault_set, Fault, FaultKind};
    pub use rfbist_rfchain::impairments::TxImpairments;
    pub use rfbist_rfchain::iqmod::IqImbalance;
    pub use rfbist_rfchain::pa::PaModel;
    pub use rfbist_rfchain::txchain::HomodyneTx;
    pub use rfbist_sampling::band::BandSpec;
    pub use rfbist_sampling::dualrate::DualRateConfig;
    pub use rfbist_sampling::gridplan::{GridBlocks, GridScratch, PnbsGridPlan, GRID_BLOCK_LEN};
    pub use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
    pub use rfbist_signal::prelude::*;
}

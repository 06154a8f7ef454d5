//! Data-converter behavioral models (paper Fig. 4).
//!
//! The receive-side ADCs an SDR reuses for BIST are modeled here at the
//! same level of abstraction the paper simulates: sampling clocks with
//! Gaussian jitter, a digitally controlled delay element (DCDE), 10-bit
//! quantization, and per-channel offset/gain/skew mismatches.
//!
//! - [`clock`]: jittered sampling clocks and the DCDE,
//! - [`quantizer`]: uniform mid-tread quantization with clipping,
//! - [`adc`]: a single ADC channel (S/H + mismatches + quantizer),
//! - [`bptiadc`]: the paper's nonuniform **BP-TIADC** that produces
//!   [`rfbist_sampling::NonuniformCapture`]s,
//! - [`calibration`]: offset/gain background calibration.
//!
//! # Example: the paper's capture front-end
//!
//! ```
//! use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig};
//! use rfbist_signal::tone::Tone;
//!
//! let cfg = BpTiadcConfig::paper_section_v(180e-12);
//! let mut adc = BpTiadc::new(cfg);
//! let cap = adc.capture(&Tone::unit(0.99e9), -40, 300);
//! assert_eq!(cap.len(), 300);
//! ```

pub mod adc;
pub mod bptiadc;
pub mod calibration;
pub mod clock;
pub mod quantizer;

pub use bptiadc::{BpTiadc, BpTiadcConfig};
pub use clock::{ClockGenerator, Dcde, JitterModel};
pub use quantizer::Quantizer;

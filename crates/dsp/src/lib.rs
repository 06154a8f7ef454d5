//! Digital signal processing library for the `rfbist` workspace.
//!
//! Built entirely on [`rfbist_math`], this crate provides the filtering and
//! spectral-estimation machinery the BIST reproduction needs:
//!
//! - [`window`]: window functions (rectangular through Kaiser),
//! - [`fir`]: windowed-sinc FIR design and filtering,
//! - [`srrc`]: raised-cosine and square-root raised-cosine pulses,
//! - [`psd`]: periodogram and Welch power-spectral-density estimation,
//! - [`specmetrics`]: single-tone converter metrics (SNR, SINAD, SFDR,
//!   ENOB, THD),
//! - [`resample`]: rational and sinc-based resampling, fractional delay,
//! - [`goertzel`]: single-bin DFT evaluation (the banked mask-bin scan),
//! - [`simd`]: the runtime kernel-dispatch switch.
//!
//! # Example
//!
//! ```
//! use rfbist_dsp::window::Window;
//! use rfbist_dsp::fir::FirFilter;
//!
//! // 31-tap lowpass at a quarter of the sample rate.
//! let fir = FirFilter::lowpass(31, 0.25, Window::Hamming);
//! assert_eq!(fir.taps().len(), 31);
//! // Unit DC gain by construction.
//! let dc: f64 = fir.taps().iter().sum();
//! assert!((dc - 1.0).abs() < 1e-12);
//! ```

pub mod fir;
pub mod goertzel;
pub mod psd;
pub mod resample;
pub mod simd;
pub mod specmetrics;
pub mod srrc;
pub mod window;

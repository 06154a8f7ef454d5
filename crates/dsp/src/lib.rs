//! Digital signal processing library for the `rfbist` workspace.
//!
//! Built entirely on [`rfbist_math`], this crate provides the filtering and
//! spectral-estimation machinery the BIST reproduction needs:
//!
//! - [`window`]: window functions (rectangular through Kaiser) and their
//!   tabulated forms,
//! - [`srrc`]: raised-cosine and square-root raised-cosine pulses,
//! - [`psd`]: periodogram and Welch power-spectral-density estimation,
//! - [`resample`]: truncated-sinc fractional delay (the grid-simulation
//!   oracle),
//! - [`goertzel`]: single-bin DFT evaluation (the banked mask-bin scan),
//! - [`simd`]: the runtime kernel-dispatch switch.
//!
//! # Example
//!
//! ```
//! use rfbist_dsp::psd::welch;
//! use rfbist_dsp::window::Window;
//!
//! // A 100 MHz tone sampled at 400 MHz peaks in the 100 MHz bin.
//! let fs = 400e6;
//! let x: Vec<f64> = (0..4096)
//!     .map(|i| (2.0 * std::f64::consts::PI * 100e6 * i as f64 / fs).sin())
//!     .collect();
//! let psd = welch(&x, fs, 1024, 512, Window::Hann);
//! assert_eq!(psd.peak_frequency(), 100e6);
//! ```

pub mod goertzel;
pub mod psd;
pub mod resample;
pub mod simd;
pub mod srrc;
pub mod window;

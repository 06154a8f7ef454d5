//! Numeric kernel for the `rfbist` workspace.
//!
//! This crate provides the minimal, self-contained numeric substrate needed
//! by the DSP, signal-modeling and sampling-theory crates:
//!
//! - [`complex`]: a `Complex64` value type with full arithmetic,
//! - [`fft`]: radix-2 and Bluestein FFTs (any length), plus helpers,
//! - [`special`]: special functions (the modified Bessel `I0`, `sinc`),
//! - [`linalg`]: small dense matrices, linear solves, least squares,
//! - [`stats`]: descriptive statistics used by measurement code,
//! - [`interp`]: truncated-sinc interpolation (the grid-simulation oracle),
//! - [`rotor`]: `sincos` and recurrence-built phasor tables
//!   ([`rotor::fill_phasor_table`]),
//! - [`rng`]: deterministic Gaussian/uniform sampling helpers.
//!
//! The workspace deliberately avoids external numeric crates so the entire
//! reproduction is auditable from first principles.
//!
//! # Example
//!
//! ```
//! use rfbist_math::complex::Complex64;
//! use rfbist_math::fft::fft;
//!
//! let mut x = vec![Complex64::ZERO; 8];
//! x[1] = Complex64::ONE; // a unit impulse at n = 1
//! let spectrum = fft(&x);
//! // An impulse has a flat magnitude spectrum.
//! for bin in &spectrum {
//!     assert!((bin.abs() - 1.0).abs() < 1e-12);
//! }
//! ```

pub mod complex;
pub mod fft;
pub mod interp;
pub mod linalg;
pub mod rng;
pub mod rotor;
pub mod special;
pub mod stats;

pub use complex::Complex64;
